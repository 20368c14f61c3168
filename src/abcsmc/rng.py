"""Deterministic, splittable random streams.

Every random draw in this package comes from a stream identified by a
root seed plus a path of non-negative integers (replicate, phase,
iteration, slot index, ...).  Stream identity is a pure function of
``(seed, path)``, so results never depend on execution order or on how
work is sharded across workers: any scheduler that hands slot *i* its
derived stream reproduces the sequential output bit for bit.

Paths are mixed down to a 128-bit Philox key with splitmix64-style
avalanching.  :meth:`RngKey.generator` builds a fresh numpy Generator
for one-off use; :class:`StreamCursor` reuses a single Philox instance
and resets its state per slot, which is several times faster when
millions of short-lived streams are needed in a tight loop.  Both
constructions yield bit-identical draws for the same key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
# distinct salts so the two Philox key words decorrelate
_SALT0 = 0x8BADF00D5CA1AB1E
_SALT1 = 0xDEC0DE0DD15EA5E5


def _mix(x: int) -> int:
    """splitmix64 finalizer on a 64-bit word."""
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * _MULT1) & _MASK
    x = ((x ^ (x >> 27)) * _MULT2) & _MASK
    return x ^ (x >> 31)


def _fold(h: int, w: int) -> int:
    return _mix(h ^ _mix(w & _MASK))


# the salts always enter _fold through the finalizer, so store them pre-mixed
_MIXED_SALT0 = _mix(_SALT0)
_MIXED_SALT1 = _mix(_SALT1)


def _mix_vec(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MULT1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MULT2)
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class RngKey:
    """Identifier of one random stream: a root seed plus an index path."""

    seed: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def child(self, *indices: int) -> "RngKey":
        """Extend the path; each distinct path is an independent stream."""
        for i in indices:
            if i < 0:
                raise ValueError("stream path indices must be non-negative")
        return RngKey(self.seed, self.path + tuple(int(i) for i in indices))

    def _hash_prefix(self) -> int:
        h = _mix(self.seed & _MASK)
        for w in self.path:
            h = _fold(h, w)
        return h

    def key_words(self) -> np.ndarray:
        """128-bit Philox key for this stream, as two uint64 words."""
        h = self._hash_prefix()
        return np.array([_fold(h, _SALT0), _fold(h, _SALT1)], dtype=np.uint64)

    def slot_keys(self, n: int) -> np.ndarray:
        """Key words for children ``child(0) .. child(n-1)``, shape (n, 2).

        Vectorised equivalent of ``[self.child(i).key_words() for i in
        range(n)]`` (bit-identical, ~50ns per slot instead of ~2us).
        """
        if n < 0:
            raise ValueError("slot count must be non-negative")
        h = np.uint64(self._hash_prefix())
        slots = np.arange(n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            hs = _mix_vec(h ^ _mix_vec(slots))
            k0 = _mix_vec(hs ^ np.uint64(_MIXED_SALT0))
            k1 = _mix_vec(hs ^ np.uint64(_MIXED_SALT1))
        return np.stack([k0, k1], axis=1)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator on this stream."""
        return np.random.Generator(np.random.Philox(key=self.key_words()))


class StreamCursor:
    """Reusable Philox generator that can be repositioned onto any stream.

    ``seek`` makes the held Generator produce exactly the draws that a
    fresh ``Generator(Philox(key=...))`` would.  The returned object is
    shared: it is only valid until the next ``seek``, so a cursor must
    not be handed to concurrent consumers — parallel workers each build
    their own cursor, which preserves bit-identical results because
    stream content depends only on the key.
    """

    def __init__(self) -> None:
        self._bitgen = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._zero_counter = np.zeros(4, dtype=np.uint64)

    def seek(self, key_words: np.ndarray) -> np.random.Generator:
        st = self._state
        st["state"]["counter"] = self._zero_counter
        st["state"]["key"] = key_words
        st["buffer_pos"] = 4  # discard buffered words
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st
        return self.generator
