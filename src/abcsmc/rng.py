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

:func:`philox_words` computes the first raw words of many streams at
once, as whole-array Philox4x64-10 rounds (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11): row i equals
``np.random.Philox(key=keys[i]).random_raw(k)`` bit for bit.
:class:`SlotStreams` turns those words into the draws the slots'
Generators would make, for all slots at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _ziggurat

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


_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
_SHIFT8 = _U64(8)
_SHIFT9 = _U64(9)
_SHIFT11 = _U64(11)
_LO8 = _U64(0xFF)
_LO52 = _U64(0x000FFFFFFFFFFFFF)
_ZIG_KI = np.array(_ziggurat.KI, dtype=np.uint64)
_ZIG_WI = np.array(_ziggurat.WI, dtype=np.float64)
# Philox4x64 round multipliers and Weyl key increments, as (ctr 0, ctr 2)
# and (key 0, key 1) columns
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & _LO32
_PHILOX_M_HI = _PHILOX_M >> _SHIFT32
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
# Philox blocks computed per pass.  A call allocates its scratch (about
# 0.7 MiB) once and reuses it for every round and pass, so its rounds
# neither map fresh pages nor stream through memory beyond L2.
_PHILOX_CHUNK = 4096


def philox_words(keys: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` raw 64-bit words of every stream in ``keys``, shape (n, k).

    ``keys`` is an (n, 2) array of key words such as
    :meth:`RngKey.slot_keys` returns.  Row i is bit-identical to
    ``np.random.Philox(key=keys[i]).random_raw(k)``: numpy's Philox
    starts at counter 0 and increments it before each block, so words
    ``4b .. 4b+3`` are the Philox4x64-10 block of counter ``b + 1``.
    The rounds run in place on scratch arrays of ``_PHILOX_CHUNK``
    blocks, one pass per run of slots.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = len(keys)
    if k < 0:
        raise ValueError("word count must be non-negative")
    blocks = -(-k // 4)
    words = np.empty((n, 4 * blocks), dtype=np.uint64)
    per_pass = _PHILOX_CHUNK // max(blocks, 1)
    width = min(n, per_pass) * blocks
    # one column per (slot, block): counter words (b + 1, 0, 0, 0)
    first = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), min(n, per_pass))
    ctr, nxt = np.empty((4, width), np.uint64), np.empty((4, width), np.uint64)
    key, x_lo, x_hi, ll, hl, lh, hi = (np.empty((2, width), np.uint64) for _ in range(7))
    with np.errstate(over="ignore"):
        for s0 in range(0, n, per_pass):
            s1 = min(n, s0 + per_pass)
            m = (s1 - s0) * blocks
            c, d, kk = ctr[:, :m], nxt[:, :m], key[:, :m]
            a_lo, a_hi, p_ll, p_hl, p_lh, p_hi = (
                a[:, :m] for a in (x_lo, x_hi, ll, hl, lh, hi)
            )
            c[0] = first[:m]
            c[1:] = 0
            kk[...] = np.repeat(keys[s0:s1].T, blocks, axis=1)
            for r in range(_PHILOX_ROUNDS):
                if r:
                    kk += _PHILOX_W
                # 128-bit products of (M0, M1) with counter words (0, 2),
                # from 32-bit halves; no partial sum below overflows
                x = c[0::2]
                np.bitwise_and(x, _LO32, out=a_lo)
                np.right_shift(x, _SHIFT32, out=a_hi)
                np.multiply(_PHILOX_M_LO, a_lo, out=p_ll)
                np.multiply(_PHILOX_M_HI, a_lo, out=p_hl)
                np.multiply(_PHILOX_M_LO, a_hi, out=p_lh)
                np.multiply(_PHILOX_M_HI, a_hi, out=p_hi)
                p_ll >>= _SHIFT32
                p_hl += p_ll
                np.bitwise_and(p_hl, _LO32, out=p_ll)
                p_lh += p_ll
                p_hl >>= _SHIFT32
                p_hi += p_hl
                p_lh >>= _SHIFT32
                p_hi += p_lh
                # low halves go to words 3 and 1, in that order
                np.multiply(_PHILOX_M, x, out=d[3::-2])
                np.bitwise_xor(p_hi[1], c[1], out=d[0])
                d[0] ^= kk[0]
                np.bitwise_xor(p_hi[0], c[3], out=d[2])
                d[2] ^= kk[1]
                c, d = d, c
            words.reshape(n * blocks, 4)[s0 * blocks:s1 * blocks] = c.T
    return words[:, :k]


class SlotStreams:
    """The Generators of many slots, drawing in lockstep from their words.

    Row i of ``words`` holds the first raw words of slot i's stream, as
    :func:`philox_words` returns them.  Each draw takes the next word of
    every slot and returns, per slot, the value that slot's
    ``np.random.Generator(np.random.Philox(key))`` would return for the
    same draw: ``random`` as numpy's ``(w >> 11) * 2**-53``,
    ``standard_normal`` as the one-word path of numpy's ziggurat.  That
    path covers about 98.5 % of normal draws; a slot with a normal outside
    it gets ``ok[i] = False``, and its values from then on are not the
    Generator's, so the caller must draw that slot again from its
    Generator.  ``size=k`` takes k words per slot and returns shape
    (m, k), like the Generator's ``size``.
    """

    def __init__(self, words: np.ndarray) -> None:
        self._words = words
        self._next = 0
        self.ok = np.ones(len(words), dtype=bool)

    def _take(self, size: int | None) -> np.ndarray:
        k = 1 if size is None else size
        if self._next + k > self._words.shape[1]:
            raise ValueError(
                f"slot streams hold {self._words.shape[1]} words per slot; "
                f"a draw needed word {self._next + k}"
            )
        w = self._words[:, self._next:self._next + k]
        self._next += k
        return w[:, 0] if size is None else w

    def random(self, size: int | None = None) -> np.ndarray:
        return (self._take(size) >> _SHIFT11).astype(np.float64) * 2.0**-53

    def standard_normal(self, size: int | None = None) -> np.ndarray:
        w = self._take(size)
        idx = (w & _LO8).astype(np.intp)
        rabs = (w >> _SHIFT9) & _LO52
        x = rabs.astype(np.float64) * _ZIG_WI[idx]
        x = np.where(((w >> _SHIFT8) & _U64(1)).astype(bool), -x, x)
        one_word = rabs < _ZIG_KI[idx]
        self.ok &= one_word if size is None else one_word.all(axis=1)
        return x


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
