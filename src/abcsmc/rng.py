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

import math
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

    def slot_keys(self, n: int, start: int = 0) -> np.ndarray:
        """Key words for children ``child(start) .. child(n-1)``, shape
        (n - start, 2).

        Vectorised equivalent of ``[self.child(i).key_words() for i in
        range(start, n)]`` (bit-identical, ~50ns per slot instead of ~2us).
        """
        if not 0 <= start <= n:
            raise ValueError("slot range must satisfy 0 <= start <= n")
        h = np.uint64(self._hash_prefix())
        slots = np.arange(start, n, dtype=np.uint64)
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
_SHIFT9 = _U64(9)
_SHIFT11 = _U64(11)
_SHIFT55 = _U64(55)
_SIGN64 = _U64(1 << 63)
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


def _doubles(w: np.ndarray) -> np.ndarray:
    """numpy's ``next_double`` of raw words: ``(w >> 11) * 2**-53``."""
    return (w >> _SHIFT11).astype(np.float64) * 2.0**-53


def _first_word_normals(w: np.ndarray):
    """The ziggurat's first step on raw words: the signed candidate ``x``
    and whether ``x`` is the normal (``rabs < KI[idx]``, the one-word
    path)."""
    idx = (w & _LO8).astype(np.intp)
    rabs = (w >> _SHIFT9) & _LO52
    x = rabs.astype(np.float64) * _ZIG_WI[idx]
    # x >= 0, so moving the word's sign bit onto x's negates x like -x
    x.view(np.uint64)[...] |= (w << _SHIFT55) & _SIGN64
    return x, rabs < _ZIG_KI[idx]


def _normal(words: list[int], pos: int) -> tuple[float, int]:
    """numpy's ``random_standard_normal`` on the raw words of one stream
    from word ``pos`` on: the normal, and the position after it.

    A line-for-line transliteration of numpy's C code on Python ints and
    floats, whose ``math.exp`` and ``math.log1p`` are the C library's, as
    numpy's are.  A word off the one-word path reads a uniform ``u``.  In
    strip ``idx > 0`` it keeps ``x`` when ``(FI[idx-1] - FI[idx]) * u +
    FI[idx] < exp(-x*x/2)`` and starts over otherwise; in strip 0 it
    samples the tail beyond ``R``, with ``u`` as the first uniform.
    Raises IndexError if the normal reads past ``words``.
    """
    while True:
        r = words[pos]
        idx = r & 0xFF
        r >>= 8
        rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
        x = rabs * _ziggurat.WI[idx]
        if r & 1:
            x = -x
        if rabs < _ziggurat.KI[idx]:
            return x, pos + 1
        if idx == 0:
            while True:
                xx = -_ziggurat.INV_R * math.log1p(-(words[pos + 1] >> 11) * 2.0**-53)
                yy = -math.log1p(-(words[pos + 2] >> 11) * 2.0**-53)
                pos += 2
                if yy + yy > xx * xx:
                    xx = _ziggurat.R + xx
                    return (-xx if (rabs >> 8) & 1 else xx), pos + 1
        fi = _ziggurat.FI
        u = (words[pos + 1] >> 11) * 2.0**-53
        pos += 2
        if (fi[idx - 1] - fi[idx]) * u + fi[idx] < math.exp(-0.5 * x * x):
            return x, pos


# words computed beyond a stage's own for each slot whose normals may
# leave the one-word path; a normal that leaves it reads one to three more
_MORE_WORDS = 5


class _StageWords:
    """Raw words of the slots of one stage.

    ``first`` holds the first words of every slot, one per draw of the
    stage.  A slot can fall behind that lockstep only at a word that
    misses the one-word path, so only slots with such a word among
    ``first`` get ``far`` words: their streams' first words and
    ``_MORE_WORDS`` more, from :func:`philox_words` on their keys,
    recomputed longer if a slot reads past them.  Without keys, ``far``
    holds those slots' ``first`` words and nothing more.
    """

    def __init__(self, first: np.ndarray, keys: np.ndarray | None) -> None:
        self.first = first
        self.keys = keys
        miss = ((first >> _SHIFT9) & _LO52) >= _ZIG_KI[(first & _LO8).astype(np.intp)]
        slow = np.unique(np.flatnonzero(miss) // max(first.shape[1], 1))
        self.far_slots = slow
        self.far_row = np.full(len(first), -1, dtype=np.intp)
        self.far_row[slow] = np.arange(len(slow))
        self.far = (
            first[slow] if keys is None
            else philox_words(keys[slow], first.shape[1] + _MORE_WORDS)
        )

    def _grow(self, need: int) -> None:
        """Make ``far`` hold at least ``need`` words per slot."""
        if need > self.far.shape[1]:
            if self.keys is None:
                raise ValueError(
                    f"slot streams hold {self.far.shape[1]} words per slot; "
                    f"a draw needed word {need}"
                )
            self.far = philox_words(self.keys[self.far_slots], need + _MORE_WORDS)

    def read(self, slots: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Word ``pos`` of the streams of ``slots`` (arrays of one shape);
        every slot must have ``far`` words."""
        self._grow(int(pos.max(initial=-1)) + 1)
        return self.far[self.far_row[slots], pos]

    def lists(self, slots, need: int = 0) -> list:
        """The ``far`` words of ``slots`` (an index array, or one index) as
        lists of Python ints, at least ``need`` of them per slot."""
        self._grow(need)
        return self.far[self.far_row[slots]].tolist()


class SlotStreams:
    """The Generators of many slots, drawing in lockstep from their words.

    Row i of ``words`` holds the first raw words of slot i's stream, as
    :func:`philox_words` returns them for row i of ``keys``, one word per
    draw the slots will make.  Each draw returns, per slot, the value that
    slot's ``np.random.Generator(np.random.Philox(key))`` would return for
    the same draw: ``random`` as numpy's ``(w >> 11) * 2**-53``, and
    ``standard_normal`` as numpy's whole ziggurat.  Normals are decoded on
    whole arrays from one word each; about 1.5 % of them leave that
    one-word path, and from a slot's first such normal on, its normals
    of the call are replayed one at a time by :func:`_normal`, numpy's C
    code in Python.  Each slot keeps its own word cursor, so a slot that
    read more than one word for a normal reads its later words for its
    later draws; they come from :func:`philox_words` on its key.  Without
    ``keys`` a slot may read only its row of ``words``, and a draw that
    needs more raises ValueError.  A block makes at most as many draws as
    ``words`` has columns; ``size=k`` counts as k draws and returns shape
    (m, k), like the Generator's ``size``.
    """

    def __init__(self, words: np.ndarray, keys: np.ndarray | None = None) -> None:
        self._src = _StageWords(words, keys)
        self._slots: slice | np.ndarray = slice(0, len(words))
        self._draws = 0
        # words each slot has read beyond its draws, and the slots with any
        self._lag = np.zeros(len(words), dtype=np.intp)
        self._behind = self._lag[:0]

    def rows(self, sel) -> "SlotStreams":
        """The streams of the slots that ``sel`` (a slice, mask or index
        array) selects, at the same draw."""
        sub = SlotStreams.__new__(SlotStreams)
        sub._src = self._src
        if not isinstance(self._slots, slice):
            sub._slots = self._slots[sel]
        elif isinstance(sel, slice) and sel.step in (None, 1):
            r = range(self._slots.start, self._slots.stop)[sel]
            sub._slots = slice(r.start, r.stop)
        else:
            sub._slots = np.arange(self._slots.start, self._slots.stop)[sel]
        sub._draws = self._draws
        sub._lag = self._lag[sel].copy()
        sub._behind = np.flatnonzero(sub._lag)
        return sub

    def _stage_slots(self, local: np.ndarray) -> np.ndarray:
        if isinstance(self._slots, slice):
            return self._slots.start + local
        return self._slots[local]

    def _take(self, k: int) -> np.ndarray:
        """The next k words of every slot, shape (m, k), as if each of the
        k draws read one word."""
        d = self._draws
        if d + k > self._src.first.shape[1]:
            raise ValueError(
                f"slot streams hold {self._src.first.shape[1]} draws per slot; "
                f"a draw needed draw {d + k}"
            )
        w = self._src.first[self._slots, d:d + k]
        self._draws = d + k
        if self._behind.size:
            b = self._behind
            w = w.copy()
            pos = (d + self._lag[b])[:, None] + np.arange(k)
            w[b] = self._src.read(self._stage_slots(b)[:, None], pos)
        return w

    def random(self, size: int | None = None) -> np.ndarray:
        u = _doubles(self._take(1 if size is None else size))
        return u[:, 0] if size is None else u

    def standard_normal(self, size: int | None = None) -> np.ndarray:
        k = 1 if size is None else size
        x, fast = _first_word_normals(self._take(k))
        if not fast.all():
            # from a slot's first normal off the one-word path on, its
            # normals are replayed one at a time from its own words
            slots = np.flatnonzero(~fast.all(axis=1))
            col = np.argmin(fast[slots], axis=1)
            pos = self._draws - k + self._lag[slots] + col
            stage = self._stage_slots(slots)
            out, end = [], []
            for w, s, c, p in zip(
                self._src.lists(stage), stage.tolist(), col.tolist(), pos.tolist()
            ):
                for _ in range(c, k):
                    while True:
                        try:
                            v, p = _normal(w, p)
                            break
                        except IndexError:
                            # past the slot's far words: regrow them, and
                            # replay the normal from its start at p
                            w = self._src.lists(s, len(w) + 1)
                    out.append(v)
                end.append(p)
            rows, cols = np.nonzero(np.arange(k) >= col[:, None])
            x[slots[rows], cols] = out
            self._lag[slots] = np.array(end) - self._draws
            self._behind = np.flatnonzero(self._lag)
        return x[:, 0] if size is None else x


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
