"""Splittable-stream contracts: children are deterministic pure functions
of (seed, path), vectorized slot keys are bit-identical to one-at-a-time
derivation, cursor reuse reproduces fresh generators exactly, the
vectorised Philox words equal numpy's Philox stream by stream, and slot
streams reproduce numpy's Generator draws, normals off the ziggurat's
one-word path included."""

from __future__ import annotations

import numpy as np
import pytest

from abcsmc import RngKey, StreamCursor
from abcsmc import _ziggurat, rng as rng_module
from abcsmc.rng import SlotStreams, philox_words
from conftest import one_word

FROZEN_KEY_WORDS = (11983322555746480598, 4576766598728567245)  # RngKey(0).child(1, 2)
FROZEN_FIRST_NORMAL = 1.2090747939481374  # RngKey(123).child(4)
FROZEN_FIRST_UNIFORM = 0.9551203403100861


def test_key_words_frozen():
    kw = RngKey(0).child(1, 2).key_words()
    assert tuple(int(w) for w in kw) == FROZEN_KEY_WORDS


def test_first_draws_frozen():
    key = RngKey(123).child(4)
    assert key.generator().standard_normal() == FROZEN_FIRST_NORMAL
    assert key.generator().random() == FROZEN_FIRST_UNIFORM


def test_slot_keys_match_child_derivation():
    for seed, path in [(0, ()), (42, (3,)), (7, (1, 0, 5))]:
        key = RngKey(seed, path)
        slots = key.slot_keys(64)
        for i in (0, 1, 17, 63):
            assert np.array_equal(slots[i], key.child(i).key_words())


def test_slot_keys_from_an_offset_equal_the_slice():
    key = RngKey(8).child(2, 5)
    for start, n in [(0, 0), (0, 40), (17, 40), (40, 40), (4095, 4100)]:
        assert np.array_equal(key.slot_keys(n, start=start), key.slot_keys(n)[start:])
    with pytest.raises(ValueError):
        key.slot_keys(10, start=11)
    with pytest.raises(ValueError):
        key.slot_keys(10, start=-1)


def test_cursor_matches_fresh_generator():
    key = RngKey(99).child(2)
    cursor = StreamCursor()
    for i in range(5):
        child = key.child(i)
        g_cursor = cursor.seek(child.key_words())
        got = (
            g_cursor.standard_normal(3).tolist(),
            g_cursor.random(),
            int(g_cursor.integers(0, 1000)),
        )
        g_fresh = child.generator()
        want = (
            g_fresh.standard_normal(3).tolist(),
            g_fresh.random(),
            int(g_fresh.integers(0, 1000)),
        )
        assert got == want


def test_children_are_reproducible_and_distinct():
    a = RngKey(1).child(0).generator().random(8)
    b = RngKey(1).child(0).generator().random(8)
    c = RngKey(1).child(1).generator().random(8)
    d = RngKey(2).child(0).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_nested_child_equals_flat_path():
    assert np.array_equal(
        RngKey(3).child(1).child(4).key_words(), RngKey(3).child(1, 4).key_words()
    )


def test_adjacent_slots_uncorrelated_smoke():
    # neighboring slots should look independent: correlation of first
    # normals across 4096 slots is O(1/sqrt(n))
    key = RngKey(2024)
    cursor = StreamCursor()
    slots = key.slot_keys(4097)
    draws = np.array([cursor.seek(slots[i]).standard_normal() for i in range(4097)])
    corr = np.corrcoef(draws[:-1], draws[1:])[0, 1]
    assert abs(corr) < 0.08
    assert abs(draws.mean()) < 0.08


@pytest.mark.parametrize("k", [1, 4, 6])
def test_philox_words_match_numpy_philox(k):
    # k = 6 needs a second counter block
    keys = RngKey(31).child(2).slot_keys(1000)
    words = philox_words(keys, k)
    assert words.shape == (1000, k) and words.dtype == np.uint64
    want = np.stack([np.random.Philox(key=kw).random_raw(k) for kw in keys])
    assert np.array_equal(words, want)


@pytest.mark.parametrize("k", [0, 3, 6])
def test_philox_words_across_passes(k):
    # 5000 slots take two passes at one block per slot and three at two,
    # the last one partial; slots at every pass boundary are checked
    keys = RngKey(33).slot_keys(5000)
    words = philox_words(keys, k)
    assert words.shape == (5000, k)
    for i in (0, 2047, 2048, 4095, 4096, 4999):
        assert np.array_equal(words[i], np.random.Philox(key=keys[i]).random_raw(k))


def test_slot_streams_reproduce_generators():
    # 20 000 slots x 50 normals, in runs of several with uniforms between
    m = 20_000
    keys = RngKey(32).slot_keys(m)
    calls = [
        ("standard_normal", None), ("random", None), ("standard_normal", 12),
        ("random", 3), ("standard_normal", 1), ("standard_normal", 20),
        ("random", 2), ("standard_normal", 16),
    ]
    draws = sum(1 if k is None else k for _, k in calls)
    rng = SlotStreams(philox_words(keys, draws), keys)
    got = [getattr(rng, f)(k) for f, k in calls]
    normals_per_slot = sum(1 if k is None else k for f, k in calls if f[0] == "s")
    assert m * normals_per_slot >= 1_000_000
    for i in range(m):
        g = np.random.Generator(np.random.Philox(key=keys[i]))
        for (f, k), block in zip(calls, got):
            assert np.array_equal(getattr(g, f)(k), block[i]), (i, f, k)
    # the draws covered wedge and tail normals (|x| beyond the base
    # strip's edge R comes only from the tail), and slots fell behind
    normals = np.concatenate(
        [np.ravel(b) for (f, _), b in zip(calls, got) if f == "standard_normal"]
    )
    assert np.count_nonzero(np.abs(normals) > _ziggurat.R) > 50
    assert 0.1 < np.count_nonzero(rng._lag) / m < 0.9


def test_slot_streams_regrow_their_far_words(monkeypatch):
    # with no spare far words, a slot whose normals read past its words
    # regrows them; a normal that runs past them inside its replay is
    # replayed from its start on the regrown words
    monkeypatch.setattr(rng_module, "_MORE_WORDS", 0)
    past = []
    normal = rng_module._normal

    def counted(words, pos):
        try:
            return normal(words, pos)
        except IndexError:
            past.append(pos)
            raise

    monkeypatch.setattr(rng_module, "_normal", counted)
    m = 3000
    keys = RngKey(35).slot_keys(m)
    # no slot is behind before the normals, so no read has regrown the
    # words when the normals run past them
    calls = [("random", 2), ("standard_normal", 6), ("random", None)]
    rng = SlotStreams(philox_words(keys, sum(k or 1 for _, k in calls)), keys)
    got = [getattr(rng, f)(k) for f, k in calls]
    for i in range(m):
        g = np.random.Generator(np.random.Philox(key=keys[i]))
        for (f, k), block in zip(calls, got):
            assert np.array_equal(getattr(g, f)(k), block[i]), (i, f, k)
    assert len(past) > 50 and np.count_nonzero(rng._lag) > 200


def test_slot_streams_rows_keep_each_slots_cursor():
    # after a normal off the one-word path, a row view continues every
    # selected slot's stream where it stood
    keys = RngKey(34).slot_keys(3000)
    words = philox_words(keys, 3)
    rng = SlotStreams(words, keys)
    rng.standard_normal()
    slow = ~one_word(words[:, 0])
    assert slow.any()
    sel = slow | (np.arange(3000) % 2 == 0)
    views = [
        (rng.rows(sel), np.flatnonzero(sel)),
        (rng.rows(np.flatnonzero(sel)), np.flatnonzero(sel)),
        (rng.rows(slice(5, 2000)).rows(slice(10, None)), np.arange(15, 2000)),
    ]
    for sub, slots in views:
        u, x = sub.random(), sub.standard_normal()
        assert len(u) == len(slots)
        for j, i in enumerate(slots):
            g = np.random.Generator(np.random.Philox(key=keys[i]))
            g.standard_normal()
            assert (g.random(), g.standard_normal()) == (u[j], x[j])


def test_slot_streams_refuse_to_overrun_their_words():
    rng = SlotStreams(np.zeros((4, 2), dtype=np.uint64))
    rng.random(2)
    with pytest.raises(ValueError):
        rng.standard_normal()
    # without keys a normal may not read past its slot's words: strip 1
    # never takes the one-word path
    with pytest.raises(ValueError):
        SlotStreams(np.array([[1, 0]], dtype=np.uint64)).standard_normal(2)


def _untemper(y: int) -> int:
    """Inverse of MT19937's output tempering."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(5):
        t = y ^ ((t << 7) & 0x9D2C5680)
    t &= 0xFFFFFFFF
    u = t
    for _ in range(3):
        u = t ^ (u >> 11)
    return u


_MT = np.random.MT19937(0)
_MT_GEN = np.random.Generator(_MT)


def _numpy_normal(words, doubles=()) -> tuple[float, int]:
    """numpy's own standard_normal on the raw 64-bit ``words``, and the
    number of words it read, through an MT19937 whose state replays
    them.  The words at the indices in ``doubles`` are read as uniforms:
    MT19937 builds those from two 32-bit outputs its own way, so they are
    fed so as to give the uniform ``(w >> 11) * 2**-53`` that Philox gives."""
    halves = []
    for j, w in enumerate(words):
        if j in doubles:
            u53 = w >> 11
            halves += [(u53 >> 26) << 5, (u53 & (2**26 - 1)) << 6]
        else:
            halves += [w >> 32, w & 0xFFFFFFFF]
    state = _MT.state
    key = np.zeros(624, dtype=np.uint32)
    key[:len(halves)] = [_untemper(h) for h in halves]
    state["state"]["key"], state["state"]["pos"] = key, 0
    _MT.state = state
    x = _MT_GEN.standard_normal()
    return x, int(_MT.state["state"]["pos"]) // 2


def _replayed_normal(words) -> tuple[float, int]:
    """The same normal from :class:`SlotStreams` on one slot's ``words``."""
    rng = SlotStreams(np.array([words], dtype=np.uint64))
    x = float(rng.standard_normal()[0])
    return x, 1 + int(rng._lag[0])


def test_ziggurat_tables_match_numpy():
    # feed chosen 64-bit words to numpy's own standard_normal and check
    # every strip's boundary: rabs = KI - 1 is one word giving rabs * WI,
    # rabs = KI reads more
    def one_word_normal(word, wi):
        # the uniforms 1/2 and 1 - 2**-53 end a tail draw at once
        x, read = _numpy_normal([word, 2**63, 2**64 - 1], doubles={1, 2})
        return read == 1 and x == (-1.0 if word >> 8 & 1 else 1.0) * (word >> 9) * wi

    for idx, (ki, wi) in enumerate(zip(_ziggurat.KI, _ziggurat.WI)):
        for sign in (0, 1):
            if ki > 0:
                assert one_word_normal((ki - 1) << 9 | sign << 8 | idx, wi)
            if ki < 2**52:
                assert not one_word_normal(ki << 9 | sign << 8 | idx, wi)


def test_ziggurat_fi_table_matches_numpy():
    # strip idx > 0 keeps its candidate x when (FI[idx-1] - FI[idx]) * u
    # + FI[idx] < exp(-x*x/2), so for one x per strip the smallest uniform
    # word that rejects pins down both entries; bisect numpy for it and
    # check the replay switches at the same word.  A rejected wedge reads
    # a fresh word, here strip 2 with rabs 0, which is the normal 0.0.
    for idx in range(1, 256):
        rabs = (_ziggurat.KI[idx] + 2**52) // 2
        wedge = rabs << 9 | idx

        def kept(u53):
            x, _ = _numpy_normal([wedge, u53 << 11, 2], doubles={1})
            return x != 0.0

        lo, hi = 0, 2**53 - 1
        assert kept(lo) and not kept(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if kept(mid) else (lo, mid)
        for u53, read in ((lo, 2), (hi, 3)):
            want = _numpy_normal([wedge, u53 << 11, 2], doubles={1})
            assert want[1] == read
            assert _replayed_normal([wedge, u53 << 11, 2]) == want, idx


@pytest.mark.parametrize("sign", [0, 1])
def test_wedge_and_tail_words_match_numpy(sign):
    # wedge words (idx != 0, rabs >= KI[idx]) with uniforms that keep or
    # reject them, and tail words (idx == 0) with uniform pairs that the
    # tail loop rejects before it accepts; the tail's sign is bit 8 of rabs
    gen = np.random.default_rng(5)
    cases = []
    for idx in range(1, 256):
        for u in (0, 2**64 - 1, int(gen.integers(2**63))):
            rabs = int(gen.integers(_ziggurat.KI[idx], 2**52))
            cases.append(([rabs << 9 | sign << 8 | idx, u, 2 << 9 | 7], {1}))
    for _ in range(200):
        rabs = int(gen.integers(_ziggurat.KI[0], 2**52))
        pairs = [int(w) for w in gen.integers(0, 2**64, size=6, dtype=np.uint64)]
        cases.append(([rabs << 9 | sign << 8] + pairs, set(range(1, 7))))
        # u1 = 0 gives xx = 0, which never passes 2 * yy > 0 at u2 = 0
        cases.append(([rabs << 9 | sign << 8, 0, 0] + pairs, set(range(1, 9))))
    kinds = set()
    for words, doubles in cases:
        want = _numpy_normal(words, doubles)
        assert _replayed_normal(words) == want, words
        kinds.add((words[0] & 0xFF == 0, want[1]))
    # both kinds, kept at once and after a retry
    assert {(False, 2), (False, 3), (True, 3), (True, 5)} <= kinds


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        RngKey(0).child(-1)
    with pytest.raises(ValueError):
        RngKey(0).slot_keys(-3)
