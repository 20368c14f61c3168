"""Splittable-stream contracts: children are deterministic pure functions
of (seed, path), vectorized slot keys are bit-identical to one-at-a-time
derivation, cursor reuse reproduces fresh generators exactly, the
vectorised Philox words equal numpy's Philox stream by stream, and slot
streams reproduce numpy's Generator draws wherever they claim to."""

from __future__ import annotations

import numpy as np
import pytest

from abcsmc import RngKey, StreamCursor
from abcsmc import _ziggurat
from abcsmc.rng import SlotStreams, philox_words

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
    keys = RngKey(32).slot_keys(2000)
    rng = SlotStreams(philox_words(keys, 7))
    draws = (rng.standard_normal(), rng.random(), rng.standard_normal(2), rng.random(3))
    # about 1.5 % of normals need a second word; those slots are flagged
    assert 0.9 < rng.ok.mean() < 0.99
    for i in np.flatnonzero(rng.ok):
        g = np.random.Generator(np.random.Philox(key=keys[i]))
        assert g.standard_normal() == draws[0][i]
        assert g.random() == draws[1][i]
        assert np.array_equal(g.standard_normal(2), draws[2][i])
        assert np.array_equal(g.random(3), draws[3][i])


def test_slot_streams_refuse_to_overrun_their_words():
    rng = SlotStreams(np.zeros((4, 2), dtype=np.uint64))
    rng.random(2)
    with pytest.raises(ValueError):
        rng.standard_normal()


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


def test_ziggurat_tables_match_numpy():
    # feed chosen 64-bit words to numpy's own standard_normal through an
    # MT19937 whose state replays them, and check every strip's boundary:
    # rabs = KI - 1 is one word giving rabs * WI, rabs = KI reads more
    bitgen = np.random.MT19937(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    marker = 0x0BADCAFE

    def one_word_normal(word, wi):
        key = np.zeros(624, dtype=np.uint32)
        for j, half in enumerate((word >> 32, word & 0xFFFFFFFF, marker, 0, 0, 0)):
            key[j] = _untemper(half)
        state["state"]["key"], state["state"]["pos"] = key, 0
        bitgen.state = state
        x = gen.standard_normal()
        one_word = int(bitgen.random_raw()) == marker
        return one_word and x == (-1.0 if word >> 8 & 1 else 1.0) * (word >> 9) * wi

    for idx, (ki, wi) in enumerate(zip(_ziggurat.KI, _ziggurat.WI)):
        for sign in (0, 1):
            if ki > 0:
                assert one_word_normal((ki - 1) << 9 | sign << 8 | idx, wi)
            if ki < 2**52:
                assert not one_word_normal(ki << 9 | sign << 8 | idx, wi)


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        RngKey(0).child(-1)
    with pytest.raises(ValueError):
        RngKey(0).slot_keys(-3)
