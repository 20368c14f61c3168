"""Splittable-stream contracts: children are deterministic pure functions
of (seed, path), vectorized slot keys are bit-identical to one-at-a-time
derivation, and cursor reuse reproduces fresh generators exactly."""

from __future__ import annotations

import numpy as np
import pytest

from abcsmc import RngKey, StreamCursor

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


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        RngKey(0).child(-1)
    with pytest.raises(ValueError):
        RngKey(0).slot_keys(-3)
