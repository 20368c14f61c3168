"""Residual resampling: deterministic copy floors, the leading-copy
layout guarantee, unbiasedness, and input validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcsmc import RngKey, residual_resample


def _assignment(weights, target, seed=0):
    return residual_resample(
        np.asarray(weights, dtype=float), target, RngKey(seed).generator()
    )


class TestDeterministicCases:
    def test_equal_weights_identity(self):
        a = _assignment([0.25] * 4, 4)
        assert a.tolist() == [0, 1, 2, 3]
        assert np.bincount(a, minlength=4).tolist() == [1, 1, 1, 1]

    def test_float_thirds_snap_to_integers(self):
        # 3 * (1/3) is 0.9999999999999999 in floats; the resampler must still
        # treat the expected counts as exactly one each
        a = _assignment(np.full(3, 1.0 / 3.0), 3)
        assert np.bincount(a, minlength=3).tolist() == [1, 1, 1]
        assert a.tolist() == [0, 1, 2]

    def test_two_sources_into_four_slots(self):
        assert _assignment([0.5, 0.5], 4).tolist() == [0, 1, 0, 1]

    def test_exact_integer_expectations(self):
        a = _assignment([0.5, 0.3, 0.2], 10)
        assert np.bincount(a, minlength=3).tolist() == [5, 3, 2]
        assert a.tolist() == [0, 1, 2, 0, 0, 0, 0, 1, 1, 2]

    def test_reproducible(self):
        a = _assignment([0.6, 0.25, 0.15], 7, seed=42)
        b = _assignment([0.6, 0.25, 0.15], 7, seed=42)
        assert np.array_equal(a, b)


class _RecordingRng:
    """A Generator that keeps the residual draws it hands out."""

    def __init__(self, seed):
        self.g = RngKey(seed).generator()
        self.draws = np.empty(0, dtype=np.int64)

    def choice(self, *args, **kwargs):
        self.draws = self.g.choice(*args, **kwargs)
        return self.draws


def _layout(deterministic, draws):
    """The documented slot layout, with its tail built by the loop the
    vectorised form replaced: a residual draw that gives a source with
    no deterministic copy its first copy leaves the tail."""
    m = len(deterministic)
    survivors = np.flatnonzero(deterministic + np.bincount(draws, minlength=m) >= 1)
    extras = np.repeat(np.arange(m), np.maximum(deterministic - 1, 0))
    debt = deterministic == 0
    tail = []
    for i in draws:
        if debt[i]:
            debt[i] = False
        else:
            tail.append(i)
    return np.concatenate([survivors, extras, np.array(tail, dtype=np.int64)])


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12),
    extra=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
# residual draws [2, 0, 2]: source 2, with no deterministic copy, is drawn
# twice around another draw, so the layout tells its first draw from its
# last, which the random examples alone missed in 1 of 12 seeds
@example(raw=[5.0, 1.0, 1.0, 1.0], extra=2, seed=20)
def test_plan_properties(raw, extra, seed):
    check_plan(raw, extra, seed)


def check_plan(raw, extra, seed):
    """The plan's copy bounds and its documented slot layout, for one
    example; ``tests/test_mutants.py`` runs it on a broken resampler."""
    weights = np.array(raw) / np.sum(raw)
    n = len(weights) + extra
    rng = _RecordingRng(seed)
    assignment = residual_resample(weights, n, rng)
    counts = np.bincount(assignment, minlength=len(weights))

    assert assignment.shape == (n,)
    assert not assignment.flags.writeable
    assert counts.sum() == n

    # every count is its floor or one more (residual draws add at most
    # one per source only in aggregate; bound is floor + n_residual)
    expected = weights * n
    floors = np.floor(expected + 1e-9).astype(int)
    n_residual = n - floors.sum()
    assert np.all(counts >= floors)
    assert np.all(counts <= floors + n_residual)

    # the leading block is one copy of each surviving source, in index order
    survivors = np.flatnonzero(counts >= 1)
    assert np.array_equal(assignment[: len(survivors)], survivors)
    deterministic = counts - np.bincount(rng.draws, minlength=len(weights))
    assert np.array_equal(assignment, _layout(deterministic, rng.draws))


def test_unbiasedness():
    weights = np.array([0.55, 0.3, 0.15])
    n, reps = 10, 10_000
    g = RngKey(99).generator()
    totals = np.zeros(3)
    for _ in range(reps):
        totals += np.bincount(residual_resample(weights, n, g), minlength=3)
    means = totals / reps
    # only the single residual slot is random: counts are floor + Bernoulli,
    # so the se of each mean is at most 0.5 / sqrt(reps) = 0.005
    assert np.allclose(means, weights * n, atol=3 * 0.005)


class TestValidation:
    def test_negative_weight(self):
        with pytest.raises(ValueError):
            _assignment([0.5, -0.1, 0.6], 3)

    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            _assignment([0.0, 0.0], 2)

    def test_more_sources_than_slots(self):
        with pytest.raises(ValueError, match="slots"):
            _assignment([0.25] * 4, 2)

    def test_no_sources(self):
        with pytest.raises(ValueError):
            _assignment([], 3)

    def test_zero_target(self):
        with pytest.raises(ValueError):
            _assignment([1.0], 0)
