"""Diagnostics: the duplicate-row grouping, duplicate-aggregated ESS and
the efficiency gain identity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc import ess_of_thetas, gain_factor
from abcsmc.diagnostics import distinct_and_ess, duplicate_groups

ACCEPT_PROB_GOLDEN = 0.009  # prior-predictive P(|z| <= 0.09), halfwidth 10


def _thetas(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


class TestDuplicateGroups:
    @pytest.mark.parametrize("p", [1, 2])
    def test_counts_match_unique_rows(self, p):
        rng = np.random.default_rng(p)
        base = rng.normal(size=(40, p))
        thetas = base[rng.integers(0, 40, size=300)]
        if p == 2:
            # rows that agree in one coordinate only are distinct
            thetas[:20, 0] = base[0, 0]
        groups = duplicate_groups(thetas)
        _, inverse, counts = np.unique(
            thetas, axis=0, return_inverse=True, return_counts=True
        )
        assert counts.max() > 1
        assert np.array_equal(np.bincount(groups), counts)
        assert np.array_equal(groups, inverse.ravel())
        assert distinct_and_ess(thetas) == (len(counts), ess_of_thetas(thetas))


class TestEss:
    def test_duplicates_pool_weight(self):
        # values (a, a, b): groups get weight (2/3, 1/3);
        # ess = 1 / (4/9 + 1/9) = 9/5
        ess = ess_of_thetas(_thetas([1.0, 1.0, 2.0]))
        assert ess == pytest.approx(9.0 / 5.0, rel=1e-12)

    def test_counts_2_1_1(self):
        ess = ess_of_thetas(_thetas([5.0, 5.0, 1.0, 3.0]))
        # group weights (2, 1, 1)/4 -> 16/6
        assert ess == pytest.approx(16.0 / 6.0, rel=1e-12)

    def test_all_copies_is_one(self):
        assert ess_of_thetas(_thetas([7.0] * 50)) == pytest.approx(1.0)

    def test_all_distinct_is_n(self):
        assert ess_of_thetas(_thetas(np.arange(100))) == pytest.approx(100.0)

    def test_bounded_by_group_count(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 10, size=200).astype(float)
        ess = ess_of_thetas(_thetas(vals))
        n_groups = len(np.unique(vals))
        assert 1.0 <= ess <= n_groups <= 200

    def test_explicit_weights(self):
        # one group of weight 3, one of weight 1 -> 16/10
        ess = ess_of_thetas(_thetas([0.0, 0.0, 1.0]), weights=np.array([1.0, 2.0, 1.0]))
        assert ess == pytest.approx(16.0 / 10.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ess_of_thetas(np.empty((0, 1)))

    @settings(max_examples=100, deadline=None)
    @given(
        vals=st.lists(st.integers(0, 5), min_size=1, max_size=40),
        scale=st.floats(0.1, 10.0),
    )
    def test_weight_rescaling_invariance(self, vals, scale):
        thetas = _thetas(vals)
        w = np.linspace(1.0, 2.0, len(vals))
        a = ess_of_thetas(thetas, weights=w)
        b = ess_of_thetas(thetas, weights=scale * w)
        assert a == pytest.approx(b, rel=1e-9)
        assert 1.0 - 1e-9 <= a <= len(np.unique(vals)) + 1e-9


class TestGainFactor:
    def test_rejection_baseline_is_one(self):
        # rejection itself: ess = p * total  ->  gain exactly 1
        assert gain_factor(10_000, 90.0, 0.009) == pytest.approx(1.0)

    def test_doubling_cost_halves_gain(self):
        g1 = gain_factor(1000, 50.0, 0.1)
        g2 = gain_factor(2000, 50.0, 0.1)
        assert g1 == pytest.approx(2 * g2)

    def test_headline_arithmetic(self):
        # 33285 effective draws at acceptance 0.009 from 2.3e6 simulations
        g = gain_factor(2_300_000, 33_285.0, ACCEPT_PROB_GOLDEN)
        assert g == pytest.approx(1.608, abs=0.002)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gain_factor(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            gain_factor(10, 1.0, 0.0)
        with pytest.raises(ValueError):
            gain_factor(10, 1.0, 1.5)
        with pytest.raises(ValueError):
            gain_factor(10, -1.0, 0.5)
