"""Diagnostics: duplicate-aggregated ESS, the efficiency gain identity,
acceptance-probability estimation, and weighted functionals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc import (
    ParticleArray,
    RngKey,
    SimCounter,
    WeightedSample,
    ess_of_thetas,
    estimate_accept_prob,
    gain_factor,
    prior_predictive,
    toy_accept_prob,
    weighted_functional,
)

ACCEPT_PROB_GOLDEN = 0.009  # prior-predictive P(|z| <= 0.09), halfwidth 10


def _thetas(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


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


class TestEstimateAcceptProb:
    def test_matches_closed_form(self, toy):
        p_hat, se = estimate_accept_prob(toy, 0.09, 200_000, RngKey(40))
        p_true = toy_accept_prob(0.09, 10.0)
        assert p_true == pytest.approx(ACCEPT_PROB_GOLDEN, abs=1e-12)
        assert abs(p_hat - p_true) < 4 * se
        assert se == pytest.approx(np.sqrt(p_true * (1 - p_true) / 200_000), rel=0.2)

    def test_unbiased_over_replicates(self, toy):
        reps, n_ref = 100, 5000
        hats = np.array(
            [estimate_accept_prob(toy, 0.09, n_ref, RngKey(41).child(i))[0] for i in range(reps)]
        )
        p_true = toy_accept_prob(0.09, 10.0)
        se_mean = np.sqrt(p_true * (1 - p_true) / (n_ref * reps))
        assert abs(hats.mean() - p_true) < 4 * se_mean

    def test_certain_acceptance(self, toy):
        p_hat, se = estimate_accept_prob(toy, 1e6, 100, RngKey(42))
        assert p_hat == 1.0
        assert se == 0.0

    def test_zero_hits_rule_of_three(self, toy):
        p_hat, se = estimate_accept_prob(toy, 0.0, 100, RngKey(43))
        assert p_hat == 0.0
        assert se == pytest.approx(3.0 / 100)

    def test_hits_are_prior_predictive_slots_within_tolerance(self, toy):
        p_hat, _ = estimate_accept_prob(toy, 0.5, 2000, RngKey(45))
        dists = prior_predictive(toy, 2000, RngKey(45)).dists
        assert p_hat == np.count_nonzero(dists <= 0.5) / 2000

    def test_cost_booked_under_reference_phase(self, toy):
        counter = SimCounter()
        estimate_accept_prob(toy, 0.09, 500, RngKey(44), counter)
        assert counter.count("reference") == 500
        assert counter.total == 500  # nothing booked outside the reference phase

    def test_minimum_reference_size(self, toy):
        with pytest.raises(ValueError):
            estimate_accept_prob(toy, 0.09, 99, RngKey(0))


def _sample(values, weights=None):
    values = np.asarray(values, dtype=float)
    arr = ParticleArray(
        values.reshape(-1, 1), np.zeros((len(values), 1)), np.zeros(len(values))
    )
    if weights is None:
        return WeightedSample.equal(arr)
    return WeightedSample(arr, np.asarray(weights, dtype=float))


class TestWeightedFunctional:
    def test_mean(self):
        s = _sample([1.0, 2.0, 3.0], [1.0, 1.0, 2.0])
        assert weighted_functional(s, "mean") == pytest.approx(2.25)

    def test_median_lower_interpolation(self):
        # cumulative weights 0.25, 0.50, 1.00: the 0.5 level is first
        # reached at the second value
        s = _sample([10.0, 20.0, 30.0], [0.25, 0.25, 0.5])
        assert weighted_functional(s, "median") == 20.0

    def test_quartiles_on_equal_weights(self):
        s = _sample(np.arange(1.0, 5.0))  # 1 2 3 4
        assert weighted_functional(s, "q1") == 1.0
        assert weighted_functional(s, "median") == 2.0
        assert weighted_functional(s, "q3") == 3.0

    def test_order_independence(self):
        a = _sample([3.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        b = _sample([1.0, 2.0, 3.0], [0.5, 0.3, 0.2])
        for which in ("mean", "median", "q1", "q3"):
            assert weighted_functional(a, which) == weighted_functional(b, which)

    def test_unknown_functional(self):
        with pytest.raises(ValueError):
            weighted_functional(_sample([1.0]), "mode")

    def test_weight_validation(self):
        arr = ParticleArray(_thetas([1.0, 2.0]), np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            WeightedSample(arr, np.array([0.5]))
        with pytest.raises(ValueError):
            WeightedSample(arr, np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            WeightedSample(arr, np.array([0.0, 0.0]))
