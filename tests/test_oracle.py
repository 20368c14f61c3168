"""Reference-oracle checks: frozen golden values, self-consistency, and an
independent integration route that must agree with the closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, stats

from abcsmc import oracle

# Golden values frozen from the oracle before any sampler was built; the
# cross-check tests below tie them to an independent quadrature route.
Q3_GOLDEN = 0.15436355955898762
Q3_EPS_009 = 0.16907  # ABC posterior at tolerance 0.09, halfwidth 10
VARIANCE_GOLDEN = 0.505
ACCEPT_PROB_GOLDEN = 0.009  # tolerance 0.09, prior halfwidth 10
ACCEPT_PROB_NARROW_GOLDEN = 0.3158563921222982  # halfwidth 0.1


class TestPosteriorDensity:
    def test_integrates_to_one(self):
        grid = np.linspace(-10.0, 10.0, 100_000)
        total = np.trapezoid(oracle.toy_posterior_pdf(grid), grid)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_even_function(self):
        pts = np.array([0.0, 0.05, 0.3, 1.7, 9.9])
        assert np.allclose(
            oracle.toy_posterior_pdf(pts), oracle.toy_posterior_pdf(-pts)
        )

    def test_zero_outside_support(self):
        assert oracle.toy_posterior_pdf(10.5) == 0.0
        assert oracle.toy_posterior_pdf(-11.0) == 0.0

    def test_narrow_component_dominates_at_origin(self):
        # the density is a spike of width ~0.1 on a broad base
        assert oracle.toy_posterior_pdf(0.0) > 5 * oracle.toy_posterior_pdf(0.3)

    def test_cdf_matches_quantile_inverse(self):
        assert oracle.toy_posterior_cdf(Q3_GOLDEN) == pytest.approx(0.75, abs=1e-7)
        assert oracle.toy_posterior_cdf(-10.0) == 0.0
        assert oracle.toy_posterior_cdf(10.0) == 1.0


class TestFunctionals:
    def test_mean_is_zero(self):
        assert oracle.toy_posterior_functional("mean") == pytest.approx(0.0, abs=1e-9)

    def test_median_is_zero(self):
        # quantiles are bisections to 1e-8
        assert oracle.toy_posterior_functional("median") == pytest.approx(0.0, abs=2e-8)

    def test_quartiles_frozen_and_symmetric(self):
        q3 = oracle.toy_posterior_functional("q3")
        q1 = oracle.toy_posterior_functional("q1")
        assert q3 == pytest.approx(Q3_GOLDEN, abs=1e-10)
        assert q1 == pytest.approx(-q3, abs=2e-8)

    def test_variance_frozen(self):
        # 0.5*1 + 0.5*0.01 with truncation beyond +-10 entirely negligible
        assert oracle.toy_posterior_functional("variance") == pytest.approx(
            VARIANCE_GOLDEN, abs=1e-9
        )

    def test_quantile_against_independent_numeric_inversion(self):
        # independent route: normalize by scipy.quad and invert by brentq
        const, _ = integrate.quad(
            lambda t: stats.norm.pdf(t) + 10 * stats.norm.pdf(10 * t), -10, 10
        )

        def cdf(x):
            val, _ = integrate.quad(
                lambda t: (stats.norm.pdf(t) + 10 * stats.norm.pdf(10 * t)) / const,
                -10,
                x,
                limit=200,
            )
            return val

        from scipy.optimize import brentq

        q3_indep = brentq(lambda x: cdf(x) - 0.75, 0.0, 1.0, xtol=1e-12)
        assert q3_indep == pytest.approx(Q3_GOLDEN, abs=1e-6)

    def test_abc_posterior_quartiles_at_tolerance(self):
        # independent route: the ABC posterior given |z| <= 0.09 is the
        # prior times the mixture's hit probability, normalized by quad
        def hit_prob(t):
            return sum(
                stats.norm.cdf((0.09 - t) / s) - stats.norm.cdf((-0.09 - t) / s)
                for s in (1.0, 0.1)
            )

        const, _ = integrate.quad(hit_prob, -10, 10, limit=200)

        def cdf(x):
            return integrate.quad(hit_prob, -10, x, limit=200)[0] / const

        from scipy.optimize import brentq

        q3_indep = brentq(lambda x: cdf(x) - 0.75, 0.0, 1.0, xtol=1e-12)
        q3 = oracle.toy_posterior_quantile(0.75, epsilon=0.09)
        q1 = oracle.toy_posterior_quantile(0.25, epsilon=0.09)
        assert q3 == pytest.approx(q3_indep, abs=1e-6)
        assert q3 == pytest.approx(Q3_EPS_009, abs=1e-5)
        assert q1 == pytest.approx(-q3, abs=2e-8)
        # the tolerance widens the posterior; epsilon 0 keeps the exact one
        assert q3 > Q3_GOLDEN
        exact = oracle.toy_posterior_quantile(0.75, epsilon=0.0)
        assert exact == oracle.toy_posterior_quantile(0.75)
        assert exact == pytest.approx(Q3_GOLDEN, abs=1e-10)

    def test_unknown_functional_rejected(self):
        with pytest.raises(ValueError):
            oracle.toy_posterior_functional("mode")

    def test_quantile_level_domain(self):
        with pytest.raises(ValueError):
            oracle.toy_posterior_quantile(0.0)
        with pytest.raises(ValueError):
            oracle.toy_posterior_quantile(1.0)


class TestAcceptProbability:
    def test_frozen_golden(self):
        assert oracle.toy_accept_prob(0.09, 10.0) == pytest.approx(
            ACCEPT_PROB_GOLDEN, abs=1e-12
        )

    def test_against_independent_quadrature(self):
        # same quantity via numeric integration of the mixture CDF
        def hit_prob(theta):
            return 0.5 * (
                stats.norm.cdf(0.09 - theta)
                - stats.norm.cdf(-0.09 - theta)
                + stats.norm.cdf((0.09 - theta) / 0.1)
                - stats.norm.cdf((-0.09 - theta) / 0.1)
            )

        val, err = integrate.quad(hit_prob, -10, 10, limit=200)
        assert oracle.toy_accept_prob(0.09, 10.0) == pytest.approx(
            val / 20.0, abs=max(1e-12, 3 * err)
        )

    def test_narrow_prior_golden(self):
        assert oracle.toy_accept_prob(0.09, 0.1) == pytest.approx(
            ACCEPT_PROB_NARROW_GOLDEN, abs=1e-12
        )

    def test_edge_cases_and_monotonicity(self):
        assert oracle.toy_accept_prob(0.0, 10.0) == 0.0
        assert oracle.toy_accept_prob(1e6, 10.0) == pytest.approx(1.0, abs=1e-12)
        eps = np.linspace(0.01, 5.0, 40)
        vals = [oracle.toy_accept_prob(e, 10.0) for e in eps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oracle.toy_accept_prob(-0.1, 10.0)
        with pytest.raises(ValueError):
            oracle.toy_accept_prob(0.1, 0.0)
        with pytest.raises(ValueError):
            oracle.toy_accept_prob(0.1, math.inf)
