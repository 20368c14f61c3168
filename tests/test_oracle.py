"""Reference-oracle checks: frozen golden values, self-consistency, an
independent integration route that must agree with the closed forms, and
the oracle's own normal CDF pinned bit for bit to scipy's."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from abcsmc import oracle

# Golden values frozen from the oracle before any sampler was built; the
# cross-check tests below tie them to an independent quadrature route.
# Q3_GOLDEN is the exact inverse of the oracle's CDF table at 0.75.
Q3_GOLDEN = 0.15436356170682058
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
        # quantiles invert the trapezoid CDF table exactly; its round-off
        # leaves the median about 1e-14 off 0
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

    @pytest.mark.parametrize(
        "halfwidth, epsilon", [(0.1, 0.0), (10.0, 0.0), (10.0, 0.09), (100.0, 0.09)]
    )
    def test_quantile_inverts_the_cdf_table(self, halfwidth, epsilon):
        # the quantile is the exact root of the table's piecewise-linear CDF,
        # and within bisection's 1e-8 of the root bisection finds
        tab = oracle._table(halfwidth, epsilon)
        for p in (1e-9, 1e-6, 0.25, 0.5, 0.75, 1 - 1e-6, 1 - 1e-9):
            q = oracle.toy_posterior_quantile(p, halfwidth, epsilon)
            assert np.interp(q, tab.grid, tab.cdf) == pytest.approx(p, abs=1e-12)
            bisected = optimize.bisect(
                lambda x: np.interp(x, tab.grid, tab.cdf) - p, -halfwidth, halfwidth, xtol=1e-8
            )
            assert q == pytest.approx(bisected, abs=1e-8)

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

    def test_nan_epsilon_is_a_domain_error(self):
        with pytest.raises(ValueError, match="NaN"):
            oracle.toy_accept_prob(math.nan, 10.0)

    def test_infinite_epsilon_accepts_everything(self):
        # the limit of the closed form, without its inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle.toy_accept_prob(math.inf, 10.0) == 1.0
            assert oracle.toy_accept_prob(math.inf, 0.1) == 1.0


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestCephesNdtr:
    """``oracle._ndtr`` is Cephes' ndtr.c on Python floats; it must equal
    ``scipy.special.ndtr`` bit for bit, so that no gain digit moves."""

    @staticmethod
    def points() -> np.ndarray:
        rng = np.random.default_rng(20240611)
        return np.concatenate([
            rng.uniform(-40.0, 40.0, 60_000),
            rng.normal(0.0, 3.0, 30_000),
            rng.uniform(-1.5, 1.5, 10_000),  # erf branch and its edge at |a| = 1
            np.linspace(-12.0, 12.0, 4_001),  # erfc's P/Q to R/S switch at |a| = 8*sqrt(2)
            np.linspace(-39.0, -37.0, 2_001),  # subnormal results, then underflow to 0
            [0.0, -0.0, 1.0, -1.0, 8.0 * math.sqrt(2.0), 38.5, -38.5, -40.0,
             math.inf, -math.inf],
        ])

    def test_ndtr_is_scipys_bit_for_bit(self):
        x = self.points()
        assert len(x) >= 100_000
        ours = [oracle._ndtr(v) for v in x.tolist()]
        assert np.array_equal(_bits(ours), _bits(special.ndtr(x)))
        # every branch was reached: both signs of both erfc ranges, the erf
        # branch, underflow to exactly 0 and 1, and the subnormal range
        scaled = np.abs(x) / math.sqrt(2.0)
        assert np.any(scaled < math.sqrt(0.5))
        assert np.any((scaled >= 1.0) & (scaled < 8.0) & (x < 0))
        assert np.any((scaled >= 8.0) & (x < 0) & (special.ndtr(x) > 0))
        assert np.any(scaled * scaled > 7.09782712893383996843e2)
        assert np.count_nonzero(np.array(ours) == 0.0) > 1
        assert np.any((np.array(ours) > 0) & (np.array(ours) < np.finfo(float).tiny))

    def test_erf_and_erfc_are_scipys_bit_for_bit(self):
        # also the branches ndtr never takes: erf above 1, erfc below 1
        x = np.concatenate([np.linspace(-30.0, 30.0, 60_001), [0.0, -0.0, math.inf, -math.inf]])
        for ours, theirs in ((oracle._erf, special.erf), (oracle._erfc, special.erfc)):
            got = [ours(v) for v in x.tolist()]
            assert np.array_equal(_bits(got), _bits(theirs(x))), ours.__name__

    def test_nan_gives_nan(self):
        for f in (oracle._ndtr, oracle._erf, oracle._erfc):
            assert math.isnan(f(math.nan))

    def test_tolerance_likelihood_is_scipys_bit_for_bit(self):
        # the array path of the quadrature tables at a tolerance
        theta = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        reference = sum(
            special.ndtr((0.09 - theta) / s) - special.ndtr((-0.09 - theta) / s)
            for s in oracle.NOISE_SCALES
        )
        got = oracle._unnormalized_pdf(theta, 0.09)
        assert got.shape == theta.shape
        assert np.array_equal(_bits(got), _bits(reference))

    def test_accept_prob_equals_a_scipy_ndtr_reference(self, monkeypatch):
        # the closed form with scipy's ndtr in place of ours; the runner's
        # gain is computed from these values, so they must match exactly
        grid = [
            (float(eps), halfwidth)
            for eps in np.geomspace(1e-6, 50.0, 120)
            for halfwidth in (0.05, 0.1, 1.0, 2.5, 10.0, 37.0, 100.0)
        ]
        ours = [oracle.toy_accept_prob(eps, hw) for eps, hw in grid]
        monkeypatch.setattr(oracle, "_ndtr", lambda u: float(special.ndtr(u)))
        reference = [oracle.toy_accept_prob(eps, hw) for eps, hw in grid]
        assert np.array_equal(_bits(ours), _bits(reference))
        assert len(set(ours)) > 100
