"""Model contract: validation, the toy simulator's law, the scaled
Euclidean distance's metric properties, and exact simulation accounting."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from abcsmc import (
    ModelSpec,
    ParticleArray,
    RngKey,
    SimCounter,
    SimulationError,
    distance,
    prior_predictive,
    prior_sample,
    simulate,
    toy_model,
)
from abcsmc.adaptive import _prior_stage
from abcsmc.model import simulate_batch
from abcsmc.rng import SlotStreams, philox_words
from conftest import BumpLog, assert_ks_pass, one_word


@pytest.fixture(scope="module")
def z_at_zero(toy):
    g = RngKey(3).generator()
    return np.array([simulate(toy, np.zeros(1), g)[0] for _ in range(1_000_000)])


def _model_2d(observed=(0.0, 0.0), scales=(2.0, 1.0)):
    return ModelSpec(
        param_dim=1,
        prior_box=[(-1.0, 1.0)],
        summary_dim=2,
        observed=list(observed),
        simulator=lambda theta, rng: np.array([theta[0], theta[0]]),
        distance_scales=list(scales),
    )


class TestModelSpecValidation:
    def test_rejects_degenerate_prior_interval(self):
        with pytest.raises(ValueError):
            ModelSpec(
                param_dim=1,
                prior_box=[(0.0, 0.0)],
                summary_dim=1,
                observed=[0.0],
                simulator=lambda t, r: np.array([0.0]),
            )

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            ModelSpec(
                param_dim=1,
                prior_box=[(1.0, -1.0)],
                summary_dim=1,
                observed=[0.0],
                simulator=lambda t, r: np.array([0.0]),
            )

    @pytest.mark.parametrize(
        "box", [(-1e308, 1e308), (-np.inf, np.inf)], ids=["overflow", "infinite"]
    )
    def test_rejects_infinite_box_width(self, box):
        # prior_sample would draw inf or NaN parameters from such a box, on
        # which Generator.uniform raises OverflowError
        with pytest.raises(ValueError, match="finite width"):
            ModelSpec(
                param_dim=1,
                prior_box=[box],
                summary_dim=1,
                observed=[0.0],
                simulator=lambda t, r: np.array([0.0]),
            )

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            _model_2d(scales=(1.0, 0.0))

    def test_rejects_dimension_mismatches(self):
        with pytest.raises(ValueError):
            ModelSpec(
                param_dim=0,
                prior_box=[],
                summary_dim=1,
                observed=[0.0],
                simulator=lambda t, r: np.array([0.0]),
            )
        with pytest.raises(ValueError):
            _model_2d(observed=(0.0,))

    def test_in_box(self, toy):
        assert toy.in_box(np.array([9.99]))
        assert toy.in_box(np.array([-10.0]))
        assert not toy.in_box(np.array([10.01]))
        assert not toy.in_box(np.array([-11.0]))


class TestPriorSample:
    def test_within_box_fixed_seed(self, toy):
        g = RngKey(1).generator()
        for _ in range(100):
            th = prior_sample(toy, g)
            assert th.shape == (1,)
            assert -10.0 <= th[0] <= 10.0

    @pytest.mark.parametrize(
        "model",
        [
            toy_model(0.5),
            toy_model(100.0),
            ModelSpec(
                param_dim=2,
                prior_box=[(-3.0, 7.0), (0.25, 0.5)],
                summary_dim=1,
                observed=[0.0],
                simulator=lambda t, r: t[:1],
            ),
        ],
        ids=["toy-0.5", "toy-100", "asymmetric-2d"],
    )
    def test_equals_generator_uniform(self, model):
        lo, hi = model.prior_box[:, 0], model.prior_box[:, 1]
        for key in (RngKey(6), RngKey(7).child(3)):
            g, ref = key.generator(), key.generator()
            for _ in range(200):
                assert prior_sample(model, g).tobytes() == ref.uniform(lo, hi).tobytes()
            draws = prior_sample(model, g, size=5_000)
            assert draws.shape == (5_000, model.param_dim)
            assert draws.tobytes() == ref.uniform(lo, hi, size=draws.shape).tobytes()

    def test_mean_of_many_draws(self, toy):
        # CLT: 3 * (20/sqrt(12)) / sqrt(1e6) = 0.0173 < 0.02
        draws = prior_sample(toy, RngKey(2).generator(), size=1_000_000)
        assert abs(draws.mean()) < 0.02


class TestToySimulator:
    def test_variance_matches_mixture(self, z_at_zero):
        # 0.5 * 1 + 0.5 * 0.01 = 0.505
        assert z_at_zero.var() == pytest.approx(0.505, abs=0.01)

    def test_location_family(self, toy):
        g = RngKey(4).generator()
        zs = np.array(
            [simulate(toy, np.array([5.0]), g)[0] for _ in range(200_000)]
        )
        assert zs.mean() == pytest.approx(5.0, abs=0.01)

    def test_small_ball_probability(self, z_at_zero):
        # P(|z| <= 0.09 | theta=0) for the half/half mixture of sd 1 and 0.1
        expected = 0.5 * (2 * stats.norm.cdf(0.09) - 1) + 0.5 * (
            2 * stats.norm.cdf(0.9) - 1
        )
        frac = np.mean(np.abs(z_at_zero) <= 0.09)
        assert frac == pytest.approx(expected, abs=0.002)

    def test_ks_against_mixture_cdf(self, toy):
        theta = 1.3
        g = RngKey(5).generator()
        zs = np.array(
            [simulate(toy, np.array([theta]), g)[0] for _ in range(100_000)]
        )

        def cdf(x):
            return 0.5 * stats.norm.cdf(x - theta) + 0.5 * stats.norm.cdf(
                10.0 * (x - theta)
            )

        p = stats.kstest(zs, cdf).pvalue
        assert p >= 0.001

    @staticmethod
    def _block_draws(toy, thetas, key):
        """Row i simulated on stream key.child(i), all rows in one block;
        also whether each slot's normal left the one-word path."""
        keys = key.slot_keys(len(thetas))
        words = philox_words(keys, toy.draws_per_slot)
        zs = simulate_batch(toy, thetas, SlotStreams(words, keys))
        # the toy draws a uniform, then its normal
        return zs, ~one_word(words[:, 1])

    def test_batch_simulator_equals_scalar_simulator(self, toy):
        thetas = np.linspace(-10.0, 10.0, 2000)[:, None]
        zs, slow = self._block_draws(toy, thetas, RngKey(12))
        assert 0 < np.count_nonzero(slow) < 100
        for i in range(2000):
            g = RngKey(12).child(i).generator()
            assert np.array_equal(zs[i], simulate(toy, thetas[i], g))

    def test_batch_ks_against_mixture_cdf(self, toy):
        # 100 000 block draws, slot i on stream RngKey(5).child(i)
        theta = 1.3
        zs, _ = self._block_draws(toy, np.full((100_000, 1), theta), RngKey(5))

        def cdf(x):
            return 0.5 * stats.norm.cdf(x - theta) + 0.5 * stats.norm.cdf(
                10.0 * (x - theta)
            )

        p = stats.kstest(zs[:, 0], cdf).pvalue
        assert p >= 0.001

    def test_toy_model_metadata(self, toy):
        assert toy.name == "toy"
        assert toy_model(0.5).prior_box[0][0] == -0.5


class TestDistance:
    def test_zero_iff_equal_to_observed(self, toy):
        assert distance(toy, np.array([0.0])) == 0.0
        assert distance(toy, np.array([1e-300])) > 0.0

    def test_absolute_value_in_one_dimension(self, toy):
        assert distance(toy, np.array([0.09])) == 0.09
        assert distance(toy, np.array([-0.09])) == 0.09

    def test_scaled_euclidean_example(self):
        model = _model_2d(observed=(0.0, 0.0), scales=(2.0, 1.0))
        assert distance(model, np.array([2.0, 1.0])) == math.sqrt(2.0)

    def test_symmetry(self):
        a = np.array([0.3, -1.2])
        b = np.array([-0.7, 0.4])
        d_ab = distance(_model_2d(observed=a), b)
        d_ba = distance(_model_2d(observed=b), a)
        assert d_ab == pytest.approx(d_ba, rel=1e-15)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y, z = rng.normal(size=(3, 2))
            d = lambda u, v: distance(_model_2d(observed=u), v)  # noqa: E731
            assert d(x, z) <= d(x, y) + d(y, z) + 1e-12


class TestSimulateContract:
    def test_counter_bumps_exactly_once_per_call(self, toy):
        counter = SimCounter()
        g = RngKey(6).generator()
        for i in range(25):
            simulate(toy, np.zeros(1), g, counter, "phase-a")
        simulate(toy, np.zeros(1), g, counter, "phase-b")
        assert counter.count("phase-a") == 25
        assert counter.count("phase-b") == 1
        assert counter.total == 26
        assert counter.total == counter.count("phase-a") + counter.count("phase-b")

    def test_failure_wrapped_and_aborts(self):
        def bad(theta, rng):
            raise RuntimeError("backend exploded")

        model = ModelSpec(
            param_dim=1,
            prior_box=[(-1.0, 1.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=bad,
        )
        counter = SimCounter()
        with pytest.raises(SimulationError) as err:
            simulate(model, np.array([0.5]), RngKey(0).generator(), counter)
        assert isinstance(err.value.__cause__, RuntimeError)
        assert err.value.theta is not None
        assert counter.total == 0  # failed simulations are not counted

    @pytest.mark.parametrize(
        "summary_dim, output",
        [(2, np.array([1.0])), (1, 1.0), (1, np.float64(1.0))],
        ids=["short-vector", "float", "np.float64"],
    )
    def test_wrong_output_length_rejected(self, summary_dim, output):
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-1.0, 1.0)],
            summary_dim=summary_dim,
            observed=[0.0] * summary_dim,
            simulator=lambda t, r: output,
        )
        counter = SimCounter()
        with pytest.raises(SimulationError):
            simulate(model, np.zeros(1), RngKey(0).generator(), counter)
        assert counter.total == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("summary_dim", [1, 2])
    def test_non_finite_summary_rejected(self, bad, summary_dim):
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-1.0, 1.0)],
            summary_dim=summary_dim,
            observed=[0.0] * summary_dim,
            simulator=lambda t, r: np.array([0.5] * (summary_dim - 1) + [bad]),
        )
        counter = SimCounter()
        with pytest.raises(SimulationError, match="non-finite") as err:
            simulate(model, np.array([0.25]), RngKey(0).generator(), counter)
        assert err.value.theta[0] == 0.25
        assert counter.total == 0


class TestSimulateBatchContract:
    def _model(self, batch, summary_dim=1):
        return ModelSpec(
            param_dim=1,
            prior_box=[(-1.0, 1.0)],
            summary_dim=summary_dim,
            observed=[0.0] * summary_dim,
            simulator=lambda t, r: np.zeros(summary_dim),
            simulator_batch=batch,
            draws_per_slot=1,
        )

    @staticmethod
    def _streams(m):
        return SlotStreams(np.zeros((m, 1), dtype=np.uint64))

    def test_counter_bumps_once_by_the_row_count(self, toy):
        counter = BumpLog()
        thetas = np.linspace(-1.0, 1.0, 300)[:, None]
        keys = RngKey(13).slot_keys(300)
        rng = SlotStreams(philox_words(keys, 2), keys)
        zs = simulate_batch(toy, thetas, rng, counter, "phase-a")
        assert zs.shape == (300, 1)
        assert counter.log == [("phase-a", 300)]

    @pytest.mark.parametrize(
        "output",
        [
            lambda t, rng: np.where(t > 0, math.nan, t),
            lambda t, rng: np.where(t > 0, math.inf, t),
            lambda t, rng: np.where(t > 0, -math.inf, t),
            lambda t, rng: t[:, 0],
            lambda t, rng: t[:-1],
            lambda t, rng: np.hstack([t, t]),
        ],
        ids=["nan", "inf", "-inf", "flat", "short", "wide"],
    )
    def test_bad_block_rejected_before_counting(self, output):
        counter = SimCounter()
        thetas = np.linspace(-1.0, 1.0, 6)[:, None]
        with pytest.raises(SimulationError):
            simulate_batch(self._model(output), thetas, self._streams(6), counter)
        assert counter.total == 0

    def test_failure_wrapped(self):
        def bad(thetas, u):
            raise RuntimeError("backend exploded")

        with pytest.raises(SimulationError) as err:
            simulate_batch(self._model(bad), np.zeros((3, 1)), self._streams(3))
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_draw_count_validated(self):
        with pytest.raises(ValueError):
            dataclasses.replace(toy_model(), draws_per_slot=-1)


class TestPriorPredictive:
    @pytest.mark.parametrize(
        "draw", [prior_predictive, _prior_stage], ids=["per-slot", "block"]
    )
    def test_slot_i_draws_from_child_stream_i(self, toy, draw):
        # the slot layout every prior-predictive caller relies on
        key = RngKey(11)
        counter = SimCounter()
        arr = draw(toy, 64, key, counter, "prior-predictive")
        assert counter.count("prior-predictive") == 64
        for i in range(64):
            g = key.child(i).generator()
            theta = prior_sample(toy, g)
            z = simulate(toy, theta, g)
            assert np.array_equal(arr.thetas[i], theta)
            assert np.array_equal(arr.zs[i], z)
            assert arr.dists[i] == distance(toy, z)


class TestParticleArray:
    def test_sort_take_and_distinct(self):
        thetas = np.array([[1.0], [0.0], [1.0]])
        zs = np.array([[0.3], [0.1], [0.3]])
        arr = ParticleArray(thetas, zs, np.array([0.3, 0.1, 0.3]))
        srt = arr.sorted_by_dist()
        assert srt.dists.tolist() == [0.1, 0.3, 0.3]
        assert srt.thetas[0, 0] == 0.0
        assert arr.distinct_count() == 2
        sub = arr.take(np.array([0, 2]))
        assert len(sub) == 2
        p = arr.particle(1)
        assert p.dist == 0.1

    def test_empty(self):
        arr = ParticleArray(np.empty((0, 2)), np.empty((0, 3)), np.empty(0))
        assert len(arr) == 0
        assert len(arr.sorted_by_dist()) == 0
        assert arr.take(np.arange(0)).thetas.shape == (0, 2)

    def test_toy_distribution_ks(self, toy):
        # end-to-end check of prior_sample + simulate against the
        # prior-predictive law via a direct mixture sampler
        g = RngKey(9).generator()
        zs = []
        for _ in range(50_000):
            th = prior_sample(toy, g)
            zs.append(simulate(toy, th, g)[0])
        ref_rng = np.random.default_rng(10)
        th_ref = ref_rng.uniform(-10, 10, size=50_000)
        sd = np.where(ref_rng.random(50_000) < 0.5, 1.0, 0.1)
        z_ref = th_ref + sd * ref_rng.standard_normal(50_000)
        assert_ks_pass(np.array(zs), z_ref)
