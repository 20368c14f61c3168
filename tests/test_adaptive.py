"""Self-calibrated SMC: initialization loop, the alpha/rho calibration
walk, single iterations, and the assembled pipeline with its exact
simulation budget, on the toy model and on a two-parameter model.  Both
models have a batch simulator, so their kernel moves take the block
path; the same model without it (``scalar_only``) draws slot by slot,
and the two give identical results."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from abcsmc import (
    BudgetExceededError,
    CalibrationOutcome,
    DegenerateArrayError,
    ModelSpec,
    ParticleArray,
    RngKey,
    SimCounter,
    SimulationError,
    abc_reject,
    calibrate_alpha,
    distance,
    init_stage,
    naive_smc,
    prior_predictive,
    proposal_factor,
    proposal_scale,
    residual_resample,
    run_self_calibrated,
    simulate,
    smc_iteration,
    toy_model,
)
from abcsmc import adaptive
from abcsmc.adaptive import _draw_proposal, _propose, _stage_streams
from abcsmc.rng import StreamCursor, philox_words
from conftest import TOY_2D, BumpLog, assert_ks_pass, one_word, scalar_only

GRID = 100


@pytest.fixture(scope="module")
def init_500(toy):
    counter = SimCounter()
    res = init_stage(toy, 500, 0.09, RngKey(50), counter=counter)
    return res, counter


@pytest.fixture(scope="module")
def calibration(toy, init_500):
    res, _ = init_500
    srt = res.array
    sigma = proposal_scale(srt.thetas)
    counter = SimCounter()
    cal = calibrate_alpha(srt, sigma, toy, RngKey(55), counter)
    return res, sigma, cal, counter


def _one_step(model, init_500):
    res, _ = init_500
    sigma = proposal_scale(res.array.thetas)
    counter = SimCounter()
    out, record = smc_iteration(
        res.array, sigma, model, RngKey(57), t=1, counter=counter
    )
    return res, sigma, out, record, counter


@pytest.fixture(scope="module")
def one_step(toy, init_500):
    return _one_step(toy, init_500)


@pytest.fixture(scope="module")
def one_step_scalar(toy, init_500):
    return _one_step(scalar_only(toy), init_500)


@pytest.fixture(scope="module")
def default_run(toy):
    counter = SimCounter()
    final, trace = run_self_calibrated(toy, 2000, 0.09, RngKey(60), counter=counter)
    return final, trace, counter


class TestInitStage:
    def test_at_least_two_batches(self, init_500):
        res, _ = init_500
        assert res.batches_used >= 2

    def test_array_is_best_n_sorted(self, init_500):
        res, _ = init_500
        assert len(res.array) == 500
        d = res.array.dists
        assert np.all(np.diff(d) >= 0)
        assert res.epsilon0 == d[-1]

    def test_array_is_best_n_of_whole_pool(self, toy, init_500):
        # keeping only the best n per batch must equal one stable sort of
        # every batch simulated, bit for bit
        res, _ = init_500
        batches = [
            prior_predictive(toy, 500, RngKey(50).child(k))
            for k in range(1, res.batches_used + 1)
        ]
        pool = ParticleArray(
            np.concatenate([b.thetas for b in batches]),
            np.concatenate([b.zs for b in batches]),
            np.concatenate([b.dists for b in batches]),
        ).sorted_by_dist().take(np.arange(500))
        assert np.array_equal(res.array.thetas, pool.thetas)
        assert np.array_equal(res.array.zs, pool.zs)
        assert np.array_equal(res.array.dists, pool.dists)

    def test_simulation_accounting(self, init_500):
        res, counter = init_500
        assert counter.count("init") == res.batches_used * 500
        assert counter.total == res.batches_used * 500

    def test_not_terminal_for_hard_target(self, init_500):
        res, _ = init_500
        assert not res.terminal
        assert res.epsilon0 > 0.09

    def test_variance_shrink_exit(self, toy):
        # a practically unreachable target forces the variance rule to
        # end the loop
        res = init_stage(toy, 300, 1e-9, RngKey(51))
        assert not res.terminal
        assert res.v_final < 0.5 * res.v_prior
        assert res.v_prior > 0

    def test_terminal_for_loose_target(self, toy):
        res = init_stage(toy, 300, 100.0, RngKey(52))
        assert res.terminal
        assert res.batches_used == 2
        assert res.epsilon0 < 100.0

    def test_budget_exceeded_carries_partial(self, monkeypatch):
        # summaries that ignore theta keep the best n spread over the whole
        # prior, so the variance never halves and the cap ends the loop
        monkeypatch.setattr(adaptive, "MAX_INIT_BATCHES", 4)
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: np.array([r.standard_normal()]),
        )
        with pytest.raises(BudgetExceededError) as err:
            init_stage(model, 100, 1e-12, RngKey(53))
        partial = err.value.partial
        assert partial.batches_used == 4
        assert len(partial.array) == 100
        assert not partial.terminal

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_deficient_first_batch_is_degenerate(self, seed):
        # two particles cannot span a two-dimensional parameter space; on
        # some streams round-off leaves a tiny positive determinant anyway
        model = ModelSpec(
            param_dim=2,
            prior_box=[(-1.0, 1.0), (-1.0, 1.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: np.array([t[0]]),
        )
        with pytest.raises(DegenerateArrayError):
            init_stage(model, 2, 0.1, RngKey(seed))

    def test_constant_distance_is_degenerate(self):
        # one distance value cannot rank particles: raise after the first
        # batch instead of spinning to the batch cap
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: np.array([1.0]),
        )
        counter = SimCounter()
        with pytest.raises(DegenerateArrayError, match="distance"):
            init_stage(model, 100, 0.09, RngKey(54), counter=counter)
        assert counter.total == 100

    def test_constant_distance_below_target_is_terminal(self):
        # every prior draw already meets the target: the prior sample is
        # the ABC posterior, returned after the usual two batches
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: np.array([0.05]),
        )
        counter = SimCounter()
        res = init_stage(model, 100, 0.09, RngKey(54), counter=counter)
        assert res.terminal
        assert res.epsilon0 == pytest.approx(0.05)
        assert res.batches_used == 2
        assert counter.total == 200

    def test_tied_distances_still_rank(self):
        # rounded summaries tie often but are not constant
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: np.array([np.round(t[0] + r.standard_normal())]),
        )
        res = init_stage(model, 200, 0.09, RngKey(54))
        assert len(np.unique(res.array.dists)) < 200
        assert res.batches_used >= 2
        assert len(res.array) == 200

    @pytest.mark.parametrize("model", [toy_model(10.0), TOY_2D], ids=["toy", "toy-2d"])
    def test_block_path_equals_per_slot_path(self, model):
        n = 1000
        block_counter, slot_counter = BumpLog(), SimCounter()
        res = init_stage(model, n, 0.09, RngKey(59), counter=block_counter)
        res_s = init_stage(
            scalar_only(model), n, 0.09, RngKey(59), counter=slot_counter
        )
        assert np.array_equal(res.array.thetas, res_s.array.thetas)
        assert np.array_equal(res.array.zs, res_s.array.zs)
        assert np.array_equal(res.array.dists, res_s.array.dists)
        for f in ("epsilon0", "batches_used", "v_prior", "v_final", "terminal"):
            assert getattr(res, f) == getattr(res_s, f)
        assert block_counter.snapshot() == slot_counter.snapshot()
        # one block bump per batch, normals off the one-word path included
        assert block_counter.log == [("init", n)] * res.batches_used

    def test_bad_prior_block_aborts_before_counting(self):
        # a NaN in the first batch raises before any draw is booked
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: np.where(t > 0, np.nan, t),
            simulator_batch=lambda t, rng: np.where(t > 0, np.nan, t),
        )
        counter = SimCounter()
        with pytest.raises(SimulationError, match="non-finite"):
            init_stage(model, 100, 0.09, RngKey(54), counter=counter)
        assert counter.total == 0

    def test_validation(self, toy):
        with pytest.raises(ValueError):
            init_stage(toy, 1, 0.1, RngKey(0))
        with pytest.raises(ValueError):
            init_stage(toy, 10, -0.1, RngKey(0))


def _calibrate_point_by_point(sorted_array, sigma, model, key, counter):
    """:func:`calibrate_alpha` as a walk over every lattice point: one
    proposal block for each point's new slots, then a recount of all
    cached proposals against its tolerance."""
    n = len(sorted_array)
    factor = proposal_factor(sigma)
    props = ParticleArray(
        np.empty((n, model.param_dim)), np.empty((n, model.summary_dim)), np.empty(n)
    )
    keys = key.slot_keys(n)
    streams = _stage_streams(model, keys)
    a = hi = 0
    while True:
        a += 1
        new_hi = (a * n) // GRID
        if new_hi == 0:
            continue
        eps = float(sorted_array.dists[new_hi - 1])
        adaptive._propose(
            model, sorted_array.thetas, factor, keys, streams, hi, new_hi,
            props, counter,
        )
        hi = new_hi
        n_move = int(np.count_nonzero(props.dists[:hi] <= eps))
        if a * hi + n_move * GRID >= GRID * hi:
            return CalibrationOutcome(
                a / GRID, eps, n_move / hi, props.take(np.arange(hi))
            )


class TestCalibrateAlpha:
    def test_cost_is_exactly_the_block(self, calibration):
        _, _, cal, counter = calibration
        assert counter.total == len(cal.proposals)

    def test_alpha_on_grid(self, calibration):
        _, _, cal, _ = calibration
        a = cal.alpha * GRID
        assert a == pytest.approx(round(a), abs=1e-9)
        assert 1 <= round(a) <= GRID

    def test_block_matches_alpha(self, calibration):
        res, _, cal, _ = calibration
        a = round(cal.alpha * GRID)
        assert len(cal.proposals) == (a * len(res.array)) // GRID

    def test_epsilon_is_block_order_statistic(self, calibration):
        res, _, cal, _ = calibration
        assert cal.epsilon == res.array.dists[len(cal.proposals) - 1]

    def test_stopping_inequality_holds(self, calibration):
        _, _, cal, _ = calibration
        assert cal.alpha + cal.rho_hat >= 1.0 - 1e-12

    def test_rho_recount_consistent_with_cache(self, calibration):
        _, _, cal, _ = calibration
        n_move = np.count_nonzero(cal.proposals.dists <= cal.epsilon)
        assert cal.rho_hat == n_move / len(cal.proposals)

    def test_returned_alpha_is_minimal(self, calibration):
        # every smaller grid point must fail the stop test when its
        # cached proposals are recounted at its own tolerance
        res, _, cal, _ = calibration
        dists = res.array.dists
        n = len(res.array)
        a_star = round(cal.alpha * GRID)
        for a in range(1, a_star):
            hi = (a * n) // GRID
            if hi == 0:
                continue
            eps = dists[hi - 1]
            n_move = np.count_nonzero(cal.proposals.dists[:hi] <= eps)
            assert a * hi + n_move * GRID < GRID * hi

    def test_small_arrays_skip_empty_grid_points(self, toy, init_500):
        res, _ = init_500
        small = res.array.take(np.arange(50))
        sigma = proposal_scale(small.thetas)
        cal = calibrate_alpha(small, sigma, toy, RngKey(56))
        assert len(cal.proposals) >= 1
        assert len(cal.proposals) == (round(cal.alpha * GRID) * 50) // GRID

    @pytest.mark.parametrize("n", [50, 150, 1000])
    @pytest.mark.parametrize(
        "model",
        [toy_model(10.0), TOY_2D, scalar_only(TOY_2D)],
        ids=["toy", "toy-2d", "toy-2d-scalar"],
    )
    def test_skipping_equals_point_by_point_walk(self, model, n, monkeypatch):
        # n = 50 leaves grid points without slots, n = 150 gives points
        # of one or two new slots, and n = 1000 of ten
        monkeypatch.setattr(adaptive, "MAX_INIT_BATCHES", 3)
        arr = init_stage(model, n, 0.0, RngKey(90)).array
        sigma = proposal_scale(arr.thetas)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _propose(*args, **kwargs)

        monkeypatch.setattr(adaptive, "_propose", counted)
        counter, ref_counter = SimCounter(), SimCounter()
        cal = calibrate_alpha(arr, sigma, model, RngKey(91), counter)
        n_skipping, calls[:] = len(calls), []
        ref = _calibrate_point_by_point(arr, sigma, model, RngKey(91), ref_counter)
        assert (cal.alpha, cal.epsilon, cal.rho_hat) == (ref.alpha, ref.epsilon, ref.rho_hat)
        for f in ("thetas", "zs", "dists"):
            assert np.array_equal(getattr(cal.proposals, f), getattr(ref.proposals, f))
        assert counter.snapshot() == ref_counter.snapshot()
        # the walk visits fewer points than the lattice has up to the stop
        assert n_skipping < len(calls)

    def test_requires_sorted_input(self, toy, init_500):
        res, _ = init_500
        arr = res.array.take(np.arange(len(res.array))[::-1])
        with pytest.raises(ValueError):
            calibrate_alpha(arr, np.eye(1), toy, RngKey(0))


class TestOutOfBoxProposals:
    """On a narrow prior box many kernel proposals leave it: each is still
    simulated and counted, carries distance inf, and is never accepted."""

    @pytest.fixture(scope="class")
    def narrow(self):
        model = toy_model(0.1)
        arr = prior_predictive(model, 500, RngKey(70)).sorted_by_dist()
        return model, arr, proposal_scale(arr.thetas)

    @staticmethod
    def _replay_calibration(model, arr, sigma):
        counter = SimCounter()
        cal = calibrate_alpha(arr, sigma, model, RngKey(71), counter)
        outside = np.abs(cal.proposals.thetas[:, 0]) > 0.1
        assert np.count_nonzero(outside) >= 0.1 * len(cal.proposals)
        assert counter.total == len(cal.proposals)
        assert np.all(np.isinf(cal.proposals.dists[outside]))
        assert np.all(np.isfinite(cal.proposals.dists[~outside]))
        factor = proposal_factor(sigma)
        for i in np.flatnonzero(outside):
            g = RngKey(71).child(i).generator()
            theta_star = _draw_proposal(arr.thetas[i], factor, g)
            assert np.array_equal(cal.proposals.zs[i], simulate(model, theta_star, g))

    def test_calibration_simulates_and_counts_them(self, narrow):
        model, arr, sigma = narrow
        self._replay_calibration(scalar_only(model), arr, sigma)

    def test_block_calibration_simulates_and_counts_them(self, narrow):
        # the block path replays the same Generator draws
        model, arr, sigma = narrow
        self._replay_calibration(model, arr, sigma)

    def test_iteration_never_accepts_them(self, narrow):
        model, arr, sigma = narrow
        counter = SimCounter()
        out, record = smc_iteration(arr, sigma, model, RngKey(72), t=1, counter=counter)
        assert record.sims_used == counter.total == 500
        assert np.all(np.abs(out.thetas) <= 0.1)
        assert np.all(out.dists <= record.epsilon)
        # the iteration's own calibration block did propose outside the box
        cal = calibrate_alpha(arr, sigma, model, RngKey(72).child(0))
        assert np.any(np.isinf(cal.proposals.dists))


class TestSmcIteration:
    def test_costs_exactly_n(self, one_step):
        _, _, _, record, counter = one_step
        assert record.sims_used == 500
        assert counter.total == 500

    def test_output_within_calibrated_tolerance(self, one_step):
        res, _, out, record, _ = one_step
        assert len(out) == 500
        assert np.all(out.dists <= record.epsilon)
        assert record.epsilon <= res.epsilon0

    def test_record_diagnostics(self, one_step):
        _, _, out, record, _ = one_step
        assert record.t == 1
        assert record.distinct_count == len(np.unique(out.thetas, axis=0))
        assert 1.0 <= record.ess <= 500.0
        assert 0.0 <= record.rho_hat <= 1.0

    def test_first_block_replays_calibration(self, toy, one_step):
        # rebuild the calibration from the same derived key and predict
        # the first block of the output slot by slot
        res, sigma, out, record, _ = one_step
        srt = res.array.sorted_by_dist()
        cal = calibrate_alpha(srt, sigma, toy, RngKey(57).child(0))
        assert cal.epsilon == record.epsilon
        assert cal.alpha == record.alpha
        m = len(cal.proposals)
        accept = cal.proposals.dists <= cal.epsilon
        expect_head = np.where(
            accept[:, None], cal.proposals.thetas, srt.thetas[:m]
        )
        assert np.array_equal(out.thetas[:m], expect_head)

    @staticmethod
    def _replay_tail(toy, one_step):
        # slot j >= m steps from its resampled source on stream
        # child(2, j) and keeps the proposal exactly when it is accepted
        res, sigma, out, record, _ = one_step
        srt = res.array.sorted_by_dist()
        m = round(record.alpha * GRID) * 500 // GRID
        assignment = residual_resample(
            np.full(m, 1.0 / m), 500, RngKey(57).child(1).generator()
        )
        factor = proposal_factor(sigma)
        moved = 0
        for j in range(m, 500):
            source = srt.particle(assignment[j])
            g = RngKey(57).child(2, j).generator()
            theta_star = _draw_proposal(source.theta, factor, g)
            z_star = simulate(toy, theta_star, g)
            d_star = distance(toy, z_star)
            if toy.in_box(theta_star) and d_star <= record.epsilon:
                expect = (theta_star, z_star, d_star)
                moved += 1
            else:
                expect = source
            assert np.array_equal(out.thetas[j], expect[0])
            assert np.array_equal(out.zs[j], expect[1])
            assert out.dists[j] == expect[2]
        assert 0 < moved < 500 - m

    def test_tail_replays_fresh_moves(self, toy, one_step_scalar):
        self._replay_tail(scalar_only(toy), one_step_scalar)

    def test_tail_replays_fresh_moves_on_block_path(self, toy, one_step):
        # the block path replays the same Generator draws
        self._replay_tail(toy, one_step)

    def test_block_path_equals_per_slot_path(self, toy, one_step, one_step_scalar):
        *_, out, record, counter = one_step
        *_, out_s, record_s, counter_s = one_step_scalar
        assert np.array_equal(out.thetas, out_s.thetas)
        assert np.array_equal(out.zs, out_s.zs)
        assert np.array_equal(out.dists, out_s.dists)
        assert record == record_s
        assert counter.snapshot() == counter_s.snapshot()
        # some fresh slots' normals needed more than one word
        words = philox_words(RngKey(57).child(2).slot_keys(500), 3)
        assert 0 < np.count_nonzero(~one_word(words[:, [0, 2]]).all(axis=1)) < 50

    def test_bad_batch_block_aborts_before_counting(self, init_500):
        # a non-finite block raises before its simulations are booked
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: t,
            simulator_batch=lambda t, rng: np.where(t > 0, np.nan, t),
        )
        res, _ = init_500
        counter = SimCounter()
        with pytest.raises(SimulationError, match="non-finite"):
            calibrate_alpha(
                res.array, proposal_scale(res.array.thetas), model, RngKey(58), counter
            )
        assert counter.total == 0


class TestRunSelfCalibrated:
    def test_stops_on_move_probability(self, default_run):
        _, trace, _ = default_run
        assert trace.iterations, "expected at least one iteration"
        assert trace.stop_iter == trace.iterations[-1].t
        assert trace.iterations[-1].rho_hat <= 0.1
        for rec in trace.iterations[:-1]:
            assert rec.rho_hat > 0.1

    def test_tolerances_decrease(self, default_run):
        _, trace, _ = default_run
        eps = [trace.init["epsilon0"]] + [r.epsilon for r in trace.iterations]
        assert all(b <= a for a, b in zip(eps, eps[1:]))

    def test_exact_budget_identity(self, default_run):
        _, trace, counter = default_run
        k = trace.init["batches_used"]
        t = len(trace.iterations)
        assert counter.count("init") == k * 2000
        assert counter.count("iteration") == t * 2000
        assert trace.total_sims == (k + t) * 2000

    def test_final_trim_to_target(self, default_run):
        final, trace, _ = default_run
        assert trace.target_reached
        assert trace.final_epsilon == 0.09
        assert np.all(final.dists <= 0.09)
        assert trace.n_final == len(final)
        assert 0 < len(final) <= 2000
        assert trace.final_ess <= trace.n_final

    def test_bitwise_determinism(self, toy, default_run):
        final, trace, _ = default_run
        again, trace2 = run_self_calibrated(toy, 2000, 0.09, RngKey(60))
        assert np.array_equal(final.thetas, again.thetas)
        assert np.array_equal(final.zs, again.zs)
        assert trace.to_dict() == trace2.to_dict()

    def test_rho_stop_one_means_no_iterations(self, toy, monkeypatch):
        monkeypatch.setattr(adaptive, "RHO_STOP", 1.0)
        final, trace = run_self_calibrated(toy, 1000, 0.09, RngKey(61))
        assert trace.iterations == []
        assert trace.stop_iter == 0
        assert np.all(final.dists <= 0.09)

    def test_terminal_initialization(self, toy):
        final, trace = run_self_calibrated(toy, 500, 100.0, RngKey(62))
        assert trace.init["terminal"]
        assert trace.stop_iter == 0
        assert trace.iterations == []
        assert trace.target_reached
        assert len(final) == 500
        assert trace.final_epsilon == trace.init["epsilon0"]

    def test_unreached_target_returns_full_array(self, toy, monkeypatch):
        monkeypatch.setattr(adaptive, "RHO_STOP", 1e-6)
        monkeypatch.setattr(adaptive, "MAX_ITERS", 2)
        final, trace = run_self_calibrated(toy, 400, 1e-9, RngKey(63))
        assert not trace.target_reached
        assert trace.stop_iter is None
        assert len(trace.iterations) == 2
        assert trace.n_final == 400
        assert trace.final_epsilon == trace.iterations[-1].epsilon

    def test_zero_iterations_allowed(self, toy, monkeypatch):
        monkeypatch.setattr(adaptive, "MAX_ITERS", 0)
        final, trace = run_self_calibrated(toy, 300, 0.09, RngKey(64))
        assert trace.iterations == []
        assert trace.stop_iter is None

    def test_iteration_cap_ends_the_run_before_the_trim(self, toy, monkeypatch):
        # the cap ends this run (it takes more iterations to reach 0.09 or
        # rho_hat <= 0.1), and the final trim still applies
        monkeypatch.setattr(adaptive, "MAX_ITERS", 2)
        counter = SimCounter()
        final, trace = run_self_calibrated(toy, 500, 0.09, RngKey(66), counter=counter)
        k = trace.init["batches_used"]
        assert len(trace.iterations) == 2
        assert trace.stop_iter is None
        assert trace.iterations[-1].epsilon > 0.09
        assert trace.iterations[-1].rho_hat > adaptive.RHO_STOP
        assert trace.total_sims == counter.total == (k + 2) * 500
        assert trace.target_reached
        assert trace.final_epsilon == 0.09
        assert 0 < len(final) < 500
        assert np.all(final.dists <= 0.09)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_summary_aborts(self, bad):
        # half the prior returns a bad summary; the run must not end with
        # a NaN tolerance or spin until the batch cap
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: np.array([bad if t[0] > 0 else t[0]]),
        )
        with pytest.raises(SimulationError, match="non-finite"):
            run_self_calibrated(model, 100, 0.09, RngKey(65))

    def test_validation(self, toy):
        counter = SimCounter()
        for n, eps in ((1, 0.09), (300, -0.1), (300, np.nan)):
            with pytest.raises(ValueError):
                run_self_calibrated(toy, n, eps, RngKey(0), counter=counter)
        assert counter.total == 0


class TestTwoParameters:
    """The p > 1 branches end to end: the toy noise on each of two
    coordinates, Euclidean distance to (0, 0).  Kernel moves take the
    block path (stacked ``factor @ normals``, row-wise box and distance);
    :class:`TestTwoParametersScalar` runs the same tests slot by slot."""

    MODEL = TOY_2D
    N = 2000
    EPS = 0.3

    def _run(self, r):
        counter = SimCounter()
        final, trace = run_self_calibrated(
            self.MODEL, self.N, self.EPS, RngKey(80).child(r), counter=counter
        )
        return final, trace, counter

    @pytest.fixture(scope="class")
    def serial(self):
        return [self._run(r) for r in (1, 2)]

    def test_matches_rejection_per_coordinate(self, serial):
        final, trace, _ = serial[0]
        assert trace.target_reached
        assert np.all(final.dists <= self.EPS)
        ref = abc_reject(self.MODEL, 200_000, RngKey(81), epsilon=self.EPS)
        distinct = np.unique(final.thetas, axis=0)
        for j in range(2):
            assert_ks_pass(distinct[:, j], ref.thetas[:, j])

    def test_budget_identity(self, serial):
        for _, trace, counter in serial:
            k, t = trace.init["batches_used"], len(trace.iterations)
            assert t >= 1
            assert trace.total_sims == counter.total == (k + t) * self.N
            assert counter.count("init") == k * self.N

    def test_full_rank_cloud_passes_init(self):
        # the stream replicate 1 initializes from
        res = init_stage(self.MODEL, self.N, self.EPS, RngKey(80).child(1).child(0))
        assert res.v_prior > 0
        assert np.linalg.matrix_rank(np.cov(res.array.thetas, rowvar=False)) == 2

    def test_thread_pool_matches_serial(self, serial):
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(self._run, (1, 2)))
        for (a, ta, _), (b, tb, _) in zip(serial, pooled):
            assert np.array_equal(a.thetas, b.thetas)
            assert np.array_equal(a.zs, b.zs)
            assert np.array_equal(a.dists, b.dists)
            assert ta.to_dict() == tb.to_dict()


class TestTwoParametersScalar(TestTwoParameters):
    """The same tests with kernel moves drawn slot by slot from Generators."""

    MODEL = scalar_only(TOY_2D)

    def test_block_path_equals_per_slot_path(self, serial):
        for r, (final, trace, counter) in zip((1, 2), serial):
            counter_b = SimCounter()
            final_b, trace_b = run_self_calibrated(
                TOY_2D, self.N, self.EPS, RngKey(80).child(r), counter=counter_b
            )
            assert np.array_equal(final.thetas, final_b.thetas)
            assert np.array_equal(final.zs, final_b.zs)
            assert trace.to_dict() == trace_b.to_dict()
            assert counter.snapshot() == counter_b.snapshot()


def _twelve_normals(theta, rng):
    # theta is one (1,) vector with a Generator, or (m, 1) rows with
    # SlotStreams; the draws and the sums' rounding are the same either way
    sd = np.where(rng.random() < 0.5, 1.0, 0.1)
    e = rng.standard_normal(12)
    acc = e[..., 0]
    for j in range(1, 12):
        acc = acc + e[..., j]
    return theta + np.expand_dims(sd * acc / 12.0, -1)


# the toy noise averaged over twelve normals: a slot draws thirteen
# normals with its proposal, and one in seven slots leaves the one-word
# path at least once
TWELVE = ModelSpec(
    param_dim=1,
    prior_box=[(-10.0, 10.0)],
    summary_dim=1,
    observed=[0.0],
    simulator=_twelve_normals,
    name="twelve-normals",
    simulator_batch=_twelve_normals,
    draws_per_slot=13,
)


class TestManyNormalsPerSlot:
    """A batch model with many normals per slot never leaves the block
    path and gives its scalar twin's run bit for bit."""

    @staticmethod
    def _seeks(monkeypatch):
        seeks = []
        seek = StreamCursor.seek

        def counted(self, key_words):
            seeks.append(1)
            return seek(self, key_words)

        monkeypatch.setattr(StreamCursor, "seek", counted)
        return seeks

    @pytest.mark.parametrize(
        "sampler",
        [
            lambda m, c: run_self_calibrated(m, 1000, 0.02, RngKey(95), counter=c),
            lambda m, c: naive_smc(m, 1000, [2.0, 0.5, 0.1, 0.04], RngKey(96), c),
        ],
        ids=["self-calibrated", "naive-smc"],
    )
    def test_block_path_equals_per_slot_path(self, sampler, monkeypatch):
        seeks = self._seeks(monkeypatch)
        counter, counter_s = SimCounter(), SimCounter()
        final, trace = sampler(TWELVE, counter)
        assert seeks == []
        final_s, trace_s = sampler(scalar_only(TWELVE), counter_s)
        assert len(seeks) >= counter_s.total  # the twin seeks every slot
        for f in ("thetas", "zs", "dists"):
            assert np.array_equal(getattr(final, f), getattr(final_s, f))
        assert trace.to_dict() == trace_s.to_dict()
        assert counter.snapshot() == counter_s.snapshot()
        assert len(trace.iterations) >= 2
