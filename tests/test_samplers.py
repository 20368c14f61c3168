"""Baseline samplers: rejection, the random-walk tolerance kernel, and
fixed-schedule SMC.  Distributional checks use KS tests at level 0.001
against independent constructions of the same law."""

from __future__ import annotations

import numpy as np
import pytest

from abcsmc import (
    DegenerateArrayError,
    McmcKernelConfig,
    ModelSpec,
    Particle,
    ParticleArray,
    RngKey,
    ScheduleInfeasibleError,
    SimCounter,
    SimulationError,
    StreamCursor,
    abc_reject,
    mcmc_abc_chain,
    mcmc_abc_step,
    naive_smc,
    prior_predictive,
    proposal_factor,
    proposal_scale,
    residual_resample,
    toy_model,
    toy_posterior_cdf,
)
from conftest import TOY_2D, BumpLog, assert_ks_pass, scalar_only


class TestProposalScale:
    def test_two_point_sample(self):
        # unbiased covariance of {-1, 1} is 2; doubled gives 4
        sigma = proposal_scale(np.array([[-1.0], [1.0]]))
        assert sigma.tolist() == [[4.0]]

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateArrayError):
            proposal_scale(np.ones((5, 1)))

    def test_singular_covariance_gets_ridge(self):
        # perfectly correlated coordinates: covariance is singular but a
        # usable (full-rank) scale must still come back
        t = np.linspace(0.0, 1.0, 8)
        thetas = np.column_stack([t, 2.0 * t])
        sigma = proposal_scale(thetas)
        assert np.all(np.linalg.eigvalsh(sigma) > 0)

    def test_factor_reproduces_sigma(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        a = proposal_factor(sigma)
        assert np.allclose(a @ a.T, sigma, atol=1e-12)

    def test_factor_rejects_indefinite(self):
        with pytest.raises(ValueError):
            proposal_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_factor_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            proposal_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestAbcReject:
    def test_epsilon_mode_sorted_within_tolerance(self, toy):
        d = abc_reject(toy, 20_000, RngKey(11), epsilon=0.5).dists
        assert np.all(d <= 0.5)
        assert np.all(np.diff(d) >= 0)

    def test_nan_tolerance_raises(self, toy):
        # nothing is within a NaN tolerance, so it must not pass as an
        # empty result
        with pytest.raises(ValueError, match="NaN"):
            abc_reject(toy, 1000, RngKey(1), epsilon=np.nan)

    def test_nested_tolerances_share_prefix(self, toy):
        # same key means the same prior-predictive draws, so the keep set
        # at a smaller tolerance is exactly a prefix of the larger one
        wide = abc_reject(toy, 5000, RngKey(14), epsilon=1.0)
        narrow = abc_reject(toy, 5000, RngKey(14), epsilon=0.25)
        k = len(narrow)
        assert np.array_equal(narrow.thetas, wide.thetas[:k])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_summary_aborts(self, bad):
        # bad summaries must not be silently dropped as "not accepted"
        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: np.array([bad if t[0] > 0 else t[0]]),
        )
        with pytest.raises(SimulationError, match="non-finite"):
            abc_reject(model, 1000, RngKey(18), epsilon=0.5)

    def test_empty_acceptance_is_allowed(self, toy):
        assert len(abc_reject(toy, 10, RngKey(15), epsilon=1e-12)) == 0

    def test_counter_counts_all_prior_draws(self, toy):
        counter = SimCounter()
        abc_reject(toy, 777, RngKey(16), epsilon=0.1, counter=counter)
        assert counter.total == 777

    def test_matches_oracle_posterior(self, toy):
        th = abc_reject(toy, 200_000, RngKey(17), epsilon=0.09).thetas[:, 0]
        assert len(th) > 1000
        from scipy import stats

        assert stats.kstest(th, toy_posterior_cdf).pvalue >= 0.001


class TestMcmcKernel:
    def _start(self, toy, key=RngKey(20)):
        arr = abc_reject(toy, 50_000, key, epsilon=0.09)
        return Particle(arr.thetas[0], arr.zs[0], float(arr.dists[0])), arr

    def test_step_requires_valid_state(self, toy):
        cfg = McmcKernelConfig(sigma=np.array([[1.0]]), epsilon=0.09)
        bad = Particle(np.zeros(1), np.array([5.0]), 5.0)
        with pytest.raises(ValueError):
            mcmc_abc_step(bad, cfg, toy, RngKey(0).generator())

    def test_nan_tolerance_raises(self):
        # no distance is within a NaN tolerance, so such a kernel could
        # never move
        with pytest.raises(ValueError, match="NaN"):
            McmcKernelConfig(sigma=np.array([[1.0]]), epsilon=np.nan)

    def test_out_of_box_proposal_costs_no_simulation(self, toy):
        start, _ = self._start(toy)
        cfg = McmcKernelConfig(sigma=np.array([[100.0]]), epsilon=0.09)
        keys = RngKey(21).slot_keys(400)  # huge steps so the box rejects often
        cursor = StreamCursor()
        n_out = 0
        for k in keys:
            counter = SimCounter()
            out = mcmc_abc_step(start, cfg, toy, cursor.seek(k), counter)
            if toy.in_box(out.proposal.theta):
                assert counter.total == 1
                assert out.proposal.z is not None
            else:
                n_out += 1
                assert counter.total == 0
                assert out.proposal.z is None and out.proposal.dist is None
                assert not out.moved and out.state is start
        assert 0 < n_out < len(keys)

    def test_chain_cost_at_most_steps(self, toy):
        start, _ = self._start(toy)
        cfg = McmcKernelConfig(sigma=np.array([[1.0]]), epsilon=0.09)
        counter = SimCounter()
        chain = mcmc_abc_chain(start, 250, cfg, toy, RngKey(22), counter)
        assert len(chain) == 251  # start state plus one per step
        assert np.array_equal(chain.thetas[0], start.theta) and chain.dists[0] == start.dist
        assert counter.total <= 250
        assert np.all(chain.dists <= 0.09)

    def test_rejected_step_returns_proposal(self, toy):
        start, _ = self._start(toy)
        cfg = McmcKernelConfig(sigma=np.array([[1000.0]]), epsilon=0.09)
        out = mcmc_abc_step(start, cfg, toy, RngKey(23).generator())
        assert not out.moved
        assert out.proposal.theta is not None

    def test_invariance_over_parallel_chains(self, toy):
        # the tolerance posterior must be preserved: start 2000 chains
        # from rejection draws, run a few steps, compare endpoints with
        # an independent rejection sample
        arr = abc_reject(toy, 300_000, RngKey(24), epsilon=0.09)
        assert len(arr) >= 2000
        sigma = proposal_scale(arr.thetas)
        ends = np.empty(2000)
        for i in range(2000):
            cfg = McmcKernelConfig(sigma=sigma, epsilon=0.09)
            start = Particle(arr.thetas[i], arr.zs[i], float(arr.dists[i]))
            chain = mcmc_abc_chain(start, 5, cfg, toy, RngKey(25).child(i))
            ends[i] = chain.thetas[-1, 0]
        ref = abc_reject(toy, 300_000, RngKey(26), epsilon=0.09)
        assert_ks_pass(ends, ref.thetas[:, 0])

    def test_long_chain_thinned_matches_oracle(self, toy):
        start, arr = self._start(toy, RngKey(27))
        sigma = np.array([[4.0 * 0.505]])  # twice the posterior-scale variance
        cfg = McmcKernelConfig(sigma=sigma, epsilon=0.09)
        chain = mcmc_abc_chain(start, 100_000, cfg, toy, RngKey(28))
        th = chain.thetas[:, 0]
        thinned = th[1000::100]  # burn-in then thin to near-independence
        from scipy import stats

        assert stats.kstest(thinned, toy_posterior_cdf).pvalue >= 0.001


class TestNaiveSmc:
    def test_schedule_must_decrease(self, toy):
        for bad in ([], [1.0, 1.0], [0.5, 0.7]):
            with pytest.raises(ValueError):
                naive_smc(toy, 100, bad, RngKey(0))

    def test_infeasible_schedule_raises(self, toy):
        with pytest.raises(ScheduleInfeasibleError):
            naive_smc(toy, 200, [1e-9], RngKey(30))

    def test_single_loose_tolerance_close_to_prior_predictive(self, toy):
        n = 20_000
        arr, _ = naive_smc(toy, n, [50.0], RngKey(31))
        # tolerance 50 accepts everything, and moves barely disturb the
        # prior; compare parameter marginal against the plain prior draw
        ref = prior_predictive(toy, n, RngKey(32))
        assert_ks_pass(arr.thetas[:, 0], ref.thetas[:, 0])

    def test_one_step_at_target_matches_rejection(self, toy):
        n = 10_000
        arr, trace = naive_smc(toy, n, [1.0, 0.09], RngKey(33))
        assert np.all(arr.dists <= 0.09)
        # the single move step leaves many resampled duplicates, so KS on
        # the raw array would overstate its evidence; compare the distinct
        # values, each of which is one draw from the tolerance posterior
        distinct = np.unique(arr.thetas[:, 0])
        assert len(distinct) > 500
        ref = abc_reject(toy, 400_000, RngKey(34), epsilon=0.09)
        assert_ks_pass(distinct, ref.thetas[:, 0])

    def test_cost_at_most_n_per_iteration(self, toy):
        n = 2000
        counter = SimCounter()
        arr, trace = naive_smc(toy, n, [2.0, 0.5], RngKey(35), counter)
        assert counter.count("prior-predictive") == n
        assert counter.count("iteration") <= 2 * n
        assert counter.total == trace.total_sims
        assert len(trace.iterations) == 2
        for rec in trace.iterations:
            assert rec.sims_used <= n

    def test_trace_reports_schedule(self, toy):
        _, trace = naive_smc(toy, 500, [3.0, 1.0], RngKey(36))
        assert [r.epsilon for r in trace.iterations] == [3.0, 1.0]
        assert trace.final_epsilon == 1.0
        assert trace.config == {
            "sampler": "naive-smc", "model": "toy", "n": 500, "schedule": [3.0, 1.0]
        }
        assert trace.target_reached is True
        assert trace.n_final == 500

    @pytest.mark.parametrize("bad", [[np.inf, 1.0], [1.0, np.nan]])
    def test_tolerances_must_be_finite(self, toy, bad):
        # a deferred proposal has distance inf, which no tolerance may accept
        with pytest.raises(ValueError, match="finite"):
            naive_smc(toy, 100, bad, RngKey(0))


def _naive_smc_by_kernel_steps(model, n, schedule, key):
    """naive_smc with every move one ``mcmc_abc_step`` on the slot's own
    Generator; also returns each step's count of in-box proposals."""
    arr = prior_predictive(model, n, key.child(0))
    in_box = []
    for t, eps in enumerate(schedule, start=1):
        cfg = McmcKernelConfig(sigma=proposal_scale(arr.thetas), epsilon=eps)
        srt = arr.sorted_by_dist()
        m = int(np.searchsorted(srt.dists, eps, side="right"))
        assignment = residual_resample(
            np.full(m, 1.0 / m), n, key.child(1, t, 0).generator()
        )
        steps = [
            mcmc_abc_step(
                srt.particle(assignment[j]), cfg, model,
                key.child(1, t, 1, j).generator(),
            )
            for j in range(n)
        ]
        in_box.append(sum(model.in_box(st.proposal.theta) for st in steps))
        arr = ParticleArray(
            np.array([st.state.theta for st in steps]),
            np.array([st.state.z for st in steps]),
            np.array([st.state.dist for st in steps]),
        )
    return arr.sorted_by_dist(), in_box


class TestNaiveSmcBlockPath:
    """Each schedule step moves all particles with one call to the block
    kernel move, normals off the ziggurat's one-word path included; a
    model without a batch simulator goes slot by slot instead."""

    @pytest.mark.parametrize(
        "model, schedule",
        [(toy_model(10.0), [2.0, 0.5, 0.2]), (TOY_2D, [1.5, 0.8, 0.5])],
        ids=["toy", "toy-2d"],
    )
    def test_block_path_equals_per_slot_path(self, model, schedule):
        n = 3000
        block_counter, slot_counter = BumpLog(), SimCounter()
        arr, trace = naive_smc(model, n, schedule, RngKey(37), block_counter)
        arr_s, trace_s = naive_smc(
            scalar_only(model), n, schedule, RngKey(37), slot_counter
        )
        assert np.array_equal(arr.thetas, arr_s.thetas)
        assert np.array_equal(arr.zs, arr_s.zs)
        assert np.array_equal(arr.dists, arr_s.dists)
        assert trace.iterations == trace_s.iterations
        assert block_counter.snapshot() == slot_counter.snapshot()
        # one block bump per step, of the step's in-box proposals
        moves = [k for phase, k in block_counter.log if phase == "iteration"]
        assert moves == [r.sims_used for r in trace.iterations]

    @pytest.mark.parametrize("batch", [True, False], ids=["block", "per-slot"])
    def test_deferred_proposals_are_not_simulated(self, batch):
        # on a narrow box a step's proposals often leave it
        model = toy_model(0.1)
        model = model if batch else scalar_only(model)
        schedule = [1.0, 0.3, 0.15]
        counter = SimCounter()
        arr, trace = naive_smc(model, 500, schedule, RngKey(38), counter)
        ref, in_box = _naive_smc_by_kernel_steps(model, 500, schedule, RngKey(38))
        assert [r.sims_used for r in trace.iterations] == in_box
        assert all(k < 450 for k in in_box)
        assert counter.count("iteration") == sum(in_box)
        assert np.array_equal(arr.thetas, ref.thetas)
        assert np.array_equal(arr.zs, ref.zs)
        assert np.array_equal(arr.dists, ref.dists)
        assert np.all(np.abs(arr.thetas) <= 0.1)

    def test_bad_batch_block_aborts_before_counting(self):
        # the batch simulator agrees with the scalar one on its first call,
        # the prior block, and turns bad from its second, the step's moves
        calls = []

        def batch(t, rng):
            calls.append(len(t))
            return t if len(calls) == 1 else np.where(t > 0, np.nan, t)

        model = ModelSpec(
            param_dim=1,
            prior_box=[(-10.0, 10.0)],
            summary_dim=1,
            observed=[0.0],
            simulator=lambda t, r: t,
            simulator_batch=batch,
        )
        counter = SimCounter()
        with pytest.raises(SimulationError, match="non-finite"):
            naive_smc(model, 400, [5.0], RngKey(39), counter)
        # the prior-predictive draws are booked, the failed step is not
        assert counter.snapshot() == {
            "total": 400, "per_phase": {"prior-predictive": 400}
        }

    def test_bad_prior_block_aborts_before_counting(self):
        # a NaN in the first array raises before any draw is booked
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
            naive_smc(model, 400, [5.0], RngKey(39), counter)
        assert counter.snapshot() == {"total": 0, "per_phase": {}}
