"""Acceptance gate: nine numbered end-to-end checks of the package.

Each check prints one ``CRITERION k: PASS/FAIL`` line (echoed in the
terminal summary) and then asserts its verdict, so a plain pytest run
shows the whole scoreboard.

Criterion 6 checks a finite-alpha lower bound on the distinct count
n_{t+1} that one calibrated iteration (``smc_iteration``) leaves behind,
given n particles holding n_t distinct values:

    E[n_{t+1}] >= rho_t * n + alpha_t * (1 - rho_t) * n_t.

It follows from the iteration's layout. The head block is the
m = floor(alpha_t * n) best particles, each replaced by its cached
proposal when that is accepted; the tail resamples the head into the
other n - m slots and tries one fresh kernel move per slot.

1. New values. The head has exactly rho_t * m accepted moves (rho_t is
   the calibrated rho_hat = n_move / m). The tail has rho_t * (n - m)
   in expectation. Together that is rho_t * n new values, counted over
   all n slots, not over n_t.
2. Kept values. The survivors carry about alpha_t * n_t of the input's
   distinct values. A value is lost only if every head copy of it
   moves, so at least a share (1 - rho_t) of them stays.
3. Slack. Unmoved tail copies are left out. They can only add distinct
   values, for instance a copy of a survivor whose head slot moved.

Three assumptions carry it:

- the tail's acceptance rate has the same expectation as rho_hat,
  because tail sources are uniform over the survivors and use the same
  kernel and tolerance eps_t;
- duplicates are not concentrated in the survivor block, so the
  survivors hold about alpha_t * n_t distinct values;
- accepted proposals are almost surely new values, because proposals
  are continuous.

At t = 1, where n_1 = n, the bound is (alpha + rho - alpha*rho) * n:
the small-alpha bound (alpha + rho) * n_t less the alpha*rho overlap of
a survivor whose own move frees no slot. The small-alpha bound itself
fails by hundreds of particles here, since the calibration stops only
at alpha + rho >= 1 and so alpha is never small. The weaker form
(alpha + rho - alpha*rho) * n_t, which spreads the new values over n_t
instead of n, misses a sampler that never applies the head's accepted
proposals. The bound above catches that sampler, and also one that
never writes the tail's accepted moves back.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

import conftest
from abcsmc import (
    McmcKernelConfig,
    RngKey,
    abc_reject,
    ess_of_thetas,
    mcmc_abc_chain,
    proposal_scale,
    residual_resample,
    run_experiment,
    run_self_calibrated,
    toy_accept_prob,
    toy_model,
    toy_posterior_quantile,
)
from abcsmc import adaptive
from abcsmc.config import RunConfig, validate_config

pytestmark = pytest.mark.acceptance

KS_LEVEL = 0.001
TARGET_EPS = 0.09


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def large_rejection_run(toy):
    # criterion 1 workload: one large fixed-seed rejection run
    res = abc_reject(toy, 3_700_000, RngKey(101), epsilon=TARGET_EPS)
    return res


@pytest.fixture(scope="module")
def full_scale_calibrated_runs(toy):
    # criterion 2 workload: five full-scale runs tuned to reach the
    # target tolerance (RHO_STOP low enough that the epsilon rule fires)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adaptive, "RHO_STOP", 0.01)
        for r in range(1, 6):
            final, trace = run_self_calibrated(
                toy, 100_000, TARGET_EPS, RngKey(102).child(r)
            )
            runs.append((final, trace))
    return runs


@pytest.fixture(scope="module")
def correctness_runs(toy):
    # criterion 3 workload: the examined output plus 19 more replicates
    # at N=10^4 under the default stop rule
    runs = []
    for r in range(1, 21):
        final, trace = run_self_calibrated(toy, 10_000, TARGET_EPS, RngKey(103).child(r))
        runs.append((final, trace))
    return runs


def test_criterion_1_rejection_count(large_rejection_run):
    count = len(large_rejection_run)
    ok = abs(count - 33_285) <= 600
    _verdict(
        1,
        ok,
        f"rejection at eps={TARGET_EPS} with 37e5 draws accepted {count} "
        f"(band 33285 +/- 600)",
    )


def test_criterion_2_calibrated_cost_and_ess(full_scale_calibrated_runs):
    costs = np.array([t.total_sims for _, t in full_scale_calibrated_runs], dtype=float)
    esses = np.array([t.final_ess for _, t in full_scale_calibrated_runs])
    cost_ok = np.all(costs >= 18e5) and np.all(costs <= 30e5)
    ess_ok = np.all(esses >= 30_000) and np.all(esses <= 36_500)
    cheaper = costs.mean() < 3_700_000
    ok = bool(cost_ok and ess_ok and cheaper)
    _verdict(
        2,
        ok,
        f"5 runs at N=1e5: cost mean {costs.mean() / 1e5:.1f}e5 "
        f"(each in [18,30]e5: {cost_ok}), ESS mean {esses.mean():.0f} "
        f"(each in [30000,36500]: {ess_ok}), cheaper than rejection: {cheaper}",
    )


def _lower_quantile(values: np.ndarray, level: float) -> float:
    """Smallest value whose cumulative equal weight reaches ``level``."""
    n = len(values)
    w = np.full(n, 1.0 / n)
    order = np.argsort(values, kind="stable")
    pos = int(np.searchsorted(np.cumsum(w[order]), level * w.sum(), side="left"))
    return float(values[order[min(pos, n - 1)]])


def test_criterion_3_posterior_correctness(toy, correctness_runs):
    final, trace = correctness_runs[0]
    assert trace.target_reached
    distinct = np.unique(final.thetas[:, 0])
    ref = abc_reject(toy, 500_000, RngKey(104), epsilon=TARGET_EPS)
    p_ks = float(stats.ks_2samp(distinct, ref.thetas[:, 0]).pvalue)

    # quartiles of the ABC posterior at the output's own tolerance
    q_oracle = {
        "median": 0.0,
        "q1": toy_posterior_quantile(0.25, epsilon=TARGET_EPS),
        "q3": toy_posterior_quantile(0.75, epsilon=TARGET_EPS),
    }
    levels = {"median": 0.5, "q1": 0.25, "q3": 0.75}
    per_rep = {
        which: np.array(
            [_lower_quantile(arr.thetas[:, 0], levels[which]) for arr, _ in correctness_runs]
        )
        for which in q_oracle
    }
    quart_ok, details = True, []
    for which, oracle_value in q_oracle.items():
        sigma = per_rep[which].std(ddof=1)
        err = abs(per_rep[which][0] - oracle_value)
        quart_ok &= err <= 3 * sigma
        details.append(f"{which} err {err:.4f} <= 3*{sigma:.4f}")
    ok = bool(p_ks >= KS_LEVEL and quart_ok)
    _verdict(
        3,
        ok,
        f"KS(distinct output, rejection) p={p_ks:.3f} >= {KS_LEVEL}; " + "; ".join(details),
    )


def test_criterion_4_mcmc_invariance(toy):
    n_chains, n_steps = 10_000, 20
    init = abc_reject(toy, 1_500_000, RngKey(105), epsilon=TARGET_EPS)
    fresh = abc_reject(toy, 1_500_000, RngKey(106), epsilon=TARGET_EPS)
    assert len(init) >= n_chains
    # an unbiased subset of the accepted draws (the array is distance
    # sorted, so a prefix would be biased toward the mode)
    pick = RngKey(108).generator().permutation(len(init))[:n_chains]
    starts = init.take(pick)
    cfg = McmcKernelConfig(
        sigma=proposal_scale(init.thetas), epsilon=TARGET_EPS
    )
    ends = np.empty(n_chains)
    for i in range(n_chains):
        chain = mcmc_abc_chain(
            starts.particle(i), n_steps, cfg, toy, RngKey(107).child(i)
        )
        ends[i] = chain.thetas[-1, 0]
    p_ks = float(stats.ks_2samp(ends, fresh.thetas[:, 0]).pvalue)
    ok = p_ks >= KS_LEVEL
    _verdict(
        4,
        ok,
        f"pooled endpoints of {n_chains} {n_steps}-step chains vs fresh "
        f"rejection: KS p={p_ks:.3f} >= {KS_LEVEL}",
    )


def test_criterion_5_budget_exactness(full_scale_calibrated_runs, correctness_runs):
    checked, ok = 0, True
    for _, trace in list(full_scale_calibrated_runs) + list(correctness_runs):
        n = trace.config["n"]
        k = trace.init["batches_used"]
        t = len(trace.iterations)
        ok &= trace.total_sims == (k + t) * n
        ok &= trace.sim_counts["per_phase"].get("init", 0) == k * n
        ok &= trace.sim_counts["per_phase"].get("iteration", 0) == t * n
        checked += 1
    _verdict(
        5,
        bool(ok),
        f"total_sims == K*N + T*N held exactly on all {checked} runs",
    )


def criterion_6_distinct_count(toy) -> tuple[bool, float, str]:
    """Criterion 6's check: the verdict, the worst margin and the detail
    of its line; ``tests/test_mutants.py`` runs it on broken samplers."""
    n = 2000
    reps = 50
    runs = []
    for r in range(reps):
        _, trace = run_self_calibrated(toy, n, TARGET_EPS, RngKey(600).child(r))
        runs.append(trace)
    t_min = min(len(tr.iterations) for tr in runs)
    worst = np.inf
    ok = True
    for t in range(1, t_min):
        diffs = []
        for tr in runs:
            recs = tr.iterations
            n_t = n if t == 1 else recs[t - 2].distinct_count
            rec = recs[t - 1]
            bound = rec.rho_hat * n + rec.alpha * (1 - rec.rho_hat) * n_t
            diffs.append(rec.distinct_count - bound)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(reps)
        margin = diffs.mean() + 2 * se
        worst = min(worst, margin)
        ok &= margin >= 0.0
    detail = (
        f"mean n_t+1 >= rho_t * n + alpha_t * (1 - rho_t) * mean n_t - 2SE "
        f"over {reps} runs, iterations 1..{t_min - 1}; worst margin {worst:.1f}"
    )
    return bool(ok), float(worst), detail


def test_criterion_6_distinct_count_bound(toy):
    ok, _, detail = criterion_6_distinct_count(toy)
    _verdict(6, ok, detail)


def test_criterion_7_tolerance_variance_scaling(toy, monkeypatch):
    # eight iterations for every run: no stop rule fires before the cap
    monkeypatch.setattr(adaptive, "RHO_STOP", 1e-9)
    monkeypatch.setattr(adaptive, "MAX_ITERS", 8)
    sizes = [200, 500, 1000, 2000, 4000]
    reps = 50
    slopes = {}
    log_vars = {1: [], 8: []}
    for n in sizes:
        eps_by_iter = {1: [], 8: []}
        for r in range(reps):
            _, trace = run_self_calibrated(toy, n, 1e-9, RngKey(700).child(n, r))
            assert len(trace.iterations) == 8
            eps_by_iter[1].append(trace.iterations[0].epsilon)
            eps_by_iter[8].append(trace.iterations[7].epsilon)
        for t in (1, 8):
            log_vars[t].append(np.log(np.var(eps_by_iter[t], ddof=1)))
    x = np.log(sizes)
    for t in (1, 8):
        slopes[t] = float(np.polyfit(x, log_vars[t], 1)[0])
    ok = all(-1.3 <= slopes[t] <= -0.7 for t in (1, 8))
    _verdict(
        7,
        bool(ok),
        f"log Var(eps_t) vs log N slopes: t=1 {slopes[1]:.2f}, "
        f"t=8 {slopes[8]:.2f} (band [-1.3, -0.7])",
    )


def _gain_series(trace, n, halfwidth):
    k = trace.init["batches_used"]
    series = [(0, (trace.init["ess"] / toy_accept_prob(trace.init["epsilon0"], halfwidth)) / (k * n))]
    for rec in trace.iterations:
        p = toy_accept_prob(rec.epsilon, halfwidth)
        series.append((rec.t, (rec.ess / p) / ((k + rec.t) * n)))
    return series


def test_criterion_8_gain_curve_shapes():
    n = 5000
    narrow = toy_model(0.1)
    _, tr_narrow = run_self_calibrated(narrow, n, TARGET_EPS, RngKey(801))
    narrow_gains = _gain_series(tr_narrow, n, 0.1)
    stop_soon = tr_narrow.stop_iter is not None and tr_narrow.stop_iter <= 3
    narrow_terminal = narrow_gains[-1][1]

    wide = toy_model(100.0)
    _, tr_wide = run_self_calibrated(wide, n, TARGET_EPS, RngKey(802))
    wide_gains = _gain_series(tr_wide, n, 100.0)
    assert len(wide_gains) > 2
    wide_terminal = wide_gains[-1][1]
    wide_first = wide_gains[1][1]

    ok = bool(stop_soon and narrow_terminal <= 1.2 and wide_terminal > wide_first)
    _verdict(
        8,
        ok,
        f"prior [-0.1,0.1]: stop at iter {tr_narrow.stop_iter} <= 3, terminal "
        f"gain {narrow_terminal:.2f} <= 1.2; prior [-100,100]: terminal gain "
        f"{wide_terminal:.1f} > first-iteration gain {wide_first:.2f}",
    )


def test_criterion_9_property_umbrella(toy, tmp_path):
    g = RngKey(900).generator()
    resample_ok = True
    for _ in range(200):
        m = int(g.integers(1, 12))
        w = g.random(m) + 0.01
        w /= w.sum()
        n = m + int(g.integers(0, 20))
        assignment = residual_resample(w, n, g)
        counts = np.bincount(assignment, minlength=m)
        floors = np.floor(w * n + 1e-9).astype(int)
        resample_ok &= counts.sum() == n
        resample_ok &= bool(np.all(counts >= floors))
        survivors = np.flatnonzero(counts >= 1)
        resample_ok &= bool(
            np.array_equal(assignment[: len(survivors)], survivors)
        )

    thetas = np.array([[5.0], [5.0], [1.0], [3.0]])
    ess_ok = abs(ess_of_thetas(thetas) - 16.0 / 6.0) < 1e-12
    ess_ok &= abs(
        ess_of_thetas(thetas, weights=np.full(4, 0.7)) - 16.0 / 6.0
    ) < 1e-9  # scale invariance

    wide = abc_reject(toy, 20_000, RngKey(901), epsilon=1.0)
    narrow = abc_reject(toy, 20_000, RngKey(901), epsilon=0.25)
    k = len(narrow)
    nested_ok = bool(np.array_equal(narrow.thetas, wide.thetas[:k]))

    outs = []
    for workers in (1, 3):
        cfg = RunConfig(
            sampler="self-calibrated",
            n=300,
            epsilon_target=TARGET_EPS,
            seed=19,
            replicates=3,
            workers=workers,
        )
        validate_config(cfg)
        out = tmp_path / f"w{workers}"
        run_experiment(cfg, str(out))
        outs.append(
            {
                name: (out / name).read_text()
                for name in (
                    "particles_1.csv",
                    "particles_2.csv",
                    "particles_3.csv",
                    "trace_1.json",
                    "trace_2.json",
                    "trace_3.json",
                )
            }
        )
    workers_ok = outs[0] == outs[1]

    ok = bool(resample_ok and ess_ok and nested_ok and workers_ok)
    _verdict(
        9,
        ok,
        f"resampling bounds/layout: {resample_ok}; ESS identities: {ess_ok}; "
        f"rejection nestedness: {nested_ok}; worker-count determinism: {workers_ok}",
    )
