"""Experiment driver: replicate orchestration and on-disk artifacts.

Every replicate derives its randomness from ``(seed, replicate)`` through
the splittable key tree, so replicates can run on any number of worker
threads and still produce byte-identical particle and trace files.  Wall
time is inherently non-deterministic, so it appears only as the last
column of ``summary.csv`` and never inside trace files.

Gain factors compare the sampler's simulation cost against what plain
rejection would have spent for the same effective sample size at the
same tolerance.  The toy model is the only model a config can name, so
the rejection acceptance probability always comes from its closed form
(zero simulations).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .adaptive import run_self_calibrated
from .config import RunConfig
from .diagnostics import ess_of_thetas, gain_factor
from .errors import BudgetExceededError, ConfigError, DegenerateArrayError
from .model import ModelSpec, ParticleArray, toy_model
from .oracle import toy_accept_prob
from .rng import RngKey
from .samplers import (
    McmcKernelConfig,
    abc_reject,
    mcmc_abc_chain,
    naive_smc,
    proposal_scale,
)
from .trace import RunTrace, SimCounter

SUMMARY_HEADER = "replicate,total_sims,final_eps,ess,gain,iterations,wall_ms"
GAIN_CURVE_HEADER = "iter,eps,alpha,rho,cumulative_sims,gain,stop_iter"
TABLE1_HEADER = "sampler,replicates,cost,ess"
_CSV_CHUNK = 1024  # particle rows per pass of write_particles_csv


@dataclass
class ReplicateResult:
    replicate: int
    trace: RunTrace
    particles: ParticleArray
    wall_ms: float


@dataclass
class ExperimentOutput:
    results: list[ReplicateResult]
    paths: list[str]


def build_model(cfg: RunConfig) -> ModelSpec:
    if cfg.model == "toy":
        return toy_model(cfg.prior_halfwidth)
    raise ConfigError(f"unknown model {cfg.model!r}")


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain digits for ints;
    text as it is; ``nan`` for a missing value."""
    if x is None:
        return "nan"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def run_replicate(cfg: RunConfig, replicate: int) -> ReplicateResult:
    """Run the configured sampler once; randomness is (seed, replicate)-keyed."""
    model = build_model(cfg)
    key = RngKey(cfg.seed).child(replicate)
    counter = SimCounter()
    started = time.perf_counter()

    if cfg.sampler == "self-calibrated":
        particles, trace = run_self_calibrated(
            model,
            cfg.n,
            cfg.epsilon_target,
            key,
            rho_stop=cfg.rho_stop,
            max_iters=cfg.max_iters,
            counter=counter,
        )
    elif cfg.sampler == "reject":
        res = abc_reject(
            model,
            cfg.n_prior,
            key,
            epsilon=cfg.epsilon_target,
            quantile=cfg.quantile,
            counter=counter,
        )
        particles = res.particles
        trace = RunTrace(
            config={"sampler": "reject", "model": model.name, "n_prior": cfg.n_prior},
            final_epsilon=res.epsilon,
            final_ess=ess_of_thetas(particles.thetas) if len(particles) else 0.0,
            target_reached=True,
            n_final=len(particles),
            sim_counts=counter.snapshot(),
        )
    elif cfg.sampler == "naive-smc":
        particles, trace = naive_smc(model, cfg.n, cfg.schedule, key, counter)
    elif cfg.sampler == "mcmc":
        particles, trace = _run_mcmc(cfg, model, key, counter)
    else:
        raise ConfigError(f"unknown sampler {cfg.sampler!r}")

    trace.config = {**trace.config, "replicate": replicate, "seed": cfg.seed}
    p = toy_accept_prob(trace.final_epsilon, cfg.prior_halfwidth)
    if p > 0.0 and trace.total_sims > 0:
        trace.gain = gain_factor(trace.total_sims, trace.final_ess, p)
    else:
        trace.gain = None
    wall_ms = (time.perf_counter() - started) * 1000.0
    return ReplicateResult(replicate, trace, particles, wall_ms)


def _run_mcmc(
    cfg: RunConfig, model: ModelSpec, key: RngKey, counter: SimCounter
) -> tuple[ParticleArray, RunTrace]:
    """Warm-start one kernel chain from the best rejection draw, with the
    proposal covariance scaled from all the warm-up particles.

    The chain output includes its start state (itself an exact
    tolerance-level draw), so the particle count is ``mcmc_steps + 1``.
    """
    warm = abc_reject(
        model, cfg.n_prior, key.child(0), epsilon=cfg.epsilon_target, counter=counter
    )
    if warm.empty:
        raise DegenerateArrayError(
            "warm-up rejection found no particle within the tolerance; "
            "increase n_prior or epsilon_target"
        )
    kernel = McmcKernelConfig(
        sigma=proposal_scale(warm.particles.thetas), epsilon=cfg.epsilon_target
    )
    chain = mcmc_abc_chain(
        warm.particles.particle(0), cfg.mcmc_steps, kernel, model, key.child(1), counter
    )
    particles = ParticleArray(
        np.stack([s.theta for s in chain]),
        np.stack([s.z for s in chain]),
        np.array([s.dist for s in chain]),
    )
    trace = RunTrace(
        config={
            "sampler": "mcmc",
            "model": model.name,
            "n_prior": cfg.n_prior,
            "mcmc_steps": cfg.mcmc_steps,
        },
        final_epsilon=float(cfg.epsilon_target),
        final_ess=ess_of_thetas(particles.thetas),
        target_reached=True,
        n_final=len(particles),
        sim_counts=counter.snapshot(),
    )
    return particles, trace


def write_particles_csv(path: str, particles: ParticleArray) -> None:
    """Write one line per particle: thetas, summaries, distance, weight.

    A row whose bits equal those of the row before it shares that row's
    line, which is formatted once.  Resampled copies carry their
    source's distance and every sampler returns its output sorted by
    distance (stably), so copies sit next to each other; a duplicate
    that is not adjacent is simply formatted again.
    """
    n = len(particles)
    p = particles.thetas.shape[1]
    d = particles.zs.shape[1]
    header = (
        [f"theta_{j + 1}" for j in range(p)]
        + [f"z_{j + 1}" for j in range(d)]
        + ["dist", "weight"]
    )
    # every row ends in the same weight; the rest is the shortest
    # round-trip repr of each value, as _fmt writes it
    tail = f",{_fmt(1.0 / n if n else 0.0)}\n"
    table = np.column_stack((particles.thetas, particles.zs, particles.dists))
    # one opaque item per row, compared by its bytes, not as floats:
    # 0.0 == -0.0 though they print differently, and nan != nan
    items = table.view(np.dtype((np.void, table.itemsize * table.shape[1])))[:, 0]
    new = np.ones(n, dtype=bool)
    new[1:] = items[1:] != items[:-1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        # rows become Python floats a chunk at a time, which bounds the
        # memory those objects take; line carries over, since a run of
        # copies may cross into the next pass (new[0] is always set)
        for lo in range(0, n, _CSV_CHUNK):
            fresh = new[lo:lo + _CSV_CHUNK]
            rows = iter(table[lo:lo + _CSV_CHUNK][fresh].tolist())
            for is_new in fresh.tolist():
                if is_new:
                    line = ",".join(map(repr, next(rows))) + tail
                fh.write(line)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_json(path: str, trace: RunTrace) -> None:
    _write_json(path, trace.to_dict())


def _write_replicate(out: str, res: ReplicateResult) -> list[str]:
    """Write one replicate's particle and trace files; return their paths."""
    p_path = os.path.join(out, f"particles_{res.replicate}.csv")
    t_path = os.path.join(out, f"trace_{res.replicate}.json")
    write_particles_csv(p_path, res.particles)
    write_trace_json(t_path, res.trace)
    return [p_path, t_path]


def _outcome(cfg: RunConfig, replicate: int) -> ReplicateResult | Exception:
    """The replicate's result, or the exception it raised."""
    try:
        return run_replicate(cfg, replicate)
    except Exception as exc:  # preserved as a .partial artifact
        return exc


def run_experiment(cfg: RunConfig, out_dir: str | None = None) -> ExperimentOutput:
    """Run all replicates, write per-replicate artifacts plus a summary.

    Replicates are dispatched to a thread pool but their artifacts are
    written in replicate order from the collecting thread.  If any
    replicate fails, completed replicates keep their normal artifacts,
    the failing ones get ``trace_<r>.json.partial`` files carrying the
    error, the summary is written as ``summary.csv.partial``, and the
    first error is re-raised with the written paths, in write order, as
    its ``paths`` attribute.
    """
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)

    replicates = range(1, cfg.replicates + 1)
    outcomes = []
    if replicates:
        with ThreadPoolExecutor(max_workers=min(cfg.workers, len(replicates))) as pool:
            outcomes = list(pool.map(partial(_outcome, cfg), replicates))
    results = [o for o in outcomes if isinstance(o, ReplicateResult)]
    failures = [(r, o) for r, o in zip(replicates, outcomes) if isinstance(o, Exception)]

    paths: list[str] = []
    for res in results:
        paths += _write_replicate(out, res)
    for r, exc in failures:
        err_payload = {
            "replicate": r,
            "config": cfg.to_dict(),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if isinstance(exc, BudgetExceededError) and exc.partial is not None:
            err_payload["partial"] = {
                "batches_used": exc.partial.batches_used,
                "epsilon0": exc.partial.epsilon0,
            }
        partial_path = os.path.join(out, f"trace_{r}.json.partial")
        _write_json(partial_path, err_payload)
        paths.append(partial_path)

    summary_path = os.path.join(out, "summary.csv.partial" if failures else "summary.csv")
    _write_csv(
        summary_path,
        SUMMARY_HEADER,
        (
            [res.replicate, res.trace.total_sims, res.trace.final_epsilon,
             res.trace.final_ess, res.trace.gain, len(res.trace.iterations), res.wall_ms]
            for res in results
        ),
    )
    paths.append(summary_path)

    if failures:
        exc = failures[0][1]
        exc.paths = paths
        raise exc
    return ExperimentOutput(results, paths)


def _target_epsilon(cfg: RunConfig) -> float:
    if cfg.sampler == "naive-smc":
        return cfg.schedule[-1]
    if cfg.epsilon_target is None:
        raise ConfigError(
            "table1 requires an explicit tolerance for every config "
            "(quantile-mode rejection has none)"
        )
    return cfg.epsilon_target


def table1_report(cfgs: list[RunConfig], out_dir: str | None = None) -> str:
    """Cost/ESS comparison of samplers at one shared model and tolerance.

    Each config's replicates run under its own subdirectory of the
    report directory; the report row holds replicate means.
    """
    if not cfgs:
        raise ConfigError("table1 needs at least one config")
    base = cfgs[0]
    eps0 = _target_epsilon(base)
    for cfg in cfgs:
        if (cfg.model, cfg.prior_halfwidth) != (base.model, base.prior_halfwidth):
            raise ConfigError("table1 configs must share the same model")
        if _target_epsilon(cfg) != eps0:
            raise ConfigError("table1 configs must share the same tolerance")
        if cfg.replicates < 1:
            raise ConfigError("table1 needs at least one replicate per config")

    out = out_dir if out_dir is not None else base.out_dir
    os.makedirs(out, exist_ok=True)
    rows = []
    for i, cfg in enumerate(cfgs, start=1):
        sub = os.path.join(out, f"{i:02d}-{cfg.sampler}")
        output = run_experiment(cfg, sub)
        costs = [res.trace.total_sims for res in output.results]
        esses = [res.trace.final_ess for res in output.results]
        rows.append(
            [cfg.sampler, cfg.replicates, float(np.mean(costs)), float(np.mean(esses))]
        )

    table_path = os.path.join(out, "table1.csv")
    _write_csv(table_path, TABLE1_HEADER, rows)
    return table_path


def gain_curve(cfg: RunConfig, out_dir: str | None = None) -> str:
    """Per-iteration gain series of one self-calibrated run (replicate 1).

    Iteration 0 is the initialization stage alone: its gain divides the
    init array's effective size, scaled by the oracle acceptance
    probability at the realized tolerance, by the K*N simulations spent.
    ``stop_iter`` repeats on every row: the iteration whose move
    probability tripped the stop rule, 0 when initialization already
    reached the target, -1 when the run ended some other way.
    """
    if cfg.sampler != "self-calibrated":
        raise ConfigError("gain-curve requires sampler = self-calibrated")
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)

    res = run_replicate(cfg, 1)
    _write_replicate(out, res)

    trace = res.trace
    init = trace.init
    k_batches = init["batches_used"]
    stop_iter = trace.stop_iter if trace.stop_iter is not None else -1

    def gain_at(ess: float, eps: float, cum_sims: int) -> float:
        p = toy_accept_prob(eps, cfg.prior_halfwidth)
        return gain_factor(cum_sims, ess, p) if p > 0.0 else float("nan")

    cum = k_batches * cfg.n
    rows = [
        [0, init["epsilon0"], 1.0 / k_batches, None, cum,
         gain_at(init["ess"], init["epsilon0"], cum), stop_iter]
    ]
    for rec in trace.iterations:
        cum = k_batches * cfg.n + rec.t * cfg.n
        rows.append(
            [rec.t, rec.epsilon, rec.alpha, rec.rho_hat, cum,
             gain_at(rec.ess, rec.epsilon, cum), stop_iter]
        )

    curve_path = os.path.join(out, "gain_by_iter.csv")
    _write_csv(curve_path, GAIN_CURVE_HEADER, rows)
    return curve_path
