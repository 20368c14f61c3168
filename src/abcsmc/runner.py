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
    """Shortest round-trip decimal for floats; plain digits for ints."""
    if x is None:
        return "nan"
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
        trace.config = {
            "sampler": "naive-smc",
            "model": model.name,
            "n": cfg.n,
            "schedule": list(cfg.schedule),
        }
        trace.target_reached = True
        trace.n_final = len(particles)
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
    n = len(particles)
    p = particles.thetas.shape[1]
    d = particles.zs.shape[1]
    header = (
        [f"theta_{j + 1}" for j in range(p)]
        + [f"z_{j + 1}" for j in range(d)]
        + ["dist", "weight"]
    )
    weight = 1.0 / n if n else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            row = (
                [_fmt(v) for v in particles.thetas[i]]
                + [_fmt(v) for v in particles.zs[i]]
                + [_fmt(particles.dists[i]), _fmt(weight)]
            )
            fh.write(",".join(row) + "\n")


def write_trace_json(path: str, trace: RunTrace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_row(res: ReplicateResult) -> str:
    t = res.trace
    return ",".join(
        [
            str(res.replicate),
            str(t.total_sims),
            _fmt(t.final_epsilon),
            _fmt(t.final_ess),
            _fmt(t.gain),
            str(len(t.iterations)),
            _fmt(res.wall_ms),
        ]
    )


def run_experiment(cfg: RunConfig, out_dir: str | None = None) -> ExperimentOutput:
    """Run all replicates, write per-replicate artifacts plus a summary.

    Replicates are dispatched to a thread pool but their artifacts are
    written in replicate order from the collecting thread.  If any
    replicate fails, completed replicates keep their normal artifacts,
    the failing ones get ``trace_<r>.json.partial`` files carrying the
    error, the summary is written as ``summary.csv.partial``, and the
    first error is re-raised.
    """
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    paths: list[str] = []

    n_rep = cfg.replicates
    results: list[ReplicateResult | None] = [None] * n_rep
    failures: list[tuple[int, Exception]] = []
    if n_rep:
        workers = min(cfg.workers, n_rep)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                (r, pool.submit(run_replicate, cfg, r)) for r in range(1, n_rep + 1)
            ]
            for r, fut in futures:
                try:
                    results[r - 1] = fut.result()
                except Exception as exc:  # preserved as a .partial artifact
                    failures.append((r, exc))

    for r in range(1, n_rep + 1):
        res = results[r - 1]
        if res is None:
            continue
        p_path = os.path.join(out, f"particles_{r}.csv")
        t_path = os.path.join(out, f"trace_{r}.json")
        write_particles_csv(p_path, res.particles)
        write_trace_json(t_path, res.trace)
        paths += [p_path, t_path]

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
        with open(partial_path, "w", encoding="utf-8") as fh:
            json.dump(err_payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(partial_path)

    summary_name = "summary.csv" if not failures else "summary.csv.partial"
    summary_path = os.path.join(out, summary_name)
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for res in results:
            if res is not None:
                fh.write(_summary_row(res) + "\n")
    paths.append(summary_path)

    if failures:
        raise failures[0][1]
    return ExperimentOutput([r for r in results if r is not None], paths)


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
            f"{cfg.sampler},{cfg.replicates},"
            f"{_fmt(float(np.mean(costs)))},{_fmt(float(np.mean(esses)))}"
        )

    table_path = os.path.join(out, "table1.csv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(TABLE1_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
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
    write_particles_csv(os.path.join(out, "particles_1.csv"), res.particles)
    write_trace_json(os.path.join(out, "trace_1.json"), res.trace)

    trace = res.trace
    init = trace.init
    k_batches = init["batches_used"]
    stop_iter = trace.stop_iter if trace.stop_iter is not None else -1

    def gain_at(ess: float, eps: float, cum_sims: int) -> float:
        p = toy_accept_prob(eps, cfg.prior_halfwidth)
        return gain_factor(cum_sims, ess, p) if p > 0.0 else float("nan")

    lines = [GAIN_CURVE_HEADER]
    cum = k_batches * cfg.n
    lines.append(
        ",".join(
            [
                "0",
                _fmt(init["epsilon0"]),
                _fmt(1.0 / k_batches),
                "nan",
                str(cum),
                _fmt(gain_at(init["ess"], init["epsilon0"], cum)),
                str(stop_iter),
            ]
        )
    )
    for rec in trace.iterations:
        cum = k_batches * cfg.n + rec.t * cfg.n
        lines.append(
            ",".join(
                [
                    str(rec.t),
                    _fmt(rec.epsilon),
                    _fmt(rec.alpha),
                    _fmt(rec.rho_hat),
                    str(cum),
                    _fmt(gain_at(rec.ess, rec.epsilon, cum)),
                    str(stop_iter),
                ]
            )
        )

    curve_path = os.path.join(out, "gain_by_iter.csv")
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return curve_path
