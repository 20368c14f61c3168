"""End-to-end benchmark of the abcsmc samplers.

    python3 perfbench/run.py --workload selfcal --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  Each
workload is a ``RunConfig`` built from the seed and run through
``runner.run_experiment``, writing its artifacts to a temporary
directory under ``perfbench/out/``.  The same workload and seed is run
again and again for ``--seconds`` (an execution starts only while at
least half of it still fits), and the medians are reported; one
replicate is one operation.

``--trace 0`` prints the end-to-end metrics (set-up time, wall time,
time per simulation, ESS per second, gain, peak RSS).  ``--trace 1``
alternates untraced executions with executions under the outside-in
tracer of ``tracer.py`` until time is up, and prints the per-layer
metrics plus the tracing overhead.  Metric names and units are those
``BENCHMARK.json`` declares.

Every replicate of every execution is checked; the exact counts of
each execution (simulations per phase, K, T, accepted particles, ESS,
gain) must repeat exactly, and are printed on the line starting with
``counts`` before the result.  ``reject-pool`` also reruns untimed with
one worker, which must write byte-identical particle and trace files.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import filecmp
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One replicate is one operation.  The toy model (prior half-width 10)
# is the only model with an oracle, so every workload uses it.
WORKLOADS = {
    # The paper's sampler: calibrate_alpha and the fresh moves dominate.
    # Four replicates average out the K/T/ESS noise of a changed stream.
    "selfcal": (
        "sampler = self-calibrated\nn = 10000\nepsilon_target = 0.09\n"
        "replicates = 4\nworkers = 1\n"
    ),
    # Fixed schedule, no calibration: the per-particle mcmc_abc_step
    # kernel with box deferral, residual resampling and diagnostics.
    "naive-smc": (
        "sampler = naive-smc\nn = 20000\n"
        "schedule = 2.0, 1.0, 0.5, 0.25, 0.15, 0.09\n"
        "replicates = 2\nworkers = 1\n"
    ),
    # Bare prior-predictive simulation on the runner's thread pool; the
    # only workload with more than one worker.
    "reject-pool": (
        "sampler = reject\nn_prior = 50000\nepsilon_target = 0.09\n"
        "replicates = 4\nworkers = 2\n"
    ),
}
EPSILON = 0.09
HALFWIDTH = 10.0
# |median(theta) - posterior median| allowed per replicate; the posterior
# median is 0 and the smallest output (rejection, ~450 draws) has a
# sampling standard error of the median near 0.012.
MEDIAN_BAND = 0.1
BINOMIAL_SDS = 4.0
SETUP_REPEATS = 7
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Per-layer metrics read from spans: name -> (span name, span field).
# Span fields are summed over the spans of one traced execution.
SPAN_METRICS = {
    "rng.seek.calls": ("rng.seek", "calls"),
    "rng.seek.s": ("rng.seek", "s"),
    "rng.slot_keys.s": ("rng.slot_keys", "s"),
    "model.simulate.calls": ("model.simulate", "calls"),
    "model.simulate.self_s": ("model.simulate", "self_s"),
    "model.prior_sample.s": ("model.prior_sample", "s"),
    "model.distance.s": ("model.distance", "s"),
    "model.distinct_count.s": ("model.distinct_count", "s"),
    "trace.bump.calls": ("trace.bump", "calls"),
    "trace.bump.s": ("trace.bump", "s"),
    "samplers.prior_predictive.s": ("samplers.prior_predictive", "s"),
    "samplers.draw_proposal.s": ("samplers.draw_proposal", "s"),
    "samplers.mcmc_abc_step.calls": ("samplers.mcmc_abc_step", "calls"),
    "samplers.mcmc_abc_step.self_s": ("samplers.mcmc_abc_step", "self_s"),
    "samplers.naive_smc.self_s": ("samplers.naive_smc", "self_s"),
    "adaptive.init_stage.s": ("adaptive.init_stage", "s"),
    "adaptive.calibrate_alpha.s": ("adaptive.calibrate_alpha", "s"),
    "adaptive.calibrate_alpha.self_s": ("adaptive.calibrate_alpha", "self_s"),
    "adaptive.smc_iteration.self_s": ("adaptive.smc_iteration", "self_s"),
    "resampling.residual_resample.calls": ("resampling.residual_resample", "calls"),
    "resampling.residual_resample.s": ("resampling.residual_resample", "s"),
    "diagnostics.ess_of_thetas.calls": ("diagnostics.ess_of_thetas", "calls"),
    "diagnostics.ess_of_thetas.s": ("diagnostics.ess_of_thetas", "s"),
    "oracle.toy_accept_prob.calls": ("oracle.toy_accept_prob", "calls"),
    "oracle.toy_accept_prob.s": ("oracle.toy_accept_prob", "s"),
    "runner.write_particles_csv.s": ("runner.write_particles_csv", "s"),
    "runner.write_trace_json.s": ("runner.write_trace_json", "s"),
    "config.parse_s": ("config.parse_config", "s"),
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from abcsmc import config, runner
runner.build_model(config.parse_config(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, by name, as
    ``BENCHMARK.json`` declares them."""
    try:
        with open(BENCHMARK, encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {BENCHMARK}: {exc}") from exc
    return tuple(
        {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")
    )


def config_text(workload: str, seed: int) -> str:
    return (
        WORKLOADS[workload]
        + f"model = toy\nprior_halfwidth = {HALFWIDTH}\nseed = {seed}\n"
    )


def import_library():
    """Import abcsmc from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "abcsmc", "__init__.py")):
        raise BenchError(f"no abcsmc sources under {SRC}")
    sys.path.insert(0, SRC)
    import abcsmc
    from abcsmc import config, oracle, runner

    if os.path.dirname(os.path.dirname(os.path.abspath(abcsmc.__file__))) != SRC:
        raise BenchError(f"abcsmc was imported from {abcsmc.__file__}, not {SRC}")
    return config, oracle, runner


def measure_setup(text: str) -> float:
    """Median seconds, in fresh interpreters, to import abcsmc, parse the
    config and build the model."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, text],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    print(f"setup_s of {len(times)} interpreters: " + ", ".join(repr(t) for t in times))
    return statistics.median(times)


def exact_counts(results) -> list[dict]:
    """Everything about each replicate that must repeat bit for bit."""
    rows = []
    for res in results:
        t = res.trace
        rows.append({
            "replicate": res.replicate,
            "sims": t.sim_counts,
            "K": t.init["batches_used"] if t.init else None,
            "T": len(t.iterations),
            "accepted": t.n_final,
            "ess": t.final_ess,
            "gain": t.gain,
        })
    return rows


class Checker:
    """Per-replicate correctness checks of one workload."""

    def __init__(self, workload: str, cfg, oracle):
        self.workload = workload
        self.cfg = cfg
        self.median = oracle.toy_posterior_quantile(0.5, HALFWIDTH)
        p = oracle.toy_accept_prob(EPSILON, HALFWIDTH)
        self.expected_accepts = (cfg.n_prior or 0) * p
        self.accept_sd = math.sqrt((cfg.n_prior or 0) * p * (1.0 - p))

    def problems(self, res) -> list[str]:
        cfg, t, parts = self.cfg, res.trace, res.particles
        out = []
        if len(parts) == 0:
            return ["no output particles"]
        med = float(statistics.median(parts.thetas[:, 0]))
        if abs(med - self.median) > MEDIAN_BAND:
            out.append(f"theta median {med} outside {self.median} +- {MEDIAN_BAND}")
        if self.workload == "selfcal":
            expected = (t.init["batches_used"] + len(t.iterations)) * cfg.n
            if t.total_sims != expected:
                out.append(f"{t.total_sims} sims, budget identity gives {expected}")
        if self.workload == "naive-smc":
            over = [r.t for r in t.iterations if r.sims_used > cfg.n]
            if over:
                out.append(f"steps {over} used more than n = {cfg.n} sims")
        if self.workload in ("selfcal", "naive-smc") and parts.dists.max() > EPSILON:
            out.append(f"output distance {parts.dists.max()} > {EPSILON}")
        if self.workload == "reject-pool":
            dev = abs(t.n_final - self.expected_accepts)
            if dev > BINOMIAL_SDS * self.accept_sd:
                out.append(
                    f"{t.n_final} accepted, expected {self.expected_accepts:.1f} "
                    f"+- {BINOMIAL_SDS} x {self.accept_sd:.1f}"
                )
        return out


class Session:
    """Repeated executions of one workload and seed, with their checks."""

    def __init__(self, workload: str, seed: int):
        self.config, oracle, self.runner = import_library()
        self.workload = workload
        self.text = config_text(workload, seed)
        self.cfg = self.config.parse_config(self.text)
        self.checker = Checker(workload, self.cfg, oracle)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: list[dict] | None = None
        self.kept_dir: str | None = None

    def execute(self, tracer=None, workers: int | None = None):
        """Run the workload once, optionally on another number of workers;
        returns (wall seconds, results or None)."""
        workers = workers or self.cfg.workers
        os.makedirs(OUT, exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=OUT)
        self.attempted += self.cfg.replicates
        started = time.perf_counter()
        try:
            if tracer is None:
                cfg = dataclasses.replace(self.cfg, workers=workers)
                output = self.runner.run_experiment(cfg, out_dir)
            else:
                with tracer.installed():
                    cfg = self.config.parse_config(self.text)
                    cfg = dataclasses.replace(cfg, workers=workers)
                    output = self.runner.run_experiment(cfg, out_dir)
        except Exception as exc:  # a failed execution counts every replicate
            wall = time.perf_counter() - started
            self.failed += self.cfg.replicates
            self.errors.append(f"{type(exc).__name__}: {exc}")
            shutil.rmtree(out_dir, ignore_errors=True)
            return wall, None
        wall = time.perf_counter() - started
        self.check(output.results)
        if self.kept_dir is None:
            self.kept_dir = out_dir
        else:
            shutil.rmtree(out_dir)
        return wall, output.results

    def check(self, results) -> None:
        counts = exact_counts(results)
        if self.counts is None:
            self.counts = counts
        first = {row["replicate"]: row for row in self.counts}
        bad = set()
        for res, row in zip(results, counts):
            problems = self.checker.problems(res)
            if first.get(res.replicate) != row:
                problems.append("exact counts differ from the first execution")
            if problems:
                bad.add(res.replicate)
                self.errors.append(f"replicate {res.replicate}: " + "; ".join(problems))
        self.failed += len(bad)

    def check_worker_determinism(self) -> None:
        """Untimed: workers = 1 must write the same bytes as the pool did."""
        if self.kept_dir is None:
            return
        serial_dir = tempfile.mkdtemp(prefix=f"{self.workload}-serial-", dir=OUT)
        try:
            serial = dataclasses.replace(self.cfg, workers=1)
            try:
                self.runner.run_experiment(serial, serial_dir)
            except Exception as exc:  # counted like a failed execution
                self.failed += self.cfg.replicates
                self.errors.append(f"workers = 1: {type(exc).__name__}: {exc}")
                return
            for r in range(1, self.cfg.replicates + 1):
                names = [f"particles_{r}.csv", f"trace_{r}.json"]
                same = all(
                    filecmp.cmp(os.path.join(self.kept_dir, f),
                                os.path.join(serial_dir, f), shallow=False)
                    for f in names
                )
                if not same:
                    self.failed += 1
                    self.errors.append(
                        f"replicate {r}: artifacts differ between workers = "
                        f"{self.cfg.workers} and workers = 1"
                    )
        finally:
            shutil.rmtree(serial_dir, ignore_errors=True)

    def artifact_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.kept_dir, f))
            for f in os.listdir(self.kept_dir)
        )

    def close(self) -> None:
        if self.kept_dir is not None:
            shutil.rmtree(self.kept_dir, ignore_errors=True)


def end_to_end(session: Session, seconds: float) -> dict[str, float]:
    setup_s = measure_setup(session.text)
    walls = []
    results = None
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + walls[-1] / 2 < deadline:
        wall, res = session.execute()
        if res is None:
            break
        walls.append(wall)
        results = res
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if results is None:
        raise BenchError("; ".join(session.errors))
    wall = statistics.median(walls)
    sims = sum(r.trace.total_sims for r in results)
    ess = sum(r.trace.final_ess for r in results)
    print(f"wall_s of {len(walls)} executions: " + ", ".join(repr(w) for w in walls))
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "us_per_sim": wall * 1e6 / sims,
        "ess_per_s": ess / wall,
        "gain": statistics.mean(r.trace.gain for r in results),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(session: Session, seconds: float) -> dict[str, float]:
    """Rounds of untraced and traced executions until time is up.

    Spans are timed on the wall clock, so on a thread pool a thread that
    waits for the GIL would book the wait to the span it has open.  The
    layer split is therefore traced with one worker, which must give the
    same results.  The pool figures (``runner.*``) come from the untraced
    executions as configured, from the library's own replicate times.
    ``tracer.overhead_s`` is the median traced wall minus the median
    untraced wall of one-worker executions.
    """
    def execute(tracer=None, workers=None):
        wall, results = session.execute(tracer, workers)
        if results is None:
            raise BenchError("; ".join(session.errors))
        return wall, results

    deadline = time.perf_counter() + seconds
    pool_rows, untraced, rows = [], [], []
    round_s = 0.0
    while not rows or time.perf_counter() + round_s / 2 < deadline:
        started = time.perf_counter()
        wall, results = execute()
        pool_rows.append(runner_row(wall, results))
        if session.cfg.workers > 1:
            wall, results = execute(workers=1)
        untraced.append(wall)
        tracer = Tracer()
        wall, results = execute(tracer, workers=1)
        rows.append(layer_row(tracer, wall))
        tracer.save(os.path.join(OUT, f"spans-{session.workload}.npz"))
        round_s = time.perf_counter() - started

    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics.update({k: statistics.median(r[k] for r in pool_rows) for k in pool_rows[0]})
    metrics["tracer.overhead_s"] = metrics.pop("traced_wall_s") - statistics.median(untraced)
    metrics["runner.artifact_bytes"] = session.artifact_bytes()
    # only the self-calibrated sampler has an init stage and calibrated iterations
    adaptive = [r.trace for r in results if r.trace.init]
    iters = [rec for t in adaptive for rec in t.iterations]
    metrics["adaptive.init_batches"] = sum(t.init["batches_used"] for t in adaptive)
    metrics["adaptive.iterations"] = len(iters)
    metrics["adaptive.alpha.mean"] = statistics.mean(r.alpha for r in iters) if iters else 0.0
    metrics["adaptive.rho_hat.mean"] = (
        statistics.mean(r.rho_hat for r in iters) if iters else 0.0
    )
    return metrics


def runner_row(wall: float, results) -> dict[str, float]:
    """Pool figures of one untraced execution."""
    reps = [r.wall_ms / 1000.0 for r in results]
    return {
        "runner.replicate_s.p50": statistics.median(reps),
        "runner.replicate_s.max": max(reps),
        "runner.overlap": sum(reps) / wall,
    }


def layer_row(tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced execution."""
    summary = tracer.summary()
    negative = {k: v["min_self_s"] for k, v in summary.items() if v["min_self_s"] < 0}
    if negative:
        raise BenchError(f"negative self time in spans: {negative}")
    row = {name: summary[span][field] for name, (span, field) in SPAN_METRICS.items()}
    tally = tracer.tally()
    row["samplers.move_accept_ratio"] = (
        tally.get("moved", 0) / tally["kernel_sims"] if tally.get("kernel_sims") else 0.0
    )
    row["samplers.box_deferral_ratio"] = (
        tally.get("deferred", 0) / tally["steps"] if tally.get("steps") else 0.0
    )
    row["tracer.spans"] = sum(v["calls"] for v in summary.values())
    row["traced_wall_s"] = wall
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        e2e_units, layer_units = declared_units()
        session = Session(args.workload, args.seed)
        try:
            if args.trace:
                metrics = per_layer(session, args.seconds)
                units = layer_units
            else:
                metrics = end_to_end(session, args.seconds)
                units = e2e_units
            if session.cfg.workers > 1:
                session.check_worker_determinism()
        finally:
            session.close()
        if set(metrics) != set(units):
            raise BenchError(
                "measured and declared metrics differ: "
                f"{sorted(set(metrics).symmetric_difference(units))}"
            )
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    for err in session.errors:
        print(f"FAILED {err}", file=sys.stderr)
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]!r} {units[name]}")
    print("counts " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "replicates": session.counts},
        sort_keys=True,
    ))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
