"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --workloads selfcal naive-smc --seeds 101-110 \
        --seconds 20 --report perfbench/out/set1.json [--compare perfbench/out/set0.json]

For each workload and end-to-end metric this prints the median over the
seeds and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  With
``--compare`` it also prints how far each median moved against an
earlier report and whether every exact count (simulations per phase,
K, T, accepted particles, ESS, gain) repeated for each seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NOTE = (
    "runner.overlap (per-layer run) is summed replicate wall seconds over "
    "the wall seconds of an untraced execution as configured. On a 2-core "
    "machine it is reported as a count only; no wall-clock scaling claim "
    "is made from it."
)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    counts = next(json.loads(ln[len("counts "):]) for ln in lines if ln.startswith("counts "))
    result = json.loads(lines[-1])
    return {"seed": seed, "result": result, "counts": counts["replicates"]}


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def machine() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def commit() -> str:
    """Short hash of the checked-out commit, or "unknown" outside git."""
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 3,5,8")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--report", required=True, help="JSON file to write")
    ap.add_argument("--compare", help="earlier report to compare medians and counts with")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)

    report = {"machine": machine(), "commit": commit(), "seconds": seconds,
              "note": NOTE, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(bench["command"], workload, seed, seconds))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                  flush=True)
        stats = {}
        for name in bounds:
            med, share = spread([run["result"]["metrics"][name]["value"] for run in runs])
            stats[name] = {"median": med, "spread": share}
            line = f"  {workload} {name}: median {med:.6g} spread {share:.4f} bound {bounds[name]}"
            worst = max(worst, share / bounds[name])
            if earlier and workload in earlier["workloads"]:
                old = earlier["workloads"][workload]["stats"][name]["median"]
                line += f" vs earlier {old:.6g} ({(med - old) / old:+.4f})"
            print(line, flush=True)
        if earlier and workload in earlier["workloads"]:
            old_counts = {run["seed"]: run["counts"] for run in earlier["workloads"][workload]["runs"]}
            same = [run["counts"] == old_counts[run["seed"]]
                    for run in runs if run["seed"] in old_counts]
            print(f"  {workload} exact counts identical on {sum(same)}/{len(same)} seeds")
        report["workloads"][workload] = {"stats": stats, "runs": runs}

    print(f"largest spread / bound: {worst:.3f}")
    os.makedirs(os.path.dirname(os.path.abspath(args.report)), exist_ok=True)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
