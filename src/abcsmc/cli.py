"""Command-line entry point.

Subcommands: ``run`` executes one configured experiment, ``table1``
compares samplers' cost and effective sample size at a shared tolerance,
``gain-curve`` writes the per-iteration gain series of a self-calibrated
run.  ``--seed``/``--workers`` override the config file, and ``--out``
names the output directory (default ``out``); the runner validates the
config after the flags are applied.

Exit codes: 0 success, 2 configuration error, 3 runtime failure (with
``.partial`` artifacts preserved where applicable).  ``run`` prints the
paths of the artifacts it wrote, one a line, also when it fails.
"""

from __future__ import annotations

import argparse
import sys

from .config import RunConfig, load_config
from .errors import ConfigError
from .runner import gain_curve, run_experiment, table1_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcsmc",
        description="Likelihood-free samplers with self-calibrated tolerances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config", help="path to a key=value config file")

    p_table = sub.add_parser(
        "table1", help="cost/ESS comparison across sampler configs"
    )
    p_table.add_argument("configs", nargs="+", help="config files sharing model and tolerance")

    p_curve = sub.add_parser(
        "gain-curve", help="per-iteration gain of a self-calibrated run"
    )
    p_curve.add_argument("config", help="path to a self-calibrated config file")

    for p in (p_run, p_table, p_curve):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _apply_overrides(load_config(args.config), args)
            output = run_experiment(cfg, args.out)
            for path in output.paths:
                print(path)
        elif args.command == "table1":
            cfgs = [
                _apply_overrides(load_config(path), args) for path in args.configs
            ]
            print(table1_report(cfgs, args.out))
        elif args.command == "gain-curve":
            cfg = _apply_overrides(load_config(args.config), args)
            print(gain_curve(cfg, args.out))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        for path in getattr(exc, "paths", ()):
            print(path)
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
