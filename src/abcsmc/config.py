"""Run configuration: a flat ``key = value`` text format.

One setting per line, ``#`` starts a comment, whitespace is free.  The
seed is mandatory so runs are never silently wall-clock seeded.  Every
numeric bound mirrors the contract of the module that consumes it, so a
config that parses cleanly will not be rejected later for range errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

SAMPLERS = ("reject", "mcmc", "naive-smc", "self-calibrated")


@dataclass
class RunConfig:
    sampler: str = ""
    model: str = "toy"
    prior_halfwidth: float = 10.0
    n: int | None = None
    n_prior: int | None = None
    epsilon_target: float | None = None
    quantile: float | None = None
    schedule: list[float] = field(default_factory=list)
    mcmc_steps: int = 1000
    rho_stop: float = 0.1
    max_iters: int = 200
    replicates: int = 1
    seed: int | None = None
    workers: int = 1
    out_dir: str = "out"

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_schedule(raw: str, key: str) -> list[float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected comma-separated tolerances")
    return [_parse_float(p, key) for p in parts]


_PARSERS = {
    "sampler": lambda raw, key: raw,
    "model": lambda raw, key: raw,
    "prior_halfwidth": _parse_float,
    "n": _parse_int,
    "n_prior": _parse_int,
    "epsilon_target": _parse_float,
    "quantile": _parse_float,
    "schedule": _parse_schedule,
    "mcmc_steps": _parse_int,
    "rho_stop": _parse_float,
    "max_iters": _parse_int,
    "replicates": _parse_int,
    "seed": _parse_int,
    "workers": _parse_int,
    "out_dir": lambda raw, key: raw,
}


def parse_config(text: str, validate: bool = True) -> RunConfig:
    """Parse config text; ``validate=False`` defers range/requirement checks
    so callers can apply overrides (CLI flags) first."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        setattr(cfg, key, _PARSERS[key](raw, key))
    if validate:
        validate_config(cfg)
    return cfg


def load_config(path: str, validate: bool = True) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, validate=validate)


def validate_config(cfg: RunConfig) -> None:
    if cfg.seed is None:
        raise ConfigError("seed is mandatory (no wall-clock seeding)")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.sampler not in SAMPLERS:
        raise ConfigError(
            f"sampler must be one of {', '.join(SAMPLERS)}, got {cfg.sampler!r}"
        )
    if cfg.model != "toy":
        raise ConfigError(f"unknown model {cfg.model!r} (available: toy)")
    if not (cfg.prior_halfwidth > 0 and math.isfinite(cfg.prior_halfwidth)):
        raise ConfigError("prior_halfwidth must be positive and finite")
    if cfg.replicates < 0:
        raise ConfigError("replicates must be non-negative")
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")

    if cfg.epsilon_target is not None and (
        not math.isfinite(cfg.epsilon_target) or cfg.epsilon_target < 0
    ):
        raise ConfigError("epsilon_target must be finite and non-negative")

    if cfg.sampler == "reject":
        if cfg.n_prior is None or cfg.n_prior < 1:
            raise ConfigError("reject: n_prior must be a positive integer")
        if (cfg.epsilon_target is None) == (cfg.quantile is None):
            raise ConfigError("reject: set exactly one of epsilon_target, quantile")
        if cfg.quantile is not None:
            if not 0 < cfg.quantile <= 1:
                raise ConfigError("reject: quantile must be in (0, 1]")
            if math.floor(cfg.quantile * cfg.n_prior) < 1:
                raise ConfigError("reject: quantile * n_prior must be at least 1")
    elif cfg.sampler == "mcmc":
        if cfg.n_prior is None or cfg.n_prior < 1:
            raise ConfigError("mcmc: n_prior (warm-up pool size) must be positive")
        if cfg.epsilon_target is None:
            raise ConfigError("mcmc: epsilon_target is required")
        if cfg.mcmc_steps < 0:
            raise ConfigError("mcmc: mcmc_steps must be non-negative")
    elif cfg.sampler == "naive-smc":
        if cfg.n is None or cfg.n < 2:
            raise ConfigError("naive-smc: n must be at least 2")
        if not cfg.schedule:
            raise ConfigError("naive-smc: schedule is required")
        if any(e2 >= e1 for e1, e2 in zip(cfg.schedule, cfg.schedule[1:])):
            raise ConfigError("naive-smc: schedule must be strictly decreasing")
        if cfg.schedule[-1] < 0 or not all(math.isfinite(e) for e in cfg.schedule):
            raise ConfigError("naive-smc: tolerances must be finite and non-negative")
    elif cfg.sampler == "self-calibrated":
        if cfg.n is None or cfg.n < 2:
            raise ConfigError("self-calibrated: n must be at least 2")
        if cfg.epsilon_target is None:
            raise ConfigError("self-calibrated: epsilon_target is required")
        if not 0 < cfg.rho_stop <= 1:
            raise ConfigError("self-calibrated: rho_stop must be in (0, 1]")
        if cfg.max_iters < 0:
            raise ConfigError("self-calibrated: max_iters must be non-negative")
