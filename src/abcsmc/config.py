"""Run configuration: a flat ``key = value`` text format.

One setting per line, set once; ``#`` starts a comment, whitespace is
free.  The seed is mandatory so runs are never silently wall-clock seeded.
Every numeric bound mirrors the contract of the module that consumes it,
and every runner entry point checks its config before any work.
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
    schedule: list[float] = field(default_factory=list)
    mcmc_steps: int = 1000
    replicates: int = 1
    seed: int | None = None
    workers: int = 1

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


# a field's parser by its annotation; ``X | None`` parses like ``X``, and
# an annotation missing here fails at import
_BY_ANNOTATION = {
    "str": lambda raw, key: raw,
    "int": _parse_int,
    "float": _parse_float,
    "list[float]": _parse_schedule,
}
_PARSERS = {
    f.name: _BY_ANNOTATION[f.type.removesuffix(" | None")] for f in fields(RunConfig)
}


def parse_config(text: str) -> RunConfig:
    """Parse config text; ranges and requirements are left to
    :func:`validate_config`, so callers can apply overrides first."""
    cfg = RunConfig()
    seen: dict[str, int] = {}
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
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} already set on line {seen[key]}")
        setattr(cfg, key, _PARSERS[key](raw, key))
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def validate_config(cfg: RunConfig) -> None:
    if cfg.seed is None:
        raise ConfigError("seed is mandatory (no wall-clock seeding)")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
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

    if cfg.sampler in ("reject", "mcmc"):
        if cfg.n_prior is None or cfg.n_prior < 1:
            raise ConfigError(f"{cfg.sampler}: n_prior must be a positive integer")
    elif cfg.n is None or cfg.n < 2:
        raise ConfigError(f"{cfg.sampler}: n must be at least 2")
    if cfg.sampler == "naive-smc":
        if not cfg.schedule:
            raise ConfigError("naive-smc: schedule is required")
        if any(e2 >= e1 for e1, e2 in zip(cfg.schedule, cfg.schedule[1:])):
            raise ConfigError("naive-smc: schedule must be strictly decreasing")
        if cfg.schedule[-1] < 0 or not all(math.isfinite(e) for e in cfg.schedule):
            raise ConfigError("naive-smc: tolerances must be finite and non-negative")
    elif cfg.epsilon_target is None:
        raise ConfigError(f"{cfg.sampler}: epsilon_target is required")
    if cfg.sampler == "mcmc" and cfg.mcmc_steps < 0:
        raise ConfigError("mcmc: mcmc_steps must be non-negative")
