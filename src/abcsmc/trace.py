"""Run bookkeeping: simulation counter, per-iteration records, run trace."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, asdict


class SimCounter:
    """Thread-safe counter of model simulations, split by phase.

    ``total`` always equals the sum over phases, and both only grow.
    Every call of :func:`abcsmc.model.simulate` bumps the counter it is
    given by exactly one, and :func:`abcsmc.model.simulate_batch` by its
    row count in one call, so the snapshot is an exact audit of
    simulator usage.
    """

    def __init__(self) -> None:
        self.total = 0
        self.per_phase: dict[str, int] = {}
        self._lock = threading.Lock()

    def bump(self, phase: str, n: int = 1) -> None:
        with self._lock:
            self.total += n
            self.per_phase[phase] = self.per_phase.get(phase, 0) + n

    def count(self, phase: str) -> int:
        return self.per_phase.get(phase, 0)

    def snapshot(self) -> dict:
        with self._lock:
            return {"total": self.total, "per_phase": dict(self.per_phase)}


@dataclass
class IterationRecord:
    """What one adaptive-SMC iteration did.

    ``distinct_count`` is the number of distinct parameter vectors in
    the array this iteration produced; ``ess`` is the
    duplicate-aggregated effective sample size of that array.
    """

    t: int
    epsilon: float
    alpha: float
    rho_hat: float
    sims_used: int
    distinct_count: int
    ess: float


@dataclass
class RunTrace:
    """Complete audit of one sampler run (one replicate)."""

    config: dict = field(default_factory=dict)
    init: dict | None = None
    iterations: list[IterationRecord] = field(default_factory=list)
    sim_counts: dict = field(default_factory=dict)
    final_epsilon: float | None = None
    final_ess: float | None = None
    gain: float | None = None
    target_reached: bool | None = None
    stop_iter: int | None = None
    n_final: int | None = None

    @property
    def total_sims(self) -> int:
        return self.sim_counts.get("total", 0)

    def to_dict(self) -> dict:
        return asdict(self)
