"""Baseline likelihood-free samplers: rejection, MCMC kernel, fixed-schedule SMC.

These serve both as usable samplers and as distributional oracles for
the adaptive scheme: rejection output at tolerance ``eps`` is an exact
draw from the target, the MCMC kernel leaves that target invariant, and
the fixed-schedule SMC sampler is the non-adaptive ancestor the
self-calibrated sampler improves on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .adaptive import (
    _draw_proposal, _move_step, _prior_stage, proposal_factor, proposal_scale
)
from .diagnostics import distinct_and_ess
from .errors import ScheduleInfeasibleError
from .model import (
    PHASE_PRIOR,
    ModelSpec,
    Particle,
    ParticleArray,
    distance,
    prior_predictive,
    simulate,
)
from .rng import RngKey, StreamCursor
from .trace import IterationRecord, RunTrace, SimCounter

PHASE_MCMC = "mcmc"

# stream sub-indices within one naive-SMC iteration
_SUB_RESAMPLE = 0
_SUB_MOVE = 1


@dataclass(frozen=True)
class McmcKernelConfig:
    """Gaussian random-walk kernel targeting the tolerance-``epsilon`` posterior.

    With a box-uniform prior the prior ratio is an indicator, so the
    kernel rejects out-of-box proposals before simulating them.
    """

    sigma: np.ndarray
    epsilon: float
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ValueError("tolerance must be non-negative, not NaN")
        factor = proposal_factor(self.sigma)
        factor.setflags(write=False)
        object.__setattr__(self, "sigma", np.atleast_2d(np.asarray(self.sigma, float)))
        object.__setattr__(self, "_factor", factor)


class ProposalOutcome(NamedTuple):
    """The raw proposal made by one kernel step, kept even when rejected
    so callers can reuse it.  ``z``/``dist`` are None when the box
    rejected before simulating."""

    theta: np.ndarray
    z: np.ndarray | None
    dist: float | None


class StepResult(NamedTuple):
    state: Particle
    moved: bool
    proposal: ProposalOutcome


def mcmc_abc_step(
    current: Particle,
    cfg: McmcKernelConfig,
    model: ModelSpec,
    rng: np.random.Generator,
    counter=None,
) -> StepResult:
    """One kernel step from ``current`` (which must satisfy the tolerance)."""
    if current.dist > cfg.epsilon:
        raise ValueError("current state violates the kernel tolerance")
    theta_star = _draw_proposal(current.theta, cfg._factor, rng)
    if not model.in_box(theta_star):
        return StepResult(current, False, ProposalOutcome(theta_star, None, None))

    z_star = simulate(model, theta_star, rng, counter, PHASE_MCMC)
    d_star = distance(model, z_star)
    proposal = ProposalOutcome(theta_star, z_star, d_star)
    if d_star <= cfg.epsilon:
        return StepResult(Particle(theta_star, z_star, d_star), True, proposal)
    return StepResult(current, False, proposal)


def mcmc_abc_chain(
    init: Particle,
    n_steps: int,
    cfg: McmcKernelConfig,
    model: ModelSpec,
    key: RngKey,
    counter=None,
) -> ParticleArray:
    """Run the kernel ``n_steps`` times; at most ``n_steps`` simulations.

    The chain comes back with its start state first, ``n_steps + 1``
    particles.  Step ``s`` draws from its own derived stream
    ``key.child(s)``.
    """
    if init.dist > cfg.epsilon:
        raise ValueError("chain must start within the kernel tolerance")
    chain = [init]
    cursor = StreamCursor()
    step_keys = key.slot_keys(n_steps)
    state = init
    for s in range(n_steps):
        state = mcmc_abc_step(state, cfg, model, cursor.seek(step_keys[s]), counter).state
        chain.append(state)
    return ParticleArray(
        np.stack([p.theta for p in chain]),
        np.stack([p.z for p in chain]),
        np.array([p.dist for p in chain]),
    )


def abc_reject(
    model: ModelSpec,
    n_prior: int,
    key: RngKey,
    epsilon: float,
    counter=None,
) -> ParticleArray:
    """Plain rejection: simulate ``n_prior`` prior-predictive particles and
    keep those within the tolerance ``epsilon``, sorted ascending by
    distance.  An empty result is valid."""
    if n_prior < 1:
        raise ValueError("n_prior must be positive")
    if not epsilon >= 0:
        raise ValueError("tolerance must be non-negative, not NaN")

    pool = prior_predictive(model, n_prior, key, counter)
    return pool.take(np.flatnonzero(pool.dists <= epsilon)).sorted_by_dist()


def naive_smc(
    model: ModelSpec,
    n: int,
    schedule: list[float],
    key: RngKey,
    counter=None,
) -> tuple[ParticleArray, RunTrace]:
    """Fixed-schedule SMC: sort, keep the within-tolerance prefix,
    residual-resample it back to n, move every particle with one kernel
    step at the new tolerance.

    The first array is n prior-predictive draws on streams
    ``key.child(0, j)``, drawn like an initialization batch of the
    self-calibrated sampler.  The proposal covariance for iteration t
    comes from the array as it stood before the iteration.  Each step is
    the self-calibrated sampler's move step with no cached proposals:
    the within-tolerance prefix is resampled on stream
    ``key.child(1, t, 0)``, slot j proposes from its copy on stream
    ``key.child(1, t, 1, j)``, and the proposal replaces the particle
    when it is in the box and within the tolerance.  Out-of-box
    proposals are deferred, neither simulated nor counted, so a step
    costs at most n simulations, booked as ``iteration`` simulations.
    With a batch simulator the first array and each step's block draw
    every slot from its Philox words at once; otherwise slot by slot
    from its Generator, with the same results either way.  The trace
    records the run's settings; a run that returns has reached the
    schedule's last tolerance with all n particles.
    """
    sched = [float(e) for e in schedule]
    if len(sched) == 0:
        raise ValueError("schedule must not be empty")
    if any(e2 >= e1 for e1, e2 in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly decreasing")
    if sched[-1] < 0 or not all(math.isfinite(e) for e in sched):
        raise ValueError("tolerances must be finite and non-negative")
    if n < 2:
        raise ValueError("need at least two particles")

    counter = counter if counter is not None else SimCounter()
    trace = RunTrace(
        config={
            "sampler": "naive-smc",
            "model": model.name,
            "n": n,
            "schedule": list(schedule),
        }
    )
    arr = _prior_stage(model, n, key.child(0), counter, PHASE_PRIOR)

    for t, eps_next in enumerate(sched, start=1):
        factor = proposal_factor(proposal_scale(arr.thetas))
        srt = arr.sorted_by_dist()
        m = int(np.searchsorted(srt.dists, eps_next, side="right"))
        if m == 0:
            raise ScheduleInfeasibleError(
                f"no particle within tolerance {eps_next} at schedule step {t}"
            )
        sims_before = counter.total
        arr, accepted = _move_step(
            model, srt, m, eps_next, factor, key.child(1, t, _SUB_RESAMPLE).generator(),
            key.child(1, t, _SUB_MOVE), counter, defer=True,
        )
        distinct, ess = distinct_and_ess(arr.thetas)
        trace.iterations.append(
            IterationRecord(
                t=t,
                epsilon=eps_next,
                alpha=m / n,
                rho_hat=accepted / n,
                sims_used=counter.total - sims_before,
                distinct_count=distinct,
                ess=ess,
            )
        )

    trace.final_epsilon = sched[-1]
    trace.final_ess = trace.iterations[-1].ess
    trace.target_reached = True
    trace.n_final = n
    trace.sim_counts = counter.snapshot()
    return arr.sorted_by_dist(), trace
