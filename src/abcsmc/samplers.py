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

from .diagnostics import distinct_and_ess
from .errors import DegenerateArrayError, ScheduleInfeasibleError
from .model import (
    PHASE_PRIOR,
    ModelSpec,
    Particle,
    ParticleArray,
    distance,
    prior_predictive,
    simulate,
)
from .resampling import residual_resample
from .rng import RngKey, StreamCursor
from .trace import IterationRecord, RunTrace, SimCounter

PHASE_MCMC = "mcmc"

# stream sub-indices within one naive-SMC iteration
_SUB_RESAMPLE = 0
_SUB_MOVE = 1


def proposal_factor(sigma: np.ndarray) -> np.ndarray:
    """Matrix A with A A' = sigma, valid for any symmetric PSD sigma."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError("proposal covariance must be square")
    if not np.allclose(sigma, sigma.T):
        raise ValueError("proposal covariance must be symmetric")
    vals, vecs = np.linalg.eigh(sigma)
    if np.any(vals < -1e-10 * max(1.0, float(vals.max(initial=0.0)))):
        raise ValueError("proposal covariance must be positive semidefinite")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


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
        if self.epsilon < 0:
            raise ValueError("tolerance must be non-negative")
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


def _draw_proposal(
    theta: np.ndarray, factor: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    p = len(theta)
    if p == 1:
        return np.array([theta[0] + factor[0, 0] * rng.standard_normal()])
    return theta + factor @ rng.standard_normal(p)


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
) -> list[Particle]:
    """Run the kernel ``n_steps`` times; at most ``n_steps`` simulations.

    Step ``s`` draws from its own derived stream ``key.child(s)``.
    """
    if init.dist > cfg.epsilon:
        raise ValueError("chain must start within the kernel tolerance")
    chain = [init]
    if n_steps == 0:
        return chain
    cursor = StreamCursor()
    step_keys = key.slot_keys(n_steps)
    state = init
    for s in range(n_steps):
        state = mcmc_abc_step(state, cfg, model, cursor.seek(step_keys[s]), counter).state
        chain.append(state)
    return chain


@dataclass
class RejectionResult:
    """Accepted particles (sorted ascending by distance) plus the realized
    tolerance.  An empty result is valid in tolerance mode."""

    particles: ParticleArray
    epsilon: float
    n_prior: int

    @property
    def empty(self) -> bool:
        return len(self.particles) == 0


def abc_reject(
    model: ModelSpec,
    n_prior: int,
    key: RngKey,
    epsilon: float | None = None,
    quantile: float | None = None,
    counter=None,
) -> RejectionResult:
    """Plain rejection: simulate ``n_prior`` prior-predictive particles and
    keep those within a tolerance, or the best quantile of them.

    Quantile mode keeps the ``floor(quantile * n_prior)`` smallest
    distances and reports the realized tolerance, the corresponding
    order statistic of the simulated distances.
    """
    if n_prior < 1:
        raise ValueError("n_prior must be positive")
    if (epsilon is None) == (quantile is None):
        raise ValueError("exactly one of epsilon or quantile must be given")
    if epsilon is not None and epsilon < 0:
        raise ValueError("tolerance must be non-negative")
    if quantile is not None:
        if not 0 < quantile <= 1:
            raise ValueError("quantile must be in (0, 1]")
        if math.floor(quantile * n_prior) < 1:
            raise ValueError("quantile * n_prior must be at least 1")

    pool = prior_predictive(model, n_prior, key, counter)

    if epsilon is not None:
        kept = pool.take(np.flatnonzero(pool.dists <= epsilon)).sorted_by_dist()
        return RejectionResult(kept, float(epsilon), n_prior)

    k = math.floor(quantile * n_prior)
    # k smallest by distance, ties by original index (stable)
    idx = np.argsort(pool.dists, kind="stable")[:k]
    kept = pool.take(idx)
    return RejectionResult(kept, float(kept.dists[-1]), n_prior)


def proposal_scale(thetas: np.ndarray) -> np.ndarray:
    """Proposal covariance: twice the unbiased empirical covariance.

    A tiny ridge is added if the covariance is singular; fewer than two
    distinct parameter vectors cannot scale a proposal at all.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.ndim != 2:
        raise ValueError("expected a (n, p) collection of parameter vectors")
    n, p = thetas.shape
    if n < 2 or bool(np.all(thetas == thetas[0])):
        raise DegenerateArrayError(
            "need at least two distinct parameter vectors for a proposal scale"
        )
    cov = np.atleast_2d(np.cov(thetas, rowvar=False, ddof=1))
    sigma = 2.0 * cov
    if np.linalg.det(sigma) <= 0.0:
        ridge = 1e-12 * np.trace(sigma) / p
        sigma = sigma + ridge * np.eye(p)
    return sigma


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
    comes from the array as it stood before the iteration.  Each step's
    moves are one block, the self-calibrated sampler's kernel-move
    primitive: slot j proposes from its resampled particle on stream
    ``key.child(1, t, 1, j)``, and the proposal replaces the particle
    when it is in the box and within the tolerance.  Out-of-box proposals are deferred, neither simulated nor
    counted, so a step costs at most n simulations, booked as
    ``iteration`` simulations.  With a batch simulator the first array
    and each step's block draw every slot from its Philox words at once;
    otherwise slot by slot from its Generator, with the same results
    either way.
    """
    # a function-level import: adaptive imports this module
    from .adaptive import _prior_stage, _propose, _stage_streams

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
    trace = RunTrace()
    arr = _prior_stage(model, n, key.child(0), counter, PHASE_PRIOR)

    for t, eps_next in enumerate(sched, start=1):
        factor = proposal_factor(proposal_scale(arr.thetas))
        srt = arr.sorted_by_dist()
        m = int(np.searchsorted(srt.dists, eps_next, side="right"))
        if m == 0:
            raise ScheduleInfeasibleError(
                f"no particle within tolerance {eps_next} at schedule step {t}"
            )
        alpha_t = m / n
        plan = residual_resample(
            np.full(m, 1.0 / m), n, key.child(1, t, _SUB_RESAMPLE).generator()
        )
        arr = srt.take(plan.assignment)

        move_keys = key.child(1, t, _SUB_MOVE).slot_keys(n)
        moves = ParticleArray(
            np.empty_like(arr.thetas), np.empty_like(arr.zs), np.empty(n)
        )
        sims_before = counter.total
        _propose(
            model, arr.thetas, factor, move_keys, _stage_streams(model, move_keys),
            0, n, moves, counter, defer=True,
        )
        accept = moves.dists <= eps_next
        arr.thetas[accept] = moves.thetas[accept]
        arr.zs[accept] = moves.zs[accept]
        arr.dists[accept] = moves.dists[accept]
        distinct, ess = distinct_and_ess(arr.thetas)
        trace.iterations.append(
            IterationRecord(
                t=t,
                epsilon=eps_next,
                alpha=alpha_t,
                rho_hat=int(np.count_nonzero(accept)) / n,
                sims_used=counter.total - sims_before,
                distinct_count=distinct,
                ess=ess,
            )
        )

    trace.final_epsilon = sched[-1]
    trace.final_ess = trace.iterations[-1].ess
    trace.sim_counts = counter.snapshot()
    return arr.sorted_by_dist(), trace
