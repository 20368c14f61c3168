"""The self-calibrated SMC sampler.

The scheme has two stages.  Initialization repeatedly adds prior-predictive
batches of ``n`` particles, keeping the best ``n``, until either the
particle cloud has concentrated (determinant of its parameter variance
fell below ``SHRINK_FACTOR`` = 1/2 times the first batch's) or the realized
tolerance already beats the target, in which case the whole scheme stops
right there.  Each sequential iteration then co-calibrates the survivor
fraction ``alpha`` and the move probability ``rho`` on a 1/100 lattice:
proposals are generated incrementally while ``alpha`` grows, and every
cached proposal is re-judged against each candidate tolerance at zero
simulation cost, stopping at the smallest ``alpha`` with
``alpha + rho >= 1``.  The cached proposals then double as the first
block of kernel moves, so an iteration costs exactly ``n`` simulations:
``floor(alpha*n)`` during calibration plus ``n - floor(alpha*n)`` fresh
ones after resampling.  The run stops once the estimated move
probability drops to ``rho_stop``, and a final rejection step trims the
output to the target tolerance when possible.

Every stage draws from per-slot streams: slot i draws from a Generator
on stream ``key.child(i)``.  In a kernel-move stage (a calibration, an
iteration's fresh moves, or the moves of one fixed-schedule SMC step)
it draws its proposal's p normals and then its simulation; in a
prior-predictive stage (an initialization batch, or fixed-schedule
SMC's first array) its p prior uniforms and then its simulation.  For a
model with a batch simulator, the first ``p + draws_per_slot`` Philox
words of every slot of the stage are computed at once, and each run of
slots is one block call on :class:`SlotStreams` over them, which
reproduces those Generator draws bit for bit; a model without one draws
slot by slot from the Generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import distinct_and_ess, ess_of_thetas
from .errors import BudgetExceededError, DegenerateArrayError
from .model import (
    PHASE_ITERATION,
    ModelSpec,
    ParticleArray,
    distance,
    distances,
    prior_predictive,
    prior_sample,
    simulate,
    simulate_batch,
)
from .resampling import residual_resample
from .rng import RngKey, SlotStreams, StreamCursor, philox_words
from .samplers import _draw_proposal, proposal_factor, proposal_scale
from .trace import IterationRecord, RunTrace, SimCounter

PHASE_INIT = "init"

# top-level stream channels of a run
_CH_INIT = 0
_CH_ITER = 1
# sub-channels within one iteration
_SUB_CALIBRATE = 0
_SUB_RESAMPLE = 1
_SUB_FRESH = 2

ALPHA_GRID = 100  # candidate alphas are a/ALPHA_GRID for a = 1..ALPHA_GRID
SHRINK_FACTOR = 0.5  # init stops once v_K < SHRINK_FACTOR * v_1


@dataclass
class InitResult:
    """Output of the initialization stage.

    ``array`` holds the ``n`` smallest-distance particles among all
    ``batches_used * n`` simulated, sorted ascending by distance, and
    ``epsilon0`` is its worst distance.  ``terminal`` is true when the
    stage already reached the target tolerance, in which case ``array``
    is the final output of the whole scheme.
    """

    array: ParticleArray
    epsilon0: float
    batches_used: int
    v_prior: float
    v_final: float
    terminal: bool


@dataclass
class CalibrationOutcome:
    """Result of the alpha/rho co-calibration, including the cached
    proposals (one per survivor slot) that the iteration reuses as its
    first block of kernel moves."""

    alpha: float
    epsilon: float
    rho_hat: float
    n_block: int
    proposals: ParticleArray


def _det_var(thetas: np.ndarray) -> float:
    """Determinant of the unbiased empirical covariance of parameter rows."""
    return float(np.linalg.det(np.atleast_2d(np.cov(thetas, rowvar=False, ddof=1))))


def _stage_streams(model: ModelSpec, keys: np.ndarray) -> SlotStreams | None:
    """The streams of every slot of a stage for the block path (the
    proposal's p normals or prior uniforms, then the simulator's draws),
    or None for a model without a batch simulator."""
    if model.simulator_batch is None:
        return None
    return SlotStreams(philox_words(keys, model.param_dim + model.draws_per_slot), keys)


def _prior_stage(model, n, key, counter, phase) -> ParticleArray:
    """:func:`prior_predictive` of ``n`` slots on ``key``, bit for bit.

    For a model with a batch simulator every slot is drawn at once from
    :func:`_stage_streams` of its stream (the p prior uniforms, then the
    simulator's draws) and simulated in one :func:`simulate_batch` call.
    A model without one goes to :func:`prior_predictive`.
    """
    if model.simulator_batch is None:
        return prior_predictive(model, n, key, counter, phase)
    rng = _stage_streams(model, key.slot_keys(n))
    thetas = prior_sample(model, rng)
    zs = simulate_batch(model, thetas, rng, counter, phase)
    return ParticleArray(thetas, zs, distances(model, zs))


def _propose(
    model, sources, factor, keys, streams, lo, hi, out, counter, defer=False
) -> None:
    """One kernel proposal and its simulation for each slot i in ``[lo, hi)``:
    slot i steps from ``sources[i]`` on stream ``keys[i]`` and writes its
    proposal to row i of ``out``.  ``streams`` is :func:`_stage_streams`
    of ``keys``, and the slots are one block on it; when it is None, each
    slot draws from a Generator on its stream.  A proposal outside the
    prior box gets distance ``inf``, so that no finite tolerance accepts
    it.  It is still simulated, since the calibrated budget counts it,
    unless ``defer`` is set: then it is neither simulated nor counted and
    its summary is NaN.  ``out`` must not share memory with ``sources``."""
    thetas, zs, dists = out.thetas, out.zs, out.dists
    if streams is None:
        cursor = StreamCursor()
        for i in range(lo, hi):
            g = cursor.seek(keys[i])
            theta_star = _draw_proposal(sources[i], factor, g)
            thetas[i] = theta_star
            in_box = model.in_box(theta_star)
            if in_box or not defer:
                z_star = simulate(model, theta_star, g, counter, PHASE_ITERATION)
                zs[i] = z_star
                dists[i] = distance(model, z_star) if in_box else np.inf
            else:
                zs[i] = np.nan
                dists[i] = np.inf
        return
    rng = streams.rows(slice(lo, hi))
    normals = rng.standard_normal(model.param_dim)
    # a stacked product rounds like the per-slot factor @ normals
    theta_star = sources[lo:hi] + np.matmul(factor, normals[:, :, None])[:, :, 0]
    inside = model.in_box_rows(theta_star)
    thetas[lo:hi] = theta_star
    if defer:
        zs[lo:hi][~inside] = np.nan
        dists[lo:hi][~inside] = np.inf
        if inside.any():
            z_star = simulate_batch(
                model, theta_star[inside], rng.rows(inside), counter, PHASE_ITERATION
            )
            zs[lo:hi][inside] = z_star
            dists[lo:hi][inside] = distances(model, z_star)
    else:
        z_star = simulate_batch(model, theta_star, rng, counter, PHASE_ITERATION)
        d_star = distances(model, z_star)
        d_star[~inside] = np.inf
        zs[lo:hi] = z_star
        dists[lo:hi] = d_star


def init_stage(
    model: ModelSpec,
    n: int,
    epsilon_target: float,
    key: RngKey,
    max_batches: int = 10_000,
    counter: SimCounter | None = None,
) -> InitResult:
    """Prior-predictive warm start that decides whether to run at all.

    Batch K is drawn from streams ``key.child(K)``, as one block with a
    batch simulator (see :func:`_prior_stage`).  After each batch the
    best ``n`` particles of all batches so far are kept, sorted by
    distance; ``v_K`` is the variance determinant of their parameter
    vectors, and the realized tolerance is their worst distance.  The
    loop runs while that tolerance is still at or above the target and
    ``v_K >= SHRINK_FACTOR * v_1``; at least one pass always runs, so at
    least two batches are simulated.  A first batch whose distances all
    equal one value at or above the target cannot rank particles, so it
    raises instead of running to the cap.
    """
    if n < 2:
        raise ValueError("need at least two particles")
    if not np.isfinite(epsilon_target) or epsilon_target < 0:
        raise ValueError("target tolerance must be finite and non-negative")
    if max_batches < 2:
        raise ValueError("batch cap must allow at least two batches")

    best = _prior_stage(model, n, key.child(1), counter, PHASE_INIT).sorted_by_dist()
    if best.dists[0] == best.dists[-1] >= epsilon_target:
        raise DegenerateArrayError(
            "every distance in the first prior-predictive batch is equal"
            " and not below the target"
        )
    v1 = _det_var(best.thetas)
    # not v1 <= 0: round-off can give a singular covariance a positive det
    if np.linalg.matrix_rank(np.cov(best.thetas, rowvar=False)) < model.param_dim:
        raise DegenerateArrayError(
            "first prior-predictive batch has a singular parameter variance"
        )
    k = 1
    vk = v1
    eps0 = np.inf
    keep = np.arange(n)
    while eps0 >= epsilon_target and vk >= SHRINK_FACTOR * v1:
        k += 1
        if k > max_batches:
            partial = InitResult(
                array=best,
                epsilon0=float(best.dists[-1]),
                batches_used=k - 1,
                v_prior=v1,
                v_final=vk,
                terminal=False,
            )
            raise BudgetExceededError(
                f"initialization did not converge within {max_batches} batches",
                partial=partial,
            )
        batch = _prior_stage(model, n, key.child(k), counter, PHASE_INIT)
        # the sort is stable, so the best n of (best n so far + batch) are
        # exactly the best n of the whole pool, in the same order
        best = best.concat(batch).sorted_by_dist().take(keep)
        vk = _det_var(best.thetas)
        eps0 = float(best.dists[-1])

    return InitResult(
        array=best,
        epsilon0=eps0,
        batches_used=k,
        v_prior=v1,
        v_final=vk,
        terminal=bool(eps0 < epsilon_target),
    )


def calibrate_alpha(
    sorted_array: ParticleArray,
    sigma: np.ndarray,
    model: ModelSpec,
    key: RngKey,
    counter: SimCounter | None = None,
) -> CalibrationOutcome:
    """Find the smallest survivor fraction with ``alpha + rho >= 1``.

    Walks ``alpha = a/ALPHA_GRID`` up the lattice.  Point a covers the
    first ``hi = floor(a*n/ALPHA_GRID)`` slots and sets the candidate
    tolerance ``eps`` to the ``hi``-th order statistic of the input
    distances.  Slot i draws one proposal (one Gaussian step from the
    slot's particle plus one simulation, stream ``key.child(i)``), and
    point a counts *all* proposals of its slots within ``eps``, since an
    accept decision is free to revise once the proposal exists.  Consumes
    exactly ``floor(alpha*n)`` simulations.  Grid points covering zero
    slots (possible when ``n < ALPHA_GRID``) carry no tolerance and are
    skipped.

    Points that cannot stop are skipped without being evaluated: with
    slots ``[0, hi)`` proposed, a later point ``a'`` covering ``hi'``
    slots accepts at most ``known + (hi' - hi)`` of them, ``known`` being
    the proposals so far within its tolerance.  When even that bound
    misses ``a' + rho >= 1``, ``a'`` cannot stop, so the walk goes
    straight to the first point that could and proposes all of its new
    slots in one block.  Every slot below the stop is proposed either
    way, on its own stream, so the result and the simulations spent are
    those of the point-by-point walk.

    Ties: the survivors are the first ``hi`` slots of ``sorted_array``,
    whatever the distances beyond them.  A particle tied with ``eps`` at
    a sort position of ``hi`` or later is dropped although it lies
    within ``eps``, so among tied particles the sort position decides.
    :meth:`ParticleArray.sorted_by_dist` is stable, and an iteration's
    output puts its survivor block first, so ties keep the older
    survivor slots.
    """
    n = len(sorted_array)
    if n < 2:
        raise ValueError("need at least two particles")
    if np.any(np.diff(sorted_array.dists) < 0):
        raise ValueError("input array must be sorted ascending by distance")
    factor = proposal_factor(sigma)

    props = ParticleArray(
        np.empty((n, model.param_dim)), np.empty((n, model.summary_dim)), np.empty(n)
    )
    keys = key.slot_keys(n)
    streams = _stage_streams(model, keys)

    grid = np.arange(1, ALPHA_GRID + 1)
    his = grid * n // ALPHA_GRID
    eps_grid = sorted_array.dists[np.maximum(his, 1) - 1]
    known = np.empty(0)  # distances of the proposals so far, ascending
    a = 0
    hi = 0
    while True:
        # a' + rho >= 1 in exact integer arithmetic, with rho at its bound;
        # the last point, a' = ALPHA_GRID, always qualifies
        bound = np.searchsorted(known, eps_grid[a:], side="right") + his[a:] - hi
        could = (his[a:] > 0) & (
            grid[a:] * his[a:] + ALPHA_GRID * bound >= ALPHA_GRID * his[a:]
        )
        a += 1 + int(np.argmax(could))
        new_hi = int(his[a - 1])
        eps_prime = float(eps_grid[a - 1])
        if new_hi > hi:
            _propose(
                model, sorted_array.thetas, factor, keys, streams, hi, new_hi,
                props, counter,
            )
            block = np.sort(props.dists[hi:new_hi])
            known = np.insert(known, np.searchsorted(known, block), block)
            hi = new_hi
        n_move = int(np.searchsorted(known, eps_prime, side="right"))
        if a * hi + n_move * ALPHA_GRID >= ALPHA_GRID * hi:
            break

    return CalibrationOutcome(
        alpha=a / ALPHA_GRID,
        epsilon=eps_prime,
        rho_hat=n_move / hi,
        n_block=hi,
        proposals=props.take(np.arange(hi)),
    )


def smc_iteration(
    array: ParticleArray,
    sigma: np.ndarray,
    model: ModelSpec,
    key: RngKey,
    t: int,
    counter: SimCounter | None = None,
) -> tuple[ParticleArray, IterationRecord]:
    """One calibrated iteration; costs exactly ``len(array)`` simulations.

    After calibration, the first ``floor(alpha*n)`` output slots are the
    survivors (their own first resampling copy, by the resampler's
    layout guarantee), each replaced by its cached proposal when that
    proposal is in the box and within the calibrated tolerance.  The
    remaining slots resample a survivor and try one fresh kernel move at
    the same proposal scale, keeping the resampled source on rejection.
    """
    n = len(array)
    counter = counter if counter is not None else SimCounter()
    sims_before = counter.total
    srt = array.sorted_by_dist()

    cal = calibrate_alpha(srt, sigma, model, key.child(_SUB_CALIBRATE), counter)
    m = cal.n_block
    eps_t = cal.epsilon

    plan = residual_resample(
        np.full(m, 1.0 / m), n, key.child(_SUB_RESAMPLE).generator()
    )
    if not np.array_equal(plan.assignment[:m], np.arange(m)):
        raise AssertionError("resampling lost its leading-copy layout")
    new_array = srt.take(plan.assignment)

    # slot m + j of the tail moves on stream child(_SUB_FRESH, m + j); its
    # rows are placeholders until the fresh proposals overwrite them
    fresh = new_array.take(np.arange(m, n))
    keys = key.child(_SUB_FRESH).slot_keys(n, start=m)
    _propose(
        model, new_array.thetas[m:], proposal_factor(sigma), keys,
        _stage_streams(model, keys), 0, n - m, fresh, counter,
    )
    moves = cal.proposals.concat(fresh)
    accept = moves.dists <= eps_t
    new_array.thetas[accept] = moves.thetas[accept]
    new_array.zs[accept] = moves.zs[accept]
    new_array.dists[accept] = moves.dists[accept]

    distinct, ess = distinct_and_ess(new_array.thetas)
    record = IterationRecord(
        t=t,
        epsilon=eps_t,
        alpha=cal.alpha,
        rho_hat=cal.rho_hat,
        sims_used=counter.total - sims_before,
        distinct_count=distinct,
        ess=ess,
    )
    return new_array, record


def run_self_calibrated(
    model: ModelSpec,
    n: int,
    epsilon_target: float,
    key: RngKey,
    rho_stop: float = 0.1,
    max_iters: int = 200,
    counter: SimCounter | None = None,
) -> tuple[ParticleArray, RunTrace]:
    """Full pipeline: initialization, calibrated iterations, final trim.

    Iterations stop at the first estimated move probability at or below
    ``rho_stop``, or once the calibrated tolerance reaches the target,
    or at ``max_iters``.  Post-processing keeps the particles within the
    target tolerance when any exist (zero extra simulations); otherwise
    the full array is returned at its achieved tolerance and the trace
    carries ``target_reached=False``.  The trace's ``stop_iter`` is the
    iteration whose move probability tripped the stop rule, 0 when the
    run ended at initialization, and None when another rule ended it.

    Reproducibility: every simulation's stream is derived from ``key``
    plus the (stage, iteration, slot) coordinates, never from execution
    order, so results are bit-identical for any worker count.
    """
    if not 0.0 < rho_stop <= 1.0:
        raise ValueError("rho_stop must be in (0, 1]")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    counter = counter if counter is not None else SimCounter()
    init_before = counter.count(PHASE_INIT)
    iter_before = counter.count(PHASE_ITERATION)

    trace = RunTrace(
        config={
            "sampler": "self-calibrated",
            "model": model.name,
            "n": n,
            "epsilon_target": epsilon_target,
            "rho_stop": rho_stop,
            "max_iters": max_iters,
        }
    )

    init = init_stage(model, n, epsilon_target, key.child(_CH_INIT), counter=counter)
    trace.init = {
        "batches_used": init.batches_used,
        "epsilon0": init.epsilon0,
        "v_prior": init.v_prior,
        "v_final": init.v_final,
        "terminal": init.terminal,
        "ess": ess_of_thetas(init.array.thetas),
    }

    current = init.array
    eps_last = init.epsilon0
    rho_last = 1.0  # before any iteration, every resampled copy counts as movable
    t = 0
    stop_iter: int | None = None

    if init.terminal:
        stop_iter = 0
    else:
        while t < max_iters:
            if rho_last <= rho_stop:
                stop_iter = t
                break
            if eps_last <= epsilon_target:
                break
            t += 1
            sigma = proposal_scale(current.thetas)
            current, record = smc_iteration(
                current, sigma, model, key.child(_CH_ITER, t), t, counter
            )
            if record.sims_used != n:
                raise AssertionError(
                    f"iteration {t} used {record.sims_used} simulations, expected {n}"
                )
            if record.epsilon > eps_last:
                raise AssertionError(
                    f"tolerance increased at iteration {t}: "
                    f"{eps_last} -> {record.epsilon}"
                )
            trace.iterations.append(record)
            rho_last = record.rho_hat
            eps_last = record.epsilon

    init_used = counter.count(PHASE_INIT) - init_before
    iter_used = counter.count(PHASE_ITERATION) - iter_before
    if init_used != init.batches_used * n or iter_used != n * len(trace.iterations):
        raise AssertionError(
            "simulation budget identity violated: "
            f"init {init_used} != {init.batches_used}*{n} or "
            f"iterations {iter_used} != {len(trace.iterations)}*{n}"
        )

    final = current.sorted_by_dist()
    k = int(np.searchsorted(final.dists, epsilon_target, side="right"))
    if k > 0:
        final = final.take(np.arange(k))
        trace.target_reached = True
        trace.final_epsilon = float(min(eps_last, epsilon_target))
    else:
        trace.target_reached = False
        trace.final_epsilon = float(eps_last)

    trace.stop_iter = stop_iter
    trace.n_final = len(final)
    trace.final_ess = ess_of_thetas(final.thetas)
    trace.sim_counts = counter.snapshot()
    return final, trace
