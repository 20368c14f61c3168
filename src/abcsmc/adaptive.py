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
probability drops to ``RHO_STOP``, and a final rejection step trims the
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
slot by slot from the Generators.  The kernel-move layer lives here:
the proposal scale and factor, one slot's draw, block proposals, and
the resample-and-move step that fixed-schedule SMC shares.
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
MAX_INIT_BATCHES = 10_000  # init gives up after this many batches
RHO_STOP = 0.1  # iterations stop once rho_hat <= RHO_STOP
MAX_ITERS = 200  # and at the latest after MAX_ITERS iterations


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
    proposals (one per survivor slot, so ``len(proposals)`` is the
    survivor count) that the iteration reuses as its first block of
    kernel moves."""

    alpha: float
    epsilon: float
    rho_hat: float
    proposals: ParticleArray


def _det_var(cov: np.ndarray) -> float:
    """Determinant of an unbiased ``np.cov(thetas, rowvar=False)``, which
    is 0-d for one parameter."""
    return float(np.linalg.det(np.atleast_2d(cov)))


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


def _draw_proposal(
    theta: np.ndarray, factor: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    p = len(theta)
    if p == 1:
        return np.array([theta[0] + factor[0, 0] * rng.standard_normal()])
    return theta + factor @ rng.standard_normal(p)


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


def _move_step(
    model, srt, m, epsilon, factor, resample_rng, key, counter, made=None, defer=False
) -> tuple[ParticleArray, int]:
    """Resample the first ``m`` particles of ``srt`` to its ``n`` slots and
    move every slot once; returns the moved array and its accepted count.

    The ``m`` survivors are residual-resampled with equal weights on
    ``resample_rng``, so slots ``[0, m)`` hold one in-order copy of each.
    ``made`` holds proposals already made for slots ``[0, k)``, ``k =
    len(made)``; each slot ``j`` in ``[k, n)`` proposes from its copy on
    stream ``key.child(j)`` through :func:`_propose` (with ``defer``).  A
    proposal within ``epsilon`` is written over its slot.
    """
    n = len(srt)
    assignment = residual_resample(np.full(m, 1.0 / m), n, resample_rng)
    if not np.array_equal(assignment[:m], np.arange(m)):
        raise AssertionError("resampling lost its leading-copy layout")
    arr = srt.take(assignment)

    k = 0 if made is None else len(made)
    keys = key.slot_keys(n, start=k)
    fresh = ParticleArray(
        np.empty_like(arr.thetas[k:]), np.empty_like(arr.zs[k:]), np.empty(n - k)
    )
    _propose(
        model, arr.thetas[k:], factor, keys, _stage_streams(model, keys), 0, n - k,
        fresh, counter, defer=defer,
    )
    moves = fresh if made is None else made.concat(fresh)
    accept = moves.dists <= epsilon
    arr.thetas[accept] = moves.thetas[accept]
    arr.zs[accept] = moves.zs[accept]
    arr.dists[accept] = moves.dists[accept]
    return arr, int(np.count_nonzero(accept))


def init_stage(
    model: ModelSpec,
    n: int,
    epsilon_target: float,
    key: RngKey,
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
    raises instead of running to the cap of ``MAX_INIT_BATCHES``.
    """
    if n < 2:
        raise ValueError("need at least two particles")
    if not np.isfinite(epsilon_target) or epsilon_target < 0:
        raise ValueError("target tolerance must be finite and non-negative")

    best = _prior_stage(model, n, key.child(1), counter, PHASE_INIT).sorted_by_dist()
    if best.dists[0] == best.dists[-1] >= epsilon_target:
        raise DegenerateArrayError(
            "every distance in the first prior-predictive batch is equal"
            " and not below the target"
        )
    cov1 = np.cov(best.thetas, rowvar=False)
    v1 = _det_var(cov1)
    # not v1 <= 0: round-off can give a singular covariance a positive det;
    # a 0-d cov1 (p = 1) takes matrix_rank's nonzero test, not an SVD
    if np.linalg.matrix_rank(cov1) < model.param_dim:
        raise DegenerateArrayError(
            "first prior-predictive batch has a singular parameter variance"
        )
    k = 1
    vk = v1
    eps0 = np.inf
    keep = np.arange(n)
    while eps0 >= epsilon_target and vk >= SHRINK_FACTOR * v1:
        k += 1
        if k > MAX_INIT_BATCHES:
            partial = InitResult(
                array=best,
                epsilon0=float(best.dists[-1]),
                batches_used=k - 1,
                v_prior=v1,
                v_final=vk,
                terminal=False,
            )
            raise BudgetExceededError(
                f"initialization did not converge within {MAX_INIT_BATCHES} batches",
                partial=partial,
            )
        batch = _prior_stage(model, n, key.child(k), counter, PHASE_INIT)
        # the sort is stable, so the best n of (best n so far + batch) are
        # exactly the best n of the whole pool, in the same order
        best = best.concat(batch).sorted_by_dist().take(keep)
        vk = _det_var(np.cov(best.thetas, rowvar=False))
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
    counter = counter if counter is not None else SimCounter()
    sims_before = counter.total
    srt = array.sorted_by_dist()

    cal = calibrate_alpha(srt, sigma, model, key.child(_SUB_CALIBRATE), counter)
    new_array, _ = _move_step(
        model, srt, len(cal.proposals), cal.epsilon, proposal_factor(sigma),
        key.child(_SUB_RESAMPLE).generator(), key.child(_SUB_FRESH), counter,
        made=cal.proposals,
    )
    distinct, ess = distinct_and_ess(new_array.thetas)
    record = IterationRecord(
        t=t,
        epsilon=cal.epsilon,
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
    counter: SimCounter | None = None,
) -> tuple[ParticleArray, RunTrace]:
    """Full pipeline: initialization, calibrated iterations, final trim.

    Iterations stop at the first estimated move probability at or below
    ``RHO_STOP``, or once the calibrated tolerance reaches the target,
    or at ``MAX_ITERS``.  Post-processing keeps the particles within the
    target tolerance when any exist (zero extra simulations); otherwise
    the full array is returned at its achieved tolerance and the trace
    carries ``target_reached=False``.  The trace's ``stop_iter`` is the
    iteration whose move probability tripped the stop rule, 0 when the
    run ended at initialization, and None when another rule ended it.

    Reproducibility: every simulation's stream is derived from ``key``
    plus the (stage, iteration, slot) coordinates, never from execution
    order, so results are bit-identical for any worker count.
    """
    counter = counter if counter is not None else SimCounter()
    init_before = counter.count(PHASE_INIT)
    iter_before = counter.count(PHASE_ITERATION)

    trace = RunTrace(
        config={
            "sampler": "self-calibrated",
            "model": model.name,
            "n": n,
            "epsilon_target": epsilon_target,
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
        while t < MAX_ITERS:
            if rho_last <= RHO_STOP:
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
