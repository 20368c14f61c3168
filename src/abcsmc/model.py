"""Model contract: parameter priors, simulators, summaries, distances.

A :class:`ModelSpec` bundles everything a likelihood-free sampler needs:
a box-uniform prior over parameters, a stochastic simulator mapping a
parameter vector to a summary vector, the observed summary, and
per-coordinate scales for the distance.  Instances are immutable and
safe to share across threads; the only mutable object in a run is the
simulation counter passed around explicitly.

The built-in ``toy`` model has a scalar parameter with a box-uniform
prior, and simulates ``z = theta + e`` where ``e`` is drawn from an
equal-weight mixture of a standard normal and a normal with standard
deviation 0.1.  The observed summary is 0.

A model may also provide a batch simulator: the scalar simulator
written on arrays, which maps an (m, p) array of parameters and the
lockstep streams of m slots (:class:`abcsmc.rng.SlotStreams`) to an
(m, summary_dim) array of summaries.  Making the same draws in the same
order as the scalar simulator, it returns the same summaries bit for
bit, so a model gives the same run with or without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .diagnostics import duplicate_groups
from .errors import SimulationError
from .rng import RngKey, SlotStreams, StreamCursor

PHASE_PRIOR = "prior-predictive"
PHASE_ITERATION = "iteration"


class Particle(NamedTuple):
    theta: np.ndarray
    z: np.ndarray
    dist: float


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of an inference problem.

    prior_box has shape (param_dim, 2) with strictly increasing rows of
    finite width (the prior is drawn as ``lower + width * u``);
    distance_scales are strictly positive and default to 1 per summary
    coordinate.  The simulator must return a length-``summary_dim``
    vector and may consume its rng stream freely.  The optional
    ``simulator_batch(thetas, rng)`` simulates every row of an (m, p)
    parameter array at once from the slots' :class:`SlotStreams`
    ``rng``, taking ``draws_per_slot`` draws per slot (each value of
    ``rng.random`` or ``rng.standard_normal`` is one draw), and returns
    (m, summary_dim) summaries; it must make the scalar simulator's draws
    in the same order.  The self-calibrated sampler (initialization
    batches and kernel moves) and fixed-schedule SMC (first array and
    moves) use it when it is given; plain rejection does not.
    """

    param_dim: int
    prior_box: np.ndarray
    summary_dim: int
    observed: np.ndarray
    simulator: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    distance_scales: np.ndarray | None = None
    name: str = "custom"
    simulator_batch: Callable[[np.ndarray, SlotStreams], np.ndarray] | None = None
    draws_per_slot: int = 0

    def __post_init__(self):
        if self.param_dim < 1 or self.summary_dim < 1:
            raise ValueError("param_dim and summary_dim must be positive")
        if self.draws_per_slot < 0:
            raise ValueError("draws_per_slot must be non-negative")
        box = np.asarray(self.prior_box, dtype=float).reshape(self.param_dim, 2)
        if not np.all(box[:, 0] < box[:, 1]):
            raise ValueError("prior box must have lower < upper in every coordinate")
        with np.errstate(over="ignore"):
            span = box[:, 1] - box[:, 0]
        if not np.all(np.isfinite(span)):
            raise ValueError("prior box must have a finite width in every coordinate")
        obs = np.asarray(self.observed, dtype=float).reshape(self.summary_dim)
        scales = self.distance_scales
        scales = (
            np.ones(self.summary_dim)
            if scales is None
            else np.asarray(scales, dtype=float).reshape(self.summary_dim)
        )
        if not np.all(scales > 0):
            raise ValueError("distance scales must be strictly positive")
        for arr in (box, obs, scales):
            arr.setflags(write=False)
        object.__setattr__(self, "prior_box", box)
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "distance_scales", scales)
        # cached scalars for the 1-d fast path and vectorised helpers
        object.__setattr__(self, "_inv_scales", 1.0 / scales)
        self._inv_scales.setflags(write=False)
        object.__setattr__(self, "_obs0", float(obs[0]))
        object.__setattr__(self, "_inv0", float(1.0 / scales[0]))
        object.__setattr__(self, "_lo", box[:, 0])
        object.__setattr__(self, "_hi", box[:, 1])
        span.setflags(write=False)
        object.__setattr__(self, "_span", span)

    def in_box(self, theta: np.ndarray) -> bool:
        if self.param_dim == 1:
            t = theta[0]
            return self._lo[0] <= t <= self._hi[0]
        return bool(np.all(theta >= self._lo) and np.all(theta <= self._hi))

    def in_box_rows(self, thetas: np.ndarray) -> np.ndarray:
        """:meth:`in_box` of every row of an (m, p) array."""
        return np.all((thetas >= self._lo) & (thetas <= self._hi), axis=1)


def prior_sample(
    model: ModelSpec, rng: np.random.Generator | SlotStreams, size: int | None = None
) -> np.ndarray:
    """Draw from the box-uniform prior: one vector, or (size, p) if given.

    The draw is ``lo + (hi - lo) * rng.random(...)``, numpy's own formula
    for ``rng.uniform(lo, hi)``, so it equals that call bit for bit
    without its per-call argument checks.  On the lockstep streams of m
    slots (:class:`SlotStreams`, no ``size``) it returns the (m, p)
    draws the slots' Generators would make.
    """
    shape = model.param_dim if size is None else (size, model.param_dim)
    return model._lo + model._span * rng.random(shape)


def simulate(
    model: ModelSpec,
    theta: np.ndarray,
    rng: np.random.Generator,
    counter=None,
    phase: str = "simulate",
) -> np.ndarray:
    """Run the simulator once; every call costs exactly one counter tick.

    Simulator exceptions, a summary of the wrong length (or a scalar) and a
    NaN or infinite summary value all raise :class:`SimulationError` — a failed
    simulation aborts the run, it is never retried or counted.
    """
    try:
        z = model.simulator(theta, rng)
    except Exception as exc:  # tagged and re-raised, never swallowed
        raise SimulationError(
            f"simulator for model '{model.name}' failed at theta={theta!r}", theta
        ) from exc
    try:
        if len(z) != model.summary_dim:
            raise SimulationError(
                f"simulator for model '{model.name}' returned {len(z)} values, "
                f"expected {model.summary_dim}",
                theta,
            )
    except TypeError as exc:  # a scalar summary has no length
        raise SimulationError(
            f"simulator for model '{model.name}' returned the scalar {z!r}", theta
        ) from exc
    if not (math.isfinite(z[0]) if model.summary_dim == 1 else np.isfinite(z).all()):
        raise SimulationError(
            f"simulator for model '{model.name}' returned a non-finite summary "
            f"{z!r} at theta={theta!r}",
            theta,
        )
    if counter is not None:
        counter.bump(phase)
    return z


def simulate_batch(
    model: ModelSpec,
    thetas: np.ndarray,
    rng: SlotStreams,
    counter=None,
    phase: str = "simulate",
) -> np.ndarray:
    """Run the batch simulator on every row of ``thetas``, slot i drawing
    from row i of ``rng``; row i equals what :func:`simulate` gives on
    slot i's Generator.

    The block is checked once and counted in one bump: an exception, a
    result that is not an (m, summary_dim) array, or a NaN or infinite
    value raises :class:`SimulationError` before the counter moves.
    """
    m = len(thetas)
    try:
        zs = np.asarray(model.simulator_batch(thetas, rng), dtype=float)
    except Exception as exc:  # tagged and re-raised, never swallowed
        raise SimulationError(
            f"batch simulator for model '{model.name}' failed on {m} rows"
        ) from exc
    if zs.shape != (m, model.summary_dim):
        raise SimulationError(
            f"batch simulator for model '{model.name}' returned shape {zs.shape}, "
            f"expected {(m, model.summary_dim)}"
        )
    finite = np.isfinite(zs).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise SimulationError(
            f"batch simulator for model '{model.name}' returned a non-finite "
            f"summary {zs[i]!r} at theta={thetas[i]!r}",
            thetas[i],
        )
    if counter is not None:
        counter.bump(phase, m)
    return zs


def distance(model: ModelSpec, z: np.ndarray) -> float:
    """Euclidean distance between scaled summaries and the observation."""
    if model.summary_dim == 1:
        return abs((float(z[0]) - model._obs0) * model._inv0)
    diff = (np.asarray(z, dtype=float) - model.observed) * model._inv_scales
    return float(math.sqrt(diff @ diff))


def distances(model: ModelSpec, zs: np.ndarray) -> np.ndarray:
    """:func:`distance` of every row of an (m, summary_dim) summary array."""
    if model.summary_dim == 1:
        return np.abs((zs[:, 0] - model._obs0) * model._inv0)
    diff = (zs - model.observed) * model._inv_scales
    # a stacked product rounds like the per-row diff @ diff
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


def prior_predictive(
    model: ModelSpec,
    n: int,
    key: RngKey,
    counter=None,
    phase: str = PHASE_PRIOR,
) -> ParticleArray:
    """Simulate n particles from the prior-predictive: slot i draws its
    parameter and its summary from stream ``key.child(i)``."""
    out = ParticleArray(
        np.empty((n, model.param_dim)), np.empty((n, model.summary_dim)), np.empty(n)
    )
    _prior_slots(model, key.slot_keys(n), range(n), out, counter, phase)
    return out


def _prior_slots(model: ModelSpec, keys, slots, out, counter, phase) -> None:
    """The prior-predictive draw of each slot i in ``slots``, from a
    Generator on stream ``keys[i]``, written to row i of ``out``."""
    thetas, zs, dists = out.thetas, out.zs, out.dists
    cursor = StreamCursor()
    for i in slots:
        g = cursor.seek(keys[i])
        thetas[i] = prior_sample(model, g)
        zs[i] = simulate(model, thetas[i], g, counter, phase)
        dists[i] = distance(model, zs[i])


def toy_model(prior_halfwidth: float = 10.0) -> ModelSpec:
    """Scalar location model with two-scale normal noise, observed at 0."""
    if not (prior_halfwidth > 0 and math.isfinite(prior_halfwidth)):
        raise ValueError("prior halfwidth must be positive and finite")

    def _sim(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        sd = 1.0 if rng.random() < 0.5 else 0.1
        return np.array([theta[0] + sd * rng.standard_normal()])

    def _sim_batch(thetas: np.ndarray, rng: SlotStreams) -> np.ndarray:
        sd = np.where(rng.random() < 0.5, 1.0, 0.1)
        return thetas + (sd * rng.standard_normal())[:, None]

    return ModelSpec(
        param_dim=1,
        prior_box=np.array([[-prior_halfwidth, prior_halfwidth]]),
        summary_dim=1,
        observed=np.array([0.0]),
        simulator=_sim,
        name="toy",
        simulator_batch=_sim_batch,
        draws_per_slot=2,
    )


@dataclass
class ParticleArray:
    """Column-wise storage for n particles (thetas, summaries, distances)."""

    thetas: np.ndarray
    zs: np.ndarray
    dists: np.ndarray

    def __post_init__(self):
        n = len(self.dists)
        if len(self.thetas) != n or len(self.zs) != n:
            raise ValueError("particle columns must have equal length")

    def __len__(self) -> int:
        return len(self.dists)

    def particle(self, i: int) -> Particle:
        return Particle(self.thetas[i], self.zs[i], float(self.dists[i]))

    def take(self, idx) -> "ParticleArray":
        return ParticleArray(self.thetas[idx], self.zs[idx], self.dists[idx])

    def concat(self, other: "ParticleArray") -> "ParticleArray":
        """This array's particles followed by ``other``'s."""
        return ParticleArray(
            np.concatenate([self.thetas, other.thetas]),
            np.concatenate([self.zs, other.zs]),
            np.concatenate([self.dists, other.dists]),
        )

    def sorted_by_dist(self) -> "ParticleArray":
        """Ascending by distance; ties keep original order (stable)."""
        return self.take(np.argsort(self.dists, kind="stable"))

    def distinct_count(self) -> int:
        return int(duplicate_groups(self.thetas).max(initial=-1)) + 1
