"""Quality and cost metrics for sampler outputs.

The headline efficiency number is the gain factor: how many simulations
plain rejection would have needed to deliver the same effective sample
size at the same tolerance, divided by what the sampler actually spent.
Because resampling duplicates particles, the effective sample size is
computed on distinct parameter vectors with their weights aggregated;
counting copies as independent would flatter the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, ParticleArray, prior_predictive
from .rng import RngKey

PHASE_REFERENCE = "reference"


@dataclass
class WeightedSample:
    particles: ParticleArray
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.particles):
            raise ValueError("one weight per particle required")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if len(self.weights) and self.weights.sum() <= 0:
            raise ValueError("weights must not all be zero")

    @classmethod
    def equal(cls, particles: ParticleArray) -> "WeightedSample":
        n = len(particles)
        return cls(particles, np.full(n, 1.0 / n if n else 1.0))


def ess_of_thetas(thetas: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Effective sample size after aggregating duplicate parameter vectors.

    Groups bitwise-identical rows (duplicates here only ever come from
    resampling copies, which are exact), sums weights within groups, and
    returns (sum w)^2 / sum(w^2) over groups.
    """
    n = len(thetas)
    if n == 0:
        raise ValueError("cannot compute the ESS of an empty sample")
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    _, inverse = np.unique(np.asarray(thetas), axis=0, return_inverse=True)
    grouped = np.bincount(inverse.ravel(), weights=w)
    total = grouped.sum()
    return float(total * total / np.sum(grouped * grouped))


def gain_factor(total_sims: int, final_ess: float, accept_prob: float) -> float:
    """Efficiency relative to plain rejection at the same tolerance.

    ``final_ess / accept_prob`` is the expected number of simulations
    rejection would need to accept ``final_ess`` particles; dividing by
    the simulations actually spent gives the gain.
    """
    if not 0.0 < accept_prob <= 1.0:
        raise ValueError("acceptance probability must be in (0, 1]")
    if total_sims <= 0:
        raise ValueError("total simulation count must be positive")
    if final_ess < 0:
        raise ValueError("effective sample size must be non-negative")
    return (final_ess / accept_prob) / total_sims


def estimate_accept_prob(
    model: ModelSpec,
    epsilon: float,
    n_ref: int,
    key: RngKey,
    counter=None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the prior-predictive acceptance probability.

    Returns (estimate, binomial standard error).  With zero acceptances
    the standard error slot carries the rule-of-three upper bound 3/n
    instead; callers must not divide by the zero estimate.  These
    simulations are measurement apparatus, not algorithm cost: they are
    booked under ``PHASE_REFERENCE`` so reports can exclude them.
    """
    if n_ref < 100:
        raise ValueError("need at least 100 reference simulations")
    if epsilon < 0:
        raise ValueError("tolerance must be non-negative")
    dists = prior_predictive(model, n_ref, key, counter, PHASE_REFERENCE).dists
    hits = int(np.count_nonzero(dists <= epsilon))
    if hits == 0:
        return 0.0, 3.0 / n_ref
    p_hat = hits / n_ref
    return p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n_ref))


def weighted_functional(sample: WeightedSample, which: str, coord: int = 0) -> float:
    """Weighted mean/median/q1/q3 of one parameter coordinate.

    Quantiles use the weighted empirical CDF with lower interpolation:
    the smallest sample value whose cumulative weight reaches the level.
    """
    if len(sample.particles) == 0:
        raise ValueError("empty sample")
    values = sample.particles.thetas[:, coord]
    w = sample.weights
    total = w.sum()
    if which == "mean":
        return float(np.sum(values * w) / total)
    levels = {"median": 0.5, "q1": 0.25, "q3": 0.75}
    if which not in levels:
        raise ValueError(f"unknown functional {which!r}")
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(w[order])
    pos = int(np.searchsorted(cum, levels[which] * total, side="left"))
    pos = min(pos, len(values) - 1)
    return float(values[order[pos]])
