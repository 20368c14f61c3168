"""Quality and cost metrics for sampler outputs.

The headline efficiency number is the gain factor: how many simulations
plain rejection would have needed to deliver the same effective sample
size at the same tolerance, divided by what the sampler actually spent.
Because resampling duplicates particles, the effective sample size is
computed on distinct parameter vectors with their weights aggregated;
counting copies as independent would flatter the sampler.
"""

from __future__ import annotations

import numpy as np


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
