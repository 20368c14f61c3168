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


def duplicate_groups(thetas: np.ndarray) -> np.ndarray:
    """Group index of every parameter row: equal rows share one index.

    Groups are numbered 0, 1, ... in lexicographic row order, the order
    of ``np.unique(thetas, axis=0)``, found by one ``np.lexsort`` and a
    scan for runs of equal rows (duplicates here only ever come from
    resampling copies, which are exact).
    """
    rows = np.asarray(thetas)
    if rows.ndim == 1:
        rows = rows[:, None]
    n = len(rows)
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    starts = np.ones(n, dtype=np.intp)
    starts[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    groups = np.empty(n, dtype=np.intp)
    groups[order] = np.cumsum(starts) - 1
    return groups


def _grouped_ess(groups: np.ndarray, weights: np.ndarray | None) -> float:
    n = len(groups)
    if n == 0:
        raise ValueError("cannot compute the ESS of an empty sample")
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    grouped = np.bincount(groups, weights=w)
    total = grouped.sum()
    return float(total * total / np.sum(grouped * grouped))


def ess_of_thetas(thetas: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Effective sample size after aggregating duplicate parameter vectors.

    Groups equal rows (:func:`duplicate_groups`), sums weights within
    groups, and returns (sum w)^2 / sum(w^2) over groups.
    """
    return _grouped_ess(duplicate_groups(thetas), weights)


def distinct_and_ess(thetas: np.ndarray) -> tuple[int, float]:
    """Number of distinct parameter rows and the equal-weight
    :func:`ess_of_thetas`, both from one grouping."""
    groups = duplicate_groups(thetas)
    return int(groups.max(initial=-1)) + 1, _grouped_ess(groups, None)


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
