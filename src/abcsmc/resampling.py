"""Residual resampling with a fixed slot layout.

The adaptive sampler reuses already-evaluated proposals for the first
copy of every survivor, so the resampling must guarantee where
those first copies land: when every source receives at least one copy
(always true for equally weighted survivors, our only in-algorithm
use), slots ``0..m-1`` hold one in-order copy of each source.  Extra
deterministic copies follow in source order, then the residual
multinomial draws in draw order.
"""

from __future__ import annotations

import numpy as np


def residual_resample(
    weights: np.ndarray, target_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Residual-resample ``m`` weighted sources into ``target_count`` slots.

    Returns the read-only assignment: entry j is the (0-based) source
    index copied into slot j, and every source's copy count
    (``np.bincount(assignment, minlength=m)``) is ``floor(N*w)`` or one
    more.

    Each source first gets ``floor(N*w_i)`` deterministic copies; the
    remaining ``R`` slots are filled by multinomial draws over the
    fractional residuals.  Residual resampling has strictly smaller
    variance than plain multinomial resampling while keeping expected
    copy counts at ``N*w_i``.
    """
    w = np.asarray(weights, dtype=float)
    m = len(w)
    N = int(target_count)
    if m == 0:
        raise ValueError("no sources to resample")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    if m > N:
        raise ValueError(f"cannot resample {m} sources into {N} < {m} slots")

    expected = w * (N / total)
    counts = np.floor(expected).astype(np.int64)
    # Exact ratios like 1/m can land just below an integer in binary
    # floating point; snap those so e.g. equal weights with m == N give
    # the identity assignment rather than a spurious all-residual pass.
    nearest = np.rint(expected)
    snap = np.abs(expected - nearest) <= 1e-9 * max(N, 1)
    snapped = np.where(snap, nearest, counts).astype(np.int64)
    if snapped.sum() <= N:
        counts = snapped

    residual_draws = np.empty(0, dtype=np.int64)
    n_resid = N - int(counts.sum())
    if n_resid > 0:
        resid = np.clip(expected - counts, 0.0, None)
        probs = resid / resid.sum()
        residual_draws = rng.choice(m, size=n_resid, p=probs)

    totals = counts + np.bincount(residual_draws, minlength=m)

    # one in-order first copy of every source that got any copies,
    # then deterministic extras beyond the first copy in source order,
    # then residual draws in draw order (a draw that provided a
    # source's first copy was already consumed by the first block)
    first_block = np.flatnonzero(totals >= 1)
    extras = np.repeat(np.arange(m), np.maximum(counts - 1, 0))
    tail = residual_draws
    if residual_draws.size and np.any(counts == 0):
        drawn, first = np.unique(residual_draws, return_index=True)
        tail = np.delete(residual_draws, first[counts[drawn] == 0])
    assignment = np.concatenate([first_block, extras, tail])
    if len(assignment) != N:  # internal consistency; cannot happen
        raise AssertionError("resampling did not fill every slot")
    assignment.setflags(write=False)
    return assignment
