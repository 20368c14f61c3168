"""Reference quantities for the toy model, computed without sampling.

Two independent routes to the truth live here:

* the exact posterior of the toy model's parameter given an observation
  of 0 (quantiles also of the ABC posterior given ``|z| <= epsilon``),
  by composite-trapezoid quadrature on a fixed grid (100 000 nodes over
  the prior support), with quantiles as the exact inverse of that
  piecewise-linear CDF;
* the prior-predictive probability that a simulated summary lands
  within distance ``epsilon`` of the observation, in closed form from
  the normal CDF (the antiderivative of ``Phi`` is ``x*Phi(x)+phi(x)``).

Samplers are validated against these values; nothing in this module
ever calls a simulator.  Everything here runs on numpy and ``math``
alone.  The normal CDF is the C library's ``erfc``, and the closed form
takes the normal density from ``math.exp``, so a gain does not depend on
which SIMD kernel numpy picks for ``exp``.  The CDF table is the
cumulative trapezoid sum of the density over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

QUAD_NODES = 100_000
# the toy noise is an equal mixture of normals with these scales
NOISE_SCALES = (1.0, 0.1)

_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _ndtr(a: float) -> float:
    """Standard normal CDF of a Python float, ``erfc(-a / sqrt(2)) / 2``
    on the C library's ``erfc``, accurate in the lower tail where
    ``1 + erf`` would cancel.  NaN gives NaN."""
    return 0.5 * math.erfc(-a * _SQRT1_2)


def _norm_pdf(x):
    """Standard normal density, element-wise on an array; the quadrature
    tables' path.  Scalars in the gain path take ``math.exp`` instead."""
    x = np.asarray(x, dtype=float)
    return np.exp(-(x**2) / 2.0) / _SQRT_2PI


def _unnormalized_pdf(theta: np.ndarray, epsilon: float = 0.0) -> np.ndarray:
    """Toy likelihood at location ``theta``, up to a constant: of observing
    exactly 0 when ``epsilon`` is 0, else of ``|z| <= epsilon``."""
    if epsilon == 0:
        return _norm_pdf(theta) + 10.0 * _norm_pdf(10.0 * theta)
    ndtr = np.vectorize(_ndtr, otypes=[float])
    return sum(ndtr((epsilon - theta) / s) - ndtr((-epsilon - theta) / s) for s in NOISE_SCALES)


@dataclass(frozen=True)
class _Table:
    halfwidth: float
    grid: np.ndarray
    norm_const: float  # trapezoid integral of the unnormalized pdf
    cdf: np.ndarray
    mean: float
    variance: float


@lru_cache(maxsize=8)
def _table(halfwidth: float, epsilon: float) -> _Table:
    if not (halfwidth > 0 and math.isfinite(halfwidth)):
        raise ValueError("halfwidth must be positive and finite")
    if not (epsilon >= 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be non-negative and finite")
    grid = np.linspace(-halfwidth, halfwidth, QUAD_NODES)
    raw = _unnormalized_pdf(grid, epsilon)
    norm_const = np.trapezoid(raw, grid)
    pdf = raw / norm_const
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (pdf[1:] + pdf[:-1]) / 2.0)))
    cdf = cdf / cdf[-1]  # absorb the last-digit quadrature residue
    mean = float(np.trapezoid(grid * pdf, grid))
    variance = float(np.trapezoid((grid - mean) ** 2 * pdf, grid))
    return _Table(halfwidth, grid, norm_const, cdf, mean, variance)


def toy_posterior_pdf(theta, halfwidth: float = 10.0):
    """Normalized posterior density at ``theta`` (0 outside the support)."""
    tab = _table(float(halfwidth), 0.0)
    t = np.asarray(theta, dtype=float)
    inside = (t >= -tab.halfwidth) & (t <= tab.halfwidth)
    out = np.where(inside, _unnormalized_pdf(t), 0.0) / tab.norm_const
    return float(out) if np.isscalar(theta) else out


def toy_posterior_cdf(theta, halfwidth: float = 10.0):
    tab = _table(float(halfwidth), 0.0)
    t = np.asarray(theta, dtype=float)
    out = np.interp(t, tab.grid, tab.cdf, left=0.0, right=1.0)
    return float(out) if np.isscalar(theta) else out


def toy_posterior_quantile(
    p: float, halfwidth: float = 10.0, epsilon: float = 0.0
) -> float:
    """Level-``p`` quantile; ``epsilon > 0`` gives the ABC posterior at that
    tolerance, the target of rejection at ``epsilon``, instead of the exact one."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    tab = _table(float(halfwidth), float(epsilon))
    return float(np.interp(p, tab.cdf, tab.grid))


def toy_posterior_functional(name: str, halfwidth: float = 10.0) -> float:
    """One of: mean, median, q1, q3, variance."""
    tab = _table(float(halfwidth), 0.0)
    if name == "mean":
        return tab.mean
    if name == "variance":
        return tab.variance
    levels = {"median": 0.5, "q1": 0.25, "q3": 0.75}
    if name in levels:
        return toy_posterior_quantile(levels[name], halfwidth)
    raise ValueError(f"unknown functional {name!r}")


def _phi_integral(x: float, scale: float) -> float:
    """Antiderivative of the N(0, scale^2) CDF, evaluated at x."""
    u = x / scale
    return scale * (u * _ndtr(u) + math.exp(-(u * u) / 2.0) / _SQRT_2PI)


def toy_accept_prob(epsilon: float, halfwidth: float = 10.0) -> float:
    """Prior-predictive P(|z - 0| <= epsilon) for the toy model, exact.

    This is the acceptance probability of plain rejection at tolerance
    ``epsilon``; it is the zero-simulation default reference for gain
    factors on the toy model.  An infinite ``epsilon`` accepts everything.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative, not NaN")
    if not (halfwidth > 0 and math.isfinite(halfwidth)):
        raise ValueError("halfwidth must be positive and finite")
    if epsilon == 0:
        return 0.0
    if epsilon == math.inf:
        return 1.0
    a = halfwidth
    total = 0.0
    for s in NOISE_SCALES:
        upper = _phi_integral(epsilon + a, s) - _phi_integral(epsilon - a, s)
        lower = _phi_integral(-epsilon + a, s) - _phi_integral(-epsilon - a, s)
        total += 0.5 * (upper - lower)
    return min(total / (2.0 * a), 1.0)
