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
ever calls a simulator.  Everything here runs on numpy alone.  The
normal CDF ``_ndtr`` is a transliteration of ``ndtr.c`` from the Cephes
Math Library (S. L. Moshier), the code ``scipy.special.ndtr`` runs, and
equal to it bit for bit; the CDF table is the cumulative trapezoid sum
that ``scipy.integrate.cumulative_trapezoid`` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

QUAD_NODES = 100_000
# the toy noise is an equal mixture of normals with these scales
NOISE_SCALES = (1.0, 0.1)

# Cephes ndtr.c: erfc(x) = exp(-x*x) * P(x)/Q(x) for 1 <= x < 8 and
# exp(-x*x) * R(x)/S(x) for x >= 8; erf(x) = x * T(x*x)/U(x*x) for
# |x| <= 1.  Cephes leaves out the leading 1 of Q, S and U and evaluates
# them with p1evl; 1.0 * x is exact, so polevl with the 1 written out is
# the same sum.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.0,
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    1.0,
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    1.0,
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes ``polevl``: the polynomial with coefficients ``coef``
    (highest power first), by Horner's rule in C's order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Error function, Cephes ``erf``."""
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(a: float) -> float:
    """Complementary error function, Cephes ``erfc``; 0 (or 2 for
    negative ``a``) once ``exp(-a*a)`` underflows."""
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            p, q = _polevl(x, _P), _polevl(x, _Q)
        else:
            p, q = _polevl(x, _R), _polevl(x, _S)
        y = (z * p) / q
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0


def _ndtr(a: float) -> float:
    """Standard normal CDF of a Python float: ``ndtr.c`` of the Cephes
    Math Library (S. L. Moshier) line for line, with glibc's ``exp``
    through ``math.exp``, so it equals ``scipy.special.ndtr`` bit for bit.
    NaN gives NaN."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _norm_pdf(x):
    """Standard normal density, on numpy's ``exp``: the expression
    ``scipy.stats.norm.pdf`` evaluates, which fixes the last digits of
    ``toy_accept_prob`` and so of every gain."""
    x = np.asarray(x, dtype=float)
    return np.exp(-(x**2) / 2.0) / np.sqrt(2 * np.pi)


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
    return scale * (u * _ndtr(u) + _norm_pdf(u))


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
    return float(min(total / (2.0 * a), 1.0))
