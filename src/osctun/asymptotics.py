"""Turning-point map, asymptotic tunneling formulas, and the uniform bound.

The map zeta(x) = ((3/4)(x sqrt(x^2-1) - arccosh x))^(2/3) straightens the
oscillator's turning point so that a single Airy function approximates the
eigenfunction uniformly for x >= 1:

    e^(-nu^2 x^2 / 2) H_n(nu x) ~ c_n (zeta/(x^2-1))^(1/4) Ai(nu^(4/3) zeta)

with nu = sqrt(2n+1) and an explicit relative error bound.  Feeding this into
the tail integral gives the leading term C1 n^(-1/3) for the tunneling
probability and the second-order correction -C2/n.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import specfun
from .quadrature import _WK, _XK, TunnelingResult

__all__ = [
    "ZetaPoint", "OlverApprox", "IterationLimitError",
    "C1", "C2", "F_INFINITY",
    "zeta_of_x", "zeta_of_x_values", "x_of_zeta",
    "f_of_x", "f_of_x_values", "f_n", "big_f_n", "big_f_n_values",
    "leading_term", "second_order", "olver_approx",
]

_AIRY_SQ_INTEGRAL = specfun.GAMMA.ai_prime_zero ** 2          # int_0^inf Ai^2
_T_AIRY_SQ_INTEGRAL = -specfun.GAMMA.ai_zero * specfun.GAMMA.ai_prime_zero / 3.0

# Leading and second-order tunneling coefficients, assembled from the gamma
# constants rather than frozen decimals.
C1 = 2.0 / (3.0 ** (2.0 / 3.0) * specfun.GAMMA.gamma_one_third ** 2)
C2 = 0.4 * _T_AIRY_SQ_INTEGRAL
F_INFINITY = _kernels.TWO_M23 * _AIRY_SQ_INTEGRAL

# The F_n rule: the 15-point Kronrod rule on each unit panel of [0, 14].
# Past t = 14 the weight Ai(t)^2 <= exp(-(4/3) t^(3/2)) / (4 pi sqrt(t))
# (DLMF 9.7) and f_n <= 2^(-2/3) leave a tail below 1e-33, far under the
# rounding of F_n.
_F_RULE_PANELS = 14

# Levels per pass of big_f_n_values: 16 x 210 nodes, 27 KB per array.
_F_CHUNK_LEVELS = 16


@dataclass(frozen=True)
class ZetaPoint:
    """A paired (x, zeta) value of the turning-point map with its regime tag."""
    x: float
    zeta: float
    regime: str


@dataclass(frozen=True)
class OlverApprox:
    """Uniform approximation to e^(-nu^2 x^2/2) H_n(nu x) at one point.

    log_prefactor holds log(c_n (zeta/(x^2-1))^(1/4)); rhs_value is the full
    right-hand side and eps_bound the guaranteed multiplier on Ai.
    """
    n: int
    x: float
    rhs_value: float
    eps_bound: float
    log_prefactor: float


class IterationLimitError(RuntimeError):
    """Safeguarded Newton failed to invert the map within its step budget."""


def _check_x(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < 1.0:
        raise ValueError("x must be >= 1, got %g" % x)
    return x


def zeta_of_x(x):
    """Map x >= 1 to zeta, switching to a series for x - 1 below 1e-3.

    The direct formula loses about two thirds of its digits to cancellation
    as x -> 1; the series regime restores full precision and the two paths
    agree to 1e-12 relative at the seam.
    """
    x = _check_x(x)
    e = x - 1.0
    if e < _kernels.DELTA_ZETA_SERIES:
        zeta = _kernels.TWO_13 * e * float(_kernels.zeta_series_factor(e))
        regime = "series-near-one"
    else:
        zeta = float(_kernels.g_of_e(e)) ** (2.0 / 3.0)
        regime = "direct"
    return ZetaPoint(x=x, zeta=zeta, regime=regime)


def zeta_of_x_values(x):
    """zeta on an array of x >= 1; figure plumbing."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or (arr < 1.0).any():
        raise ValueError("x must be finite and >= 1")
    return _kernels.zeta_from_e(arr - 1.0)


def x_of_zeta(zeta):
    """Invert the map: the unique x >= 1 with zeta_of_x(x) = zeta.

    Safeguarded Newton seeded from the series inverse; the residual meets
    1e-12 * max(1, zeta).  Raises IterationLimitError past 100 steps.
    """
    zeta = float(zeta)
    if not math.isfinite(zeta):
        raise ValueError("zeta must be finite")
    if zeta < 0.0:
        raise ValueError("zeta must be >= 0, got %g" % zeta)
    e, ok = _kernels.invert_zeta_values(np.array([zeta]))
    if not ok:
        raise IterationLimitError("inversion stalled at zeta=%g" % zeta)
    return 1.0 + float(e[0])


def f_of_x(x):
    """f(x) = zeta(x)/(x^2 - 1), continued to f(1) = 2^(-2/3).

    Strictly decreasing on [1, infinity) with limit 0.
    """
    x = _check_x(x)
    return float(_kernels.f_from_e(np.array([x - 1.0]))[0])


def f_of_x_values(x):
    """f on an array of x >= 1; sweep plumbing."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or (arr < 1.0).any():
        raise ValueError("x must be finite and >= 1")
    return _kernels.f_from_e(arr - 1.0)


def f_n(n, t):
    """f evaluated at the x corresponding to zeta = nu^(-4/3) t."""
    specfun._check_n(n)
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("t must be finite and >= 0")
    scale = (2.0 * n + 1.0) ** (-2.0 / 3.0)
    e, ok = _kernels.invert_zeta_values(np.array([scale * t]))
    if not ok:
        raise IterationLimitError("inversion stalled at t=%g" % t)
    return float(_kernels.f_from_e(e)[0])


def _check_order(n):
    specfun._check_n(n)
    if n < 1:
        raise ValueError("n must be >= 1 (the formula diverges at n=0)")
    return int(n)


@functools.cache
def _airy_weighted_rule():
    """Nodes t_j and weights w_j Ai(t_j)^2 of the fixed F_n rule.

    Built on the first F_n call, not at import, and kept for the process.
    """
    t = (np.arange(_F_RULE_PANELS)[:, None] + 0.5 * (1.0 + _XK)).ravel()
    ai = specfun.airy_ai_values(t)
    w = np.tile(0.5 * _WK, _F_RULE_PANELS) * ai * ai
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def big_f_n(n, config=None):
    """The Airy-weighted integral F_n = int_0^inf f_n(t) Ai(t)^2 dt.

    Lies in (0, F_INFINITY] and approaches F_INFINITY from below as n grows.

    Only f_n depends on n, so every F_n is one product with the same fixed
    rule: the 15-point Kronrod rule on 14 unit panels of [0, 14], with the
    weights w_j Ai(t_j)^2 computed once per process.  This is the
    one-level case of big_f_n_values.  config is accepted for call
    compatibility with the quadrature routines and unused.
    Against 30-digit mpmath the error stays within 4 eps F_n at
    n = 1, 6, 37, 100, 500 and 1000.
    """
    return float(big_f_n_values([n])[0])


def big_f_n_values(ns):
    """F_n for every n in ns, in input order, as a float64 array.

    Every n is checked before any is computed.  Levels go through the rule
    _F_CHUNK_LEVELS at a time: the map is inverted and f evaluated once on
    the chunk's (levels x 210) node matrix, then each level takes its own
    1-D product with the weights, so each F_n has the bits of a one-level
    call.  The chunk bounds the temporaries of the Newton inversion at a
    few tens of KB, however many levels there are.
    """
    levels = [_check_order(n) for n in ns]
    t, w = _airy_weighted_rule()
    out = np.empty(len(levels))
    for lo in range(0, len(levels), _F_CHUNK_LEVELS):
        chunk = levels[lo:lo + _F_CHUNK_LEVELS]
        scale = np.array([(2.0 * n + 1.0) ** (-2.0 / 3.0) for n in chunk])
        e, ok = _kernels.invert_zeta_values(np.multiply.outer(scale, t).ravel())
        if not ok:
            raise IterationLimitError("inversion stalled on the F_n rule nodes")
        f = _kernels.f_from_e(e).reshape(len(chunk), t.shape[0])
        for j, row in enumerate(f):
            out[lo + j] = row @ w
    return out


def leading_term(n):
    """Leading tunneling asymptotic C1 * n^(-1/3), method tag "leading".

    err_estimate is the magnitude of the first neglected correction C2/n.
    """
    n = _check_order(n)
    value = C1 * float(n) ** (-1.0 / 3.0)
    return TunnelingResult(n=n, value=value, method="leading",
                           err_estimate=C2 / n)


def second_order(n):
    """Two-term asymptotic C1 * n^(-1/3) - C2/n, method tag "second-order".

    err_estimate scales as the next omitted order n^(-4/3).
    """
    n = _check_order(n)
    value = C1 * float(n) ** (-1.0 / 3.0) - C2 / float(n)
    return TunnelingResult(n=n, value=value, method="second-order",
                           err_estimate=C1 * float(n) ** (-4.0 / 3.0))


def olver_approx(n, x):
    """Uniform Airy-type approximation at position x >= 1 for level n >= 1.

    The prefactor c_n (zeta/(x^2-1))^(1/4) is assembled in log space, since
    c_n = sqrt(2 pi) e^(-nu^2/4) nu^((3 nu^2-1)/6) overflows for n beyond a
    few hundred, and is combined with Ai through logarithms as well.
    """
    n = _check_order(n)
    x = _check_x(x)
    nu2 = 2.0 * n + 1.0
    zp = zeta_of_x(x)
    fq = f_of_x(x)
    log_cn = (0.5 * math.log(2.0 * math.pi) - 0.25 * nu2
              + (3.0 * nu2 - 1.0) / 12.0 * math.log(nu2))
    log_pref = log_cn + 0.25 * math.log(fq)
    t = nu2 ** (2.0 / 3.0) * zp.zeta
    av = specfun.airy_ai(t)
    if av.value > 0.0:
        rhs = math.exp(log_pref + math.log(av.value))
    else:
        rhs = 0.0
    eps_bound = 1.36 * math.expm1(0.09 / nu2) * av.value
    return OlverApprox(n=n, x=x, rhs_value=rhs, eps_bound=eps_bound,
                       log_prefactor=log_pref)
