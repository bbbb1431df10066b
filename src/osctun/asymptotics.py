"""Turning-point map, asymptotic tunneling formulas, and the uniform bound.

The map zeta(x) = ((3/4)(x sqrt(x^2-1) - arccosh x))^(2/3) straightens the
oscillator's turning point so that a single Airy function approximates the
eigenfunction uniformly for x >= 1:

    e^(-nu^2 x^2 / 2) H_n(nu x) ~ c_n (zeta/(x^2-1))^(1/4) Ai(nu^(4/3) zeta)

with nu = sqrt(2n+1) and an explicit relative error bound.  Feeding this into
the tail integral gives the leading term C1 n^(-1/3) for the tunneling
probability and the second-order correction -C2/n.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import specfun
from .quadrature import TunnelingResult

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

# F_n depends on n only through s = nu^(-4/3) = (2n+1)^(-2/3), which runs
# over (0, 3^(-2/3)] for n >= 1, and F(s) is smooth on [0, 3^(-2/3)] with
# F(0) = F_INFINITY.  F(s) = sum_k c_k T_k(2s/3^(-2/3) - 1); |c_k| falls
# about tenfold per degree and the first dropped one, c_18, is 2e-20.
# Written verbatim by tools/gen_f_series.py from 30-digit mpmath samples
# at 24 Chebyshev points; do not edit by hand.
_BIG_F_CHEBYSHEV = (
    0.04089054596539395,
    -0.0012593471775208536,
    4.688956440528202e-05,
    -2.5065549140734746e-06,
    1.669470790929729e-07,
    -1.2980146991378194e-08,
    1.1353849355342954e-09,
    -1.0913036754151984e-10,
    1.1340963462031505e-11,
    -1.2593406663856906e-12,
    1.4810095820323638e-13,
    -1.8317893134789058e-14,
    2.3696334034970385e-15,
    -3.1915582572687045e-16,
    4.458641683126328e-17,
    -6.440220320953348e-18,
    9.592247901234408e-19,
    -1.4697624216915427e-19,
)
_S_MAX = 3.0 ** (-2.0 / 3.0)


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
    zeta = float(_kernels.zeta_from_e(np.array([e]))[0])
    regime = "series-near-one" if e < _kernels.DELTA_ZETA_SERIES else "direct"
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


def _big_f_of_s(s):
    """F(s) on an array of s in [0, 3^(-2/3)], by Clenshaw's recurrence."""
    x = 2.0 * s / _S_MAX - 1.0
    x2 = 2.0 * x
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in _BIG_F_CHEBYSHEV[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return _BIG_F_CHEBYSHEV[0] + x * b1 - b2


def big_f_n(n):
    """The Airy-weighted integral F_n = int_0^inf f_n(t) Ai(t)^2 dt.

    Lies in (0, F_INFINITY] and approaches F_INFINITY from below as n grows.

    F_n depends on n only through s = (2n+1)^(-2/3), and is summed from an
    18-term Chebyshev series in s with frozen coefficients (see
    tools/gen_f_series.py).  This is the one-level case of big_f_n_values.
    Against 30-digit mpmath the error stays within 4 eps F_n from n = 1 to
    10^6, and n = 10^300 gives F_INFINITY within 2 ulp.
    """
    return float(big_f_n_values([n])[0])


def big_f_n_values(ns):
    """F_n for every n in ns, in input order, as a float64 array.

    Every n is checked before any is computed; then the series is summed
    once on the vector of s = (2n+1)^(-2/3), about 18 multiply-adds a level.
    """
    levels = list(ns)
    types = set(map(type, levels))
    # Integer levels (not bools) are checked by one min(); any other type,
    # or a level below 1, takes the one-level check, which raises on the
    # first bad level.
    if (bool in types
            or not all(issubclass(t, (int, np.integer)) for t in types)
            or (levels and min(levels) < 1)):
        levels = [_check_order(n) for n in levels]
    nu2 = 2.0 * np.array(levels, dtype=np.float64) + 1.0
    return _big_f_of_s(nu2 ** (-2.0 / 3.0))


def leading_term(n):
    """Leading tunneling asymptotic C1 * n^(-1/3), method tag "leading".

    err_estimate is C2/n + C1 n^(-4/3): the neglected correction C2/n plus
    second_order's bound, by the triangle inequality.  C2/n alone
    under-claims, since the next term has the same sign as the first.
    """
    n = _check_order(n)
    value = C1 * float(n) ** (-1.0 / 3.0)
    return TunnelingResult(n=n, value=value, method="leading",
                           err_estimate=C2 / n + C1 * float(n) ** (-4.0 / 3.0))


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
