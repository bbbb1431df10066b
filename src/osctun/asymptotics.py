"""Turning-point map, asymptotic tunneling formulas, and the uniform bound.

The map zeta(x) = ((3/4)(x sqrt(x^2-1) - arccosh x))^(2/3) straightens the
oscillator's turning point so that a single Airy function approximates the
eigenfunction uniformly for x >= 1:

    e^(-nu^2 x^2 / 2) H_n(nu x) ~ c_n (zeta/(x^2-1))^(1/4) Ai(nu^(4/3) zeta)

with nu = sqrt(2n+1) and an explicit relative error bound.  Feeding this into
the tail integral gives the leading term C1 n^(-1/3) for the tunneling
probability and the second-order correction -C2/n, both from one body by
leading_term and second_order.  F_n is summed from its frozen Chebyshev
series, the record osctun.series.F, by big_f_n.  These three take one level
or a sequence.  zeta_of_x, f_of_x = zeta/(x^2-1) and x_of_zeta each take a
float or an array and return the same kind.
"""

import math
from collections import namedtuple

import numpy as np

from . import _kernels, series, specfun
from .quadrature import TunnelingResult

__all__ = [
    "OlverApprox", "C1", "C2", "F_INFINITY", "X_MAX", "ZETA_MAX",
    "zeta_of_x", "x_of_zeta", "f_of_x", "f_n", "big_f_n",
    "leading_term", "second_order", "olver_approx",
]

_AIRY_SQ_INTEGRAL = specfun.GAMMA.ai_prime_zero ** 2          # int_0^inf Ai^2
_T_AIRY_SQ_INTEGRAL = -specfun.GAMMA.ai_zero * specfun.GAMMA.ai_prime_zero / 3.0

# Leading and second-order tunneling coefficients, assembled from the gamma
# constants rather than frozen decimals.
C1 = 2.0 / (3.0 ** (2.0 / 3.0) * specfun.GAMMA.gamma_one_third ** 2)
C2 = 0.4 * _T_AIRY_SQ_INTEGRAL
F_INFINITY = _kernels.TWO_M23 * _AIRY_SQ_INTEGRAL

# The map's domain: x^2 - 1 = e(2 + e) overflows a double from x ~ 1.34e154
# on, and the inverse's seed 4 zeta^(3/2) from x ~ 7.7e153.  So x stops at
# X_MAX and zeta at its image ZETA_MAX = zeta_of_x(X_MAX), which a test
# checks.
X_MAX = 1e153
ZETA_MAX = 8.254818122236567e+203


class OlverApprox(namedtuple("OlverApprox",
                             "n x rhs_value eps_bound log_prefactor")):
    """Uniform approximation to e^(-nu^2 x^2/2) H_n(nu x) at one point.

    log_prefactor holds log(c_n (zeta/(x^2-1))^(1/4)); rhs_value is the full
    right-hand side and eps_bound the guaranteed multiplier on Ai.
    """
    __slots__ = ()


def zeta_of_x(x):
    """zeta at x in [1, X_MAX], a float or an array, returned in kind: from
    the Chebyshev record series.PHI within 2 eps below x = 2, where the
    direct formula cancels about log10(1/(2(x-1))) digits; direct from there.
    """
    arr, scalar = specfun._check_real(x, "x", 1.0, X_MAX, "X_MAX")
    out = _kernels.zeta_f_from_e(arr - 1.0)[0]
    return float(out[0]) if scalar else out


def x_of_zeta(zeta):
    """Invert the map: the unique x >= 1 with zeta_of_x(x) = zeta, for
    zeta in [0, ZETA_MAX], a float or an array, returned in kind.

    x - 1 is zeta series.PSI(zeta) up to zeta(2) and Newton on zeta^(3/2)
    above, within 2 eps.
    """
    arr, scalar = specfun._check_real(zeta, "zeta", 0.0, ZETA_MAX, "ZETA_MAX")
    out = 1.0 + _kernels.invert_zeta_values(arr)
    return float(out[0]) if scalar else out


def f_of_x(x):
    """f(x) = zeta(x)/(x^2 - 1), continued to f(1) = 2^(-2/3), at x in
    [1, X_MAX], a float or an array, returned in kind.

    Strictly decreasing on [1, infinity) with limit 0.
    """
    arr, scalar = specfun._check_real(x, "x", 1.0, X_MAX, "X_MAX")
    out = _kernels.f_from_e(arr - 1.0)
    return float(out[0]) if scalar else out


def f_n(n, t):
    """f evaluated at the x corresponding to zeta = nu^(-4/3) t <= ZETA_MAX."""
    nu23 = series.nu23_of_levels(specfun._check_levels([n])[0])
    t = float(t)
    zeta = specfun._check_real(1.0 / (nu23 * nu23) * t, "zeta = nu^(-4/3) t",
                               0.0, ZETA_MAX, "ZETA_MAX")[0]
    return float(_kernels.f_from_e(_kernels.invert_zeta_values(zeta))[0])


def big_f_n(n):
    """The Airy-weighted integral F_n = int_0^inf f_n(t) Ai(t)^2 dt, at one
    level or a sequence of them.

    n is an int or numpy integer, which gives a float, or a list, range,
    tuple or 1-d integer array, which gives a float64 array in input
    order.  Every level is checked before any is computed: a bool, a
    non-integer or a level below 1 raises as the first such one would
    alone.

    Lies in (0, F_INFINITY] and approaches F_INFINITY from below as n grows.
    F_n depends on n only through s = (2n+1)^(-2/3), and is summed from the
    18-term Chebyshev series series.F, about 18 multiply-adds a level, with
    the bits of one call per level.  Against 30-digit mpmath the error
    stays within 4 eps F_n from n = 1 to 10^6, and n = 10^300 gives
    F_INFINITY within 2 ulp.
    """
    levels, one = specfun._check_level_arg(n, 1)
    values = series.evaluate(series.F, levels[0] if one else levels)[0]
    return float(values) if one else values


def _asymptotic(n, method):
    """leading_term or second_order, as method names.  n^(-1/3) takes
    Python's pow level by level (numpy's vector power differs in the last
    bit at some n); err_estimate's n^(-4/3) is n^(-1/3)/n, not a second pow.
    """
    levels, one = specfun._check_level_arg(n, 1)
    x = np.array(levels, dtype=np.float64)
    root = np.array([v ** (-1.0 / 3.0) for v in levels], dtype=np.float64)
    value, correction, err = C1 * root, C2 / x, C1 * (root / x)
    if method == "leading":
        err = correction + err
    else:
        value = value - correction
    if one:
        return TunnelingResult(levels[0], float(value[0]), method,
                               float(err[0]))
    return TunnelingResult(levels, value, method, err)


def leading_term(n):
    """Leading tunneling asymptotic C1 * n^(-1/3), method tag "leading",
    with tunneling_exact's contract for levels n >= 1: one level gives
    Python scalars, and a sequence float64 arrays with the bits of one call
    per level, every level checked before any is computed.

    err_estimate is C2/n + C1 n^(-4/3): the neglected correction C2/n plus
    second_order's bound, by the triangle inequality.  C2/n alone
    under-claims, since the next term has the same sign as the first.
    """
    return _asymptotic(n, "leading")


def second_order(n):
    """Two-term asymptotic C1 * n^(-1/3) - C2/n, method tag "second-order",
    at one level or a sequence, with leading_term's contract.

    err_estimate scales as the next omitted order n^(-4/3).
    """
    return _asymptotic(n, "second-order")


def olver_approx(n, x):
    """Uniform Airy-type approximation at position x >= 1 for level n >= 1.

    The prefactor c_n (zeta/(x^2-1))^(1/4) is assembled in log space, since
    c_n = sqrt(2 pi) e^(-nu^2/4) nu^((3 nu^2-1)/6) overflows for n beyond a
    few hundred, and is combined with Ai through logarithms as well.  Near
    the turning point from about n = 300 on, the right-hand side itself
    exceeds the largest double (log_prefactor passes 709); then this raises
    ValueError, whose message gives log_prefactor.
    """
    n = specfun._check_levels([n], 1)[0]
    x = float(x)
    e = specfun._check_real(x, "x", 1.0, X_MAX, "X_MAX")[0] - 1.0
    zeta, f = _kernels.zeta_f_from_e(e)
    nu2 = 2.0 * n + 1.0
    log_cn = (0.5 * math.log(2.0 * math.pi) - 0.25 * nu2
              + (3.0 * nu2 - 1.0) / 12.0 * math.log(nu2))
    log_pref = log_cn + 0.25 * math.log(f[0])
    # Python floats: t overflows to inf quietly, and airy_ai refuses it.
    nu23 = float(series.nu23_of_levels(n))
    t = nu23 * nu23 * float(zeta[0])
    av = specfun.airy_ai(t)
    rhs = 0.0
    if av.value > 0.0:
        log_rhs = log_pref + math.log(av.value)
        try:
            rhs = math.exp(log_rhs)
        except OverflowError:
            raise ValueError(
                "olver_approx(%d, %r): the right-hand side e^%.6g exceeds the "
                "largest double; log_prefactor = %.17g holds its prefactor "
                "in log space" % (n, x, log_rhs, log_pref)) from None
    eps_bound = 1.36 * math.expm1(0.09 / nu2) * av.value
    return OlverApprox(n=n, x=x, rhs_value=rhs, eps_bound=eps_bound,
                       log_prefactor=log_pref)
