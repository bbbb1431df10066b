"""Oscillator eigenfunctions psi_n, the Airy function Ai, and gamma constants.

psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2) evaluated through the
normalized three-term recurrence

    psi_k = sqrt(2/k) x psi_{k-1} - sqrt((k-1)/k) psi_{k-2}

so the normalization constant is never formed and every intermediate stays
representable (the kernel carries a power-of-2 exponent offset).  Ai, for
t >= 0, is one formula, Ai(t) = A(sqrt t) exp(-z) with z = (2/3) t^(3/2)
carried in two parts: A comes from the frozen Chebyshev record series.AI at
and below the branch switch t = 9, and from the standard large-argument
expansion above it.  Ai' is -A1(sqrt t) exp(-z) in the same way, with the
record series.AIP.
"""

import math
from collections import namedtuple

import numpy as np

from . import _kernels

__all__ = [
    "AiryValue", "GammaConstants", "GAMMA",
    "hermite_psi", "hermite_psi_squared",
    "airy_ai", "airy_ai_prime", "airy_ai_values",
]

_METHOD_NAMES = {
    _kernels.AIRY_RECORD: "series.AI",
    _kernels.AIRY_ASYMPTOTIC: "asymptotic-expansion",
}


class AiryValue(namedtuple("AiryValue", "t value method err_estimate")):
    """Ai(t) with the branch that produced it and an error estimate."""
    __slots__ = ()


class GammaConstants(namedtuple("GammaConstants", "gamma_one_third "
                                "gamma_two_thirds ai_zero ai_prime_zero")):
    """Gamma(1/3), Gamma(2/3), Ai(0) and Ai'(0)."""
    __slots__ = ()


_G13 = 2.6789385347077475
_G23 = 1.3541179394264005
GAMMA = GammaConstants(
    gamma_one_third=_G13,
    gamma_two_thirds=_G23,
    ai_zero=3.0 ** (-2.0 / 3.0) / _G23,
    ai_prime_zero=-(3.0 ** (-1.0 / 3.0)) / _G13,
)


def _check_n(n, lowest=0):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError("n must be an integer, got %r" % (n,))
    if n < 0:
        raise ValueError("n must be nonnegative, got %d" % n)
    if n < lowest:
        raise ValueError("n must be >= %d (the formula diverges at n=0)"
                         % lowest)


# The largest level whose 2n+1 fits a double: from 2^1023 - 2^969 on,
# 2n+1 rounds past the largest double (ties go to even, here infinity).
# Every level-taking route forms nu^2 = 2n+1 as a double.
_MAX_LEVEL = 2 ** 1023 - 2 ** 969 - 1


def _check_levels(ns, lowest=0):
    """The levels ns as a new list of ints, once each is an integer
    n >= lowest whose 2n+1 fits a double.  A range holds ints, so good
    ends pass it in O(1); other integer levels, not bools, are checked by
    one min() and one max().  Any other type, or a level below lowest,
    takes _check_n level by level, which raises on the first bad one.  A
    level whose 2n+1 overflows a double raises ValueError next."""
    if isinstance(ns, range) and (not ns or lowest <= min(ns[0], ns[-1])
                                  and max(ns[0], ns[-1]) <= _MAX_LEVEL):
        return list(ns)
    levels = list(ns)
    types = set(map(type, levels))
    if (bool in types
            or not all(issubclass(t, (int, np.integer)) for t in types)
            or (levels and min(levels) < lowest)):
        for n in levels:
            _check_n(n, lowest)
    if levels and max(levels) > _MAX_LEVEL:
        raise ValueError("level too large: 2n+1 must fit a double")
    return levels if types <= {int} else [int(n) for n in levels]


def _check_level_arg(n, lowest=0):
    """_check_levels of n, and whether n was one level, not a sequence."""
    if isinstance(n, (list, tuple, range, np.ndarray)):
        return _check_levels(n, lowest), False
    return _check_levels([n], lowest), True


def _check_real(x, name, lo=-math.inf, hi=math.inf, hi_name=None):
    """x as a float64 array of at least one dimension, and whether x was a
    scalar, once every value is finite and in [lo, hi].

    The ValueError names the argument, the range with the upper bound by
    hi_name, and the first bad value.  A scalar entry point passes float(x),
    which raises TypeError for an array.
    """
    arr = np.asarray(x, dtype=np.float64)
    ok = np.isfinite(arr) & (arr >= lo) & (arr <= hi)
    if not ok.all():
        if hi < math.inf:
            span = " and in [%g, %s = %r]" % (lo, hi_name, hi)
        else:
            span = " and >= %g" % lo if lo > -math.inf else ""
        raise ValueError("%s must be finite%s, got %r"
                         % (name, span, float(arr[~ok][0])))
    return np.atleast_1d(arr), arr.ndim == 0


# The recurrence steps n times in Python and holds three float arrays of
# n - 1 coefficients, so n = 10^9 would ask for about 24 GB; the cap is the
# CLI's cap on its other work.
_HERMITE_MAX_LEVEL = 10 ** 6


def _check_hermite_level(n):
    _check_n(n)
    if n > _HERMITE_MAX_LEVEL:
        raise ValueError("n must be at most %d for psi_n, got %d"
                         % (_HERMITE_MAX_LEVEL, n))


def hermite_psi(n, x):
    """Normalized oscillator eigenfunction psi_n(x).

    Parameters
    ----------
    n : int
        Quantum number, 0 <= n <= 10^6; a larger n raises ValueError.
        The recurrence takes n steps in Python: at n = 10^6 one call took
        7.4 to 7.9 s, and its process peaked at 60 MB, on a 2-CPU x86
        machine.
    x : float or array_like
        Evaluation points, finite.

    Returns
    -------
    float or ndarray
        psi_n at x; scalar in, scalar out.
    """
    _check_hermite_level(n)
    arr, scalar = _check_real(x, "x")
    out = _kernels.hermite_values(int(n), arr)
    return float(out[0]) if scalar else out


def hermite_psi_squared(n, x):
    """Probability density psi_n(x)^2, the tail-integral integrand.

    Same contract as hermite_psi; never returns a negative value.
    """
    _check_hermite_level(n)
    arr, scalar = _check_real(x, "x")
    psi = _kernels.hermite_values(int(n), arr)
    out = psi * psi
    return float(out[0]) if scalar else out


def airy_ai(t):
    """Airy function Ai(t) for t >= 0.

    Returns
    -------
    AiryValue
        value, the branch tag ("series.AI", the record, at and below
        t = 9, "asymptotic-expansion" above), and an err_estimate that
        bounds the error: 4 eps of the value on the record; above it 4 eps
        plus the expansion's last term, and never less than the smallest
        subnormal, which a value that is subnormal (from t ~ 103.89) or
        rounds to 0.0 (from t ~ 107.4) can be off by.  Against 40-digit
        mpmath the error is within 4 eps on [0, 104]: at 20,000 points
        each, the worst was 1.95 eps on the record and 2.75 eps above it.
    """
    t = float(t)
    ai, _, err, method = _kernels.airy_values(_check_real(t, "t", 0.0)[0])
    return AiryValue(t=t, value=float(ai[0]), method=_METHOD_NAMES[int(method[0])],
                     err_estimate=float(err[0]))


def airy_ai_prime(t):
    """Derivative Ai'(t) for t >= 0, from the same pass as airy_ai.

    Against 40-digit mpmath the relative error is within 4 eps on [0, 104]:
    at 20,000 points each, the worst was 2.35 eps from the record
    series.AIP at and below t = 9 and 2.90 eps from the expansion above.
    """
    _, aip, _, _ = _kernels.airy_values(_check_real(float(t), "t", 0.0)[0])
    return float(aip[0])


def airy_ai_values(t):
    """Ai at t >= 0 on an array; quadrature plumbing (same branches as
    airy_ai)."""
    arr, scalar = _check_real(t, "t", 0.0)
    ai, _, _, _ = _kernels.airy_values(arr)
    return float(ai[0]) if scalar else ai
