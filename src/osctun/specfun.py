"""Oscillator eigenfunctions psi_n, the Airy function Ai, and gamma constants.

psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2) evaluated through the
normalized three-term recurrence

    psi_k = sqrt(2/k) x psi_{k-1} - sqrt((k-1)/k) psi_{k-2}

so the normalization constant is never formed and every intermediate stays
representable (the kernel carries a power-of-2 exponent offset).  Ai comes
from a compensated Maclaurin series below the branch switch and the standard
large-argument expansion above it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "OscillatorState", "AiryValue", "GammaConstants", "GAMMA",
    "hermite_psi", "hermite_psi_squared",
    "airy_ai", "airy_ai_prime", "airy_ai_values",
]

_METHOD_NAMES = {
    _kernels.AIRY_SERIES: "maclaurin-series",
    _kernels.AIRY_ASYMPTOTIC: "asymptotic-expansion",
}


@dataclass(frozen=True)
class OscillatorState:
    """Quantum number n and its turning-point coordinate nu = sqrt(2n+1)."""
    n: int
    nu: float

    @classmethod
    def from_n(cls, n):
        _check_n(n)
        return cls(n=int(n), nu=math.sqrt(2.0 * n + 1.0))


@dataclass(frozen=True)
class AiryValue:
    """Ai(t) with the branch that produced it and an error estimate."""
    t: float
    value: float
    method: str
    err_estimate: float


@dataclass(frozen=True)
class GammaConstants:
    gamma_one_third: float
    gamma_two_thirds: float
    ai_zero: float
    ai_prime_zero: float


_G13 = 2.6789385347077475
_G23 = 1.3541179394264005
GAMMA = GammaConstants(
    gamma_one_third=_G13,
    gamma_two_thirds=_G23,
    ai_zero=3.0 ** (-2.0 / 3.0) / _G23,
    ai_prime_zero=-(3.0 ** (-1.0 / 3.0)) / _G13,
)


def _check_n(n):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError("n must be an integer, got %r" % (n,))
    if n < 0:
        raise ValueError("n must be nonnegative, got %d" % n)


def _as_array(x, name="x"):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s must be finite" % name)
    return np.atleast_1d(arr), arr.ndim == 0


def hermite_psi(n, x):
    """Normalized oscillator eigenfunction psi_n(x).

    Parameters
    ----------
    n : int
        Quantum number, n >= 0.
    x : float or array_like
        Evaluation points, finite.

    Returns
    -------
    float or ndarray
        psi_n at x; scalar in, scalar out.
    """
    _check_n(n)
    arr, scalar = _as_array(x)
    out = _kernels.hermite_values(int(n), arr)
    return float(out[0]) if scalar else out


def hermite_psi_squared(n, x):
    """Probability density psi_n(x)^2, the tail-integral integrand.

    Same contract as hermite_psi; never returns a negative value.
    """
    _check_n(n)
    arr, scalar = _as_array(x)
    psi = _kernels.hermite_values(int(n), arr)
    out = np.maximum(psi * psi, 0.0)
    return float(out[0]) if scalar else out


def _check_t_scalar(t):
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < -2.0:
        raise ValueError("t must be >= -2, got %g" % t)
    return t


def airy_ai(t):
    """Airy function Ai(t) for t >= -2.

    Returns
    -------
    AiryValue
        value, the branch tag ("maclaurin-series" below the switch,
        "asymptotic-expansion" above), and an error estimate honoring
        err <= 1e-12 * max(|value|, 1e-300) on [-1, 50].
    """
    t = _check_t_scalar(t)
    ai, _, err, method = _kernels.airy_values(np.array([t]))
    return AiryValue(t=t, value=float(ai[0]), method=_METHOD_NAMES[int(method[0])],
                     err_estimate=float(err[0]))


def airy_ai_prime(t):
    """Derivative Ai'(t) for t >= -2, accurate to ~1e-10 relative on [0, 50]."""
    t = _check_t_scalar(t)
    _, aip, _, _ = _kernels.airy_values(np.array([t]))
    return float(aip[0])


def airy_ai_values(t):
    """Ai on an array; quadrature plumbing (same branches as airy_ai)."""
    arr, scalar = _as_array(t, "t")
    if (arr < -2.0).any():
        raise ValueError("t must be >= -2")
    ai, _, _, _ = _kernels.airy_values(arr)
    return float(ai[0]) if scalar else ai
