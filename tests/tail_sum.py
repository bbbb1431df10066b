"""The O(n) telescoping sum for P_n in double precision: a tests-only oracle.

From d/dx [psi_n psi_{n-1}] = sqrt(2n) (psi_{n-1}^2 - psi_n^2) the tail
integral telescopes to

    P_n = erfc(nu) + 2 * sum_{k=1..n} psi_k(nu) psi_{k-1}(nu) / sqrt(2k),

nu = sqrt(2n+1).  tunneling_sum(n) sums it with one scalar pass of the
normalized recurrence at x = nu, n steps of a CPython loop.  nu lies beyond
the largest zero of every psi_k with k <= n, so every term is positive and
nothing cancels, and at a fixed x beyond the turning point the forward
recurrence in k follows its growing solution, which makes it stable (Gil,
Segura and Temme, Numerical Methods for Special Functions, ch. 4).

It shares no code with the Chebyshev series that osctun computes P_n by,
so the tests use it as the double-precision oracle next to the 50-digit
mpmath sums and adaptive quadrature.
"""

import math

import numpy as np

from osctun import _kernels
from osctun.quadrature import TunnelingResult

EPS = float(np.finfo(np.float64).eps)

# The sum multiplies two mantissas and adds n such products, so its
# mantissas renormalize at 2^256.
_RESCALE_BITS = 256
_RESCALE_HI = 2.0 ** _RESCALE_BITS
_RESCALE_LO = 2.0 ** -_RESCALE_BITS


def psi0_scaled(x):
    """(m, e) with psi_0(x) = m * 2^e to a few ulp, for any float x.

    x^2 = p + q exactly (two_prod) and p/2 is exact, so the rounding of x^2
    costs nothing; exp(-p/2) is reduced by k ln 2 with ln 2 carried in two
    parts (Cody-Waite), so a large exponent costs nothing either.
    """
    p, q = _kernels.two_prod(x, x)
    h = 0.5 * p
    k = round(h * _kernels.INV_LN2)
    kl, kl_err = _kernels.two_prod(float(k), _kernels.LN2_HI)
    y = ((kl - h) + kl_err) + (k * _kernels.LN2_LO - 0.5 * q)
    return _kernels.PI_M14 * math.exp(y), -k


def hermite_tail_sum(n, x):
    """(S, psi_n(x)) with S = sum_{k=1..n} psi_k(x) psi_{k-1}(x) / sqrt(2k).

    One scalar pass of the normalized recurrence, written with
    t_k = sqrt(k/2) as psi_k = (x psi_{k-1} - t_{k-1} psi_{k-2}) / t_k so
    each step rounds one square root of an exact half-integer.  Meant for
    x from about sqrt(2n+1) outward, beyond the largest zero of psi_n.  The
    mantissas carry a power-of-2 offset, and S is kept in the squared
    scale, so nothing overflows.
    """
    m1, ioff = psi0_scaled(x)
    m0 = t0 = s = 0.0
    sqrt = math.sqrt
    hi, lo, lo2 = _RESCALE_HI, _RESCALE_LO, _RESCALE_LO ** 2
    for k in range(1, n + 1):
        t1 = sqrt(0.5 * k)
        m0, m1 = m1, (x * m1 - t0 * m0) / t1
        s += m1 * m0 / t1          # 2 psi_k psi_{k-1} / sqrt(2k), scaled
        t0 = t1
        if m1 > hi:
            m0 *= lo
            m1 *= lo
            s *= lo2
            ioff += _RESCALE_BITS
    return math.ldexp(0.5 * s, 2 * ioff), math.ldexp(m1, ioff)


def tunneling_sum(n):
    """P_n by the telescoping sum, as a TunnelingResult (method "tail-sum").

    The sum is evaluated at the double nu that rounds sqrt(2n+1), with
    psi_0 taken at that same double so that every term belongs to one
    function of a.  The rounding of nu alone moves P by up to
    psi_n^2 ulp(nu), which grows like n^(2/3) eps.  To first order the
    shift is 2 psi_n^2 * r / (2 nu), where r = nu^2 - (2n+1) is formed
    exactly with two_prod, and that term is added back.  What remains is
    rounding in the n recurrence steps and the sum, which grows about
    linearly in n, so err_estimate = 2 (n + 4) eps P_n.
    """
    nu = math.sqrt(2.0 * n + 1.0)
    tail, psi_n = hermite_tail_sum(n, nu)
    nu2, nu2_err = _kernels.two_prod(nu, nu)
    r = (nu2 - (2.0 * n + 1.0)) + nu2_err
    value = math.erfc(nu) + 2.0 * tail + psi_n * psi_n * r / nu
    return TunnelingResult(n=n, value=value, method="tail-sum",
                           err_estimate=2.0 * (n + 4) * EPS * value)
