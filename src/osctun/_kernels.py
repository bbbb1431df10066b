"""Low-level numerical kernels on float64 scalars and arrays.

Everything here performs no input validation; the public modules own the
contracts.  The frozen series, with their Clenshaw sum, have their one
home in osctun.series.

Kernels:
- hermite_values(n, x):       oscillator eigenfunction psi_n on an x array,
                              power-of-2 scaled three-term recurrence
- airy_values(t):             (Ai, Ai', err_estimate, method) at each t >= 0,
                              A(sqrt t) exp(-z) with the records series.AI
                              and series.AIP at and below T_SWITCH, the
                              asymptotic expansion to its 22nd term above;
                              one pass on Python floats per point
- invert_zeta_values(zeta):   x - 1 solving zeta(x) = zeta, series.PSI up
                              to zeta(2), Newton on zeta^(3/2) above
- zeta_f_from_e(e):           forward turning-point map and its f ratio,
                              series.PHI below e = x - 1 = 1, direct form
                              from there; x^2 - 1 overflows from x ~ 1.34e154;
                              f_from_e(e) gives f alone
"""

import math

import numpy as np

from . import series

# ---------------------------------------------------------------------------
# constants

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)
INV_LN2 = 1.0 / math.log(2.0)
TWO_13 = 2.0 ** (1.0 / 3.0)        # 2^(1/3)
TWO_M23 = 2.0 ** (-2.0 / 3.0)      # f at the turning point

# recurrence renormalization thresholds; +-600 keeps mantissa*mantissa safe
_RESCALE_HI = 2.0 ** 600
_RESCALE_LO = 2.0 ** -600

# ln 2 in two parts for the Cody-Waite reduction of the psi_0 seed in
# hermite_values: LN2_HI is ln 2 rounded to double, LN2_LO the remainder;
# pi^(-1/4) rounded to double
LN2_HI = 0.6931471805599453
LN2_LO = 2.3190468138462996e-17
PI_M14 = 0.7511255444649425

# Airy branch switch: the records series.AI and series.AIP serve t <= 9,
# u = sqrt(t) <= 3, and the asymptotic expansion t > 9, z > 18, to its
# 22nd term: 20 terms leave 2.3 eps of truncation error at t = 9, 22 leave
# 0.8
T_SWITCH = 9.0
_ASY_TERMS = 22
AIRY_RECORD = 0    # method codes
AIRY_ASYMPTOTIC = 1

# 2/3 in two parts: TWO_THIRDS_HI is 2/3 rounded to double, TWO_THIRDS_LO
# the remainder
TWO_THIRDS_HI = 2.0 / 3.0
TWO_THIRDS_LO = 3.700743415417188e-17

# Ai's error claims, in eps of the value: on the records, beyond the
# record's own err_eps, exp's ulp and two roundings; on the expansion,
# beyond its last term, exp, pow and the prefactor's roundings, SQRT_PI's
# 0.65 ulp among them.  A value below Ai's normal range errs by up to one
# subnormal ulp, so no claim there is less than the smallest subnormal.
_AIRY_EXP_EPS = 2.0
_AIRY_ASY_EPS = 4.0
_EPS = float(np.finfo(np.float64).eps)
_TINY = math.ulp(0.0)

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting

# (-1)^k u_k and (-1)^k v_k, k = 0.._ASY_TERMS, the coefficients of the
# large-t expansions of Ai and Ai' in 1/z (DLMF 9.7.5, 9.7.6)
_ASY_U = [1.0]
_ASY_V = [1.0]
for _k in range(1, _ASY_TERMS + 1):
    _ASY_U.append(-_ASY_U[-1] * ((6 * _k - 5) * (6 * _k - 3) * (6 * _k - 1))
                  / ((2 * _k - 1) * 216.0 * _k))
    _ASY_V.append(-_ASY_U[-1] * (6 * _k + 1) / (6 * _k - 1.0))
del _k

# The map's one seam: PHI serves e = x - 1 < 1, PSI zeta <= ZETA_2, the
# double nearest zeta(2)
ZETA_2 = series.PSI.s_max


# ---------------------------------------------------------------------------
# error-free product; elementwise, so it takes floats or ndarrays alike

def two_prod(a, b):
    p = a * b
    aa = _SPLITTER * a
    ahi = aa - (aa - a)
    alo = a - ahi
    bb = _SPLITTER * b
    bhi = bb - (bb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


# ---------------------------------------------------------------------------
# Hermite recurrence, Airy function and turning-point map on arrays

def hermite_values(n, x):
    """psi_n at each x via the normalized recurrence on a scaled mantissa.

    The mantissa pair renormalizes through a power-of-2 exponent offset, so no
    intermediate overflows or underflows for any n, x a float64 can hold; one
    ldexp at the end restores the true magnitude (which may itself underflow
    to 0, the correct answer there).
    """
    x = np.asarray(x, dtype=np.float64)
    # psi_0 = pi^(-1/4) exp(-x^2/2) as m * 2^-k: x^2 = p + q exactly
    # (two_prod) and p/2 is exact, and exp(-p/2) is reduced by k ln 2 with
    # ln 2 in two parts (Cody-Waite), so the seed is good to a few ulp at
    # any x, even where exp(-x^2/2) underflows.
    p, q = two_prod(x, x)
    h = 0.5 * p
    k = np.rint(h * INV_LN2)
    kl, kl_err = two_prod(k, LN2_HI)
    m0 = PI_M14 * np.exp(((kl - h) + kl_err) + (k * LN2_LO - 0.5 * q))
    ioff = -k.astype(np.int64)
    if n == 0:
        return np.ldexp(m0, ioff)
    m1 = SQRT2 * x * m0
    if n > 1:
        ks = np.arange(2, n + 1, dtype=np.float64)
        c1 = np.sqrt(2.0 / ks)
        c2 = np.sqrt((ks - 1.0) / ks)
        for i in range(ks.shape[0]):
            m2 = c1[i] * x * m1 - c2[i] * m0
            m0 = m1
            m1 = m2
            a1 = np.abs(m1)
            big = a1 > _RESCALE_HI
            if big.any():
                m0 = np.where(big, m0 * _RESCALE_LO, m0)
                m1 = np.where(big, m1 * _RESCALE_LO, m1)
                ioff = np.where(big, ioff + 600, ioff)
            small = (a1 < _RESCALE_LO) & (np.abs(m0) < _RESCALE_LO)
            if small.any():
                m0 = np.where(small, m0 * _RESCALE_HI, m0)
                m1 = np.where(small, m1 * _RESCALE_HI, m1)
                ioff = np.where(small, ioff - 600, ioff)
    return np.ldexp(m1, ioff)


def _airy_point(t):
    # Ai(t) = A(u) exp(-z) and Ai'(t) = -A1(u) exp(-z), u = sqrt(t) and
    # z = (2/3) t u, with A and A1 from the records at and below T_SWITCH
    # and from the expansion above (DLMF 9.7.5, 9.7.6).  On Python floats
    # exp and pow are libm's, so the bits do not depend on numpy's CPU
    # dispatch.  Ai and Ai' round to 0.0 from t ~ 107.4, and so they do
    # at t = 1e3, which keeps the products below finite for any larger t.
    t = min(t, 1e3)
    u = math.sqrt(t)
    # z as zh + zl to about 1e-30 relative: u^2 = p + q exactly, so
    # r = t - p - q is the rounding of u, t sqrt(t) = t u + u r / 2 to
    # O(r^2), and 2/3 is taken in two parts.  exp(-z) = exp(-zh) (1 - zl).
    p, q = two_prod(u, u)
    th, tl = two_prod(t, u)
    zh, zl = two_prod(th, TWO_THIRDS_HI)
    zl += (tl + 0.5 * u * ((t - p) - q)) * TWO_THIRDS_HI + th * TWO_THIRDS_LO
    ez = math.exp(-zh)
    if t <= T_SWITCH:
        ez *= 1.0 - zl
        ai = series.chebyshev_of_s(series.AI, u) * ez
        aip = -series.chebyshev_of_s(series.AIP, u) * ez
        err = (series.AI.err_eps + _AIRY_EXP_EPS) * _EPS * ai
        return ai, aip, err, AIRY_RECORD
    # Above T_SWITCH (z > 18) the terms fall through k = _ASY_TERMS, since
    # u_k / (u_(k-1) z) <= 0.59 there, so all are summed, by Horner's rule
    # in w = 1/z, and the last one stands for the remainder.
    w = 1.0 / zh
    s_ai = s_aip = 0.0
    for k in range(_ASY_TERMS, 0, -1):
        s_ai = w * (_ASY_U[k] + s_ai)
        s_aip = w * (_ASY_V[k] + s_aip)
    last = abs(_ASY_U[-1]) * w ** _ASY_TERMS
    q = t ** 0.25
    # ez (which may be subnormal) is the last factor, so a subnormal
    # result is rounded once
    scale = (1.0 - zl) / (2.0 * SQRT_PI)
    ai = ez * (scale / q * (1.0 + s_ai))
    aip = -ez * (scale * q * (1.0 + s_aip))
    err = (_AIRY_ASY_EPS * _EPS * ai + ez * (scale / q * last)) + _TINY
    return ai, aip, err, AIRY_ASYMPTOTIC


def airy_values(t):
    """(Ai, Ai', err_estimate, method) at each t >= 0 of a float or an
    array, as four arrays of t's shape; method is AIRY_RECORD at
    t <= T_SWITCH and AIRY_ASYMPTOTIC above.  One point and an array give
    the same bits."""
    t = np.asarray(t, dtype=np.float64)
    out = np.array([_airy_point(v) for v in t.ravel().tolist()],
                   dtype=np.float64).reshape(t.shape + (4,))
    return out[..., 0], out[..., 1], out[..., 2], out[..., 3].astype(np.int8)


def invert_zeta_values(zeta):
    """x - 1 solving the forward map = zeta, per element: zeta PSI(zeta) up
    to ZETA_2, above it plain Newton on g(e) = zeta^(3/2), which stops once
    e no longer falls (within 1.2 eps of 40-digit mpmath, and 7 calls of
    g_of_e, over 1,930 zeta spread on (ZETA_2, zeta(1e153)]).
    """
    zeta = np.asarray(zeta, dtype=np.float64)
    # PSI sees no zeta above its interval, so a large zeta cannot overflow it
    e = np.asarray(zeta * series.chebyshev_of_s(series.PSI,
                                                np.minimum(zeta, ZETA_2)))
    above = zeta > ZETA_2
    w = zeta[above] * np.sqrt(zeta[above])
    # Newton on g(e) = w above ZETA_2.  g' = (3/2) sqrt(e(2+e)) and g'' =
    # (3/2)(1+e)/sqrt(e(2+e)) are positive for e > 0, so from any iterate
    # the next lands at or above the root, and from there every step falls
    # toward it.  The seed sqrt(4w/3) - 1 >= 0.465 lies below the root,
    # since g < (3/4) x^2; after the first step the loop runs while e still
    # falls and keeps the last iterate that did.
    def step(e):
        return (g_of_e(e) - w) / (1.5 * np.sqrt(e * (2.0 + e)))
    ea = np.sqrt(4.0 * w / 3.0) - 1.0
    ea = ea - step(ea)
    active = np.ones(ea.shape, dtype=bool)
    # The loop ends: an active element's e strictly falls on the doubles,
    # and it falls only while the computed g(e) - w is positive.  Once that
    # difference turns negative, just below the root, the step is upward
    # and the element stops, so each element passes finitely many doubles.
    while active.any():
        enew = ea - step(ea)
        active &= enew < ea
        ea = np.where(active, enew, ea)
    e[above] = ea
    return e


def g_of_e(e):
    """(3/4)(x sqrt(x^2-1) - arccosh x) at x = 1+e, i.e. zeta^(3/2).

    Written in e, arccosh through log1p, so x^2-1 = e(2+e) cancels nothing;
    the difference cancels about log10(1/(2e)) digits, under one from e = 1.
    """
    r = np.sqrt(e * (2.0 + e))
    return 0.75 * ((1.0 + e) * r - np.log1p(e + r))


def zeta_f_from_e(e):
    """(zeta, f) at x = 1+e on an array, from one sum of series.PHI: below
    e = 1, 2^(1/3) e PHI(e) and 2^(1/3) PHI(e)/(2+e), so f(1) = 2^(-2/3);
    from there the direct zeta and f = zeta/(x^2-1)."""
    # PHI on e <= 1 only, so a large e cannot overflow it.  The direct zeta
    # is g^(2/3) as cbrt(g) squared: g ** (2.0 / 3.0) would err by about
    # 3.7e-17 ln g relative (2.6e-14 at x = 1e153), as 2.0 / 3.0 does.
    e = np.asarray(e, dtype=np.float64)
    near = e < 1.0
    phi = TWO_13 * series.chebyshev_of_s(series.PHI, np.minimum(e, 1.0))
    c = np.cbrt(g_of_e(e))
    direct = c * c
    return (np.where(near, e * phi, direct),
            np.where(near, phi / (2.0 + e),
                     direct / np.where(near, 1.0, e * (2.0 + e))))


def f_from_e(e):
    """f = zeta/(x^2-1) at x = 1+e on an array; see zeta_f_from_e."""
    return zeta_f_from_e(e)[1]
