"""Low-level numerical kernels, vectorized with numpy.

Everything here operates on raw float64 scalars/arrays and performs no input
validation; the public modules own the contracts.  The frozen series, with
their Clenshaw sum, have their one home in osctun.series.

Kernels:
- hermite_values(n, x):       oscillator eigenfunction psi_n on an x array,
                              power-of-2 scaled three-term recurrence
- airy_values(t):             (Ai, Ai', err_estimate, method) on a t array,
                              dd-compensated Maclaurin series below T_SWITCH,
                              whose one loop sums F, G and both derivatives,
                              20-term asymptotic expansion above
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

# Airy branch switch; the dd series holds <= 5e-15 relative through t ~ 9.5
# while the 20-term asymptotic expansion reaches ~2e-15 at t = 9 (z = 18)
T_SWITCH = 9.0
AIRY_SERIES = 0    # method codes
AIRY_ASYMPTOTIC = 1
_MAX_TERMS = 200
_ROW_SHIFT = np.array([[0.0], [1.0]])      # F's row, G's row of the series
_ROW_FLOOR = np.array([[0.0], [1e-300]])   # floors |G| in the stop rule

# Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3) as hi/lo
# pairs; the series combination Ai = Ai(0) F + Ai'(0) G cancels ~16 digits at
# t ~ 9, so the constants must carry ~32
AI0_HI = 0.3550280538878172
AI0_LO = 2.05233632436212e-17
AIP0_HI = -0.2588194037928068
AIP0_LO = 2.522243111610832e-17

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting

# u_k, v_k coefficients of the large-t expansions of Ai, Ai'
_ASY_U = np.empty(26)
_ASY_V = np.empty(26)
_ASY_U[0] = 1.0
_ASY_V[0] = 1.0
for _k in range(1, 26):
    _ASY_U[_k] = _ASY_U[_k - 1] * ((6 * _k - 5) * (6 * _k - 3) * (6 * _k - 1)) / (
        (2 * _k - 1) * 216.0 * _k)
    _ASY_V[_k] = -_ASY_U[_k] * (6 * _k + 1) / (6 * _k - 1.0)
del _k

# The map's one seam: PHI serves e = x - 1 < 1, PSI zeta <= ZETA_2, the
# double nearest zeta(2)
ZETA_2 = series.PSI.s_max


# ---------------------------------------------------------------------------
# error-free transforms; elementwise, so they take floats or ndarrays alike

def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    p = a * b
    aa = _SPLITTER * a
    ahi = aa - (aa - a)
    alo = a - ahi
    bb = _SPLITTER * b
    bhi = bb - (bb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def dd_add(ah, al, bh, bl):
    s, e = two_sum(ah, bh)
    return quick_two_sum(s, e + al + bl)


def dd_mul(ah, al, bh, bl):
    p, e = two_prod(ah, bh)
    return quick_two_sum(p, e + ah * bl + al * bh)


def dd_mul_d(ah, al, b):
    p, e = two_prod(ah, b)
    return quick_two_sum(p, e + al * b)


def dd_div_d(ah, al, b):
    q1 = ah / b
    p, e = two_prod(q1, b)
    s, e2 = two_sum(ah, -p)
    return quick_two_sum(q1, (s + (e2 + al - e)) / b)


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


def _airy_series(t):
    # Ai = Ai(0) F + Ai'(0) G with F = sum f_k, G = sum g_k (DLMF 9.4),
    # summed in double-double as two stacked rows: f_0 = 1, g_0 = t, and
    # term k+1 is term k times t^3 over (j+2)(j+3), j = 3k for F and 3k+1
    # for G.  The t^3 power also stays in dd so high terms do not drift.
    # The same terms give t F' = sum 3k f_k and t G' - t = sum_{k>=1}
    # (3k+1) g_k, term k+1 weighted by j+3; both sums are 0 at t = 0.
    t3h, t3l = two_prod(t, t)
    t3h, t3l = dd_mul_d(t3h, t3l, t)
    th = np.stack([np.ones_like(t), t])
    tl = np.zeros_like(th)
    sh = th.copy()
    sl = np.zeros_like(th)
    dh = np.zeros_like(th)
    dl = np.zeros_like(th)
    mag = 1.0 + np.abs(t)
    for k in range(_MAX_TERMS):
        j = 3.0 * k + _ROW_SHIFT
        th, tl = dd_mul(th, tl, t3h, t3l)
        th, tl = dd_div_d(th, tl, (j + 2.0) * (j + 3.0))
        sh, sl = dd_add(sh, sl, th, tl)
        ph, pl = dd_mul_d(th, tl, j + 3.0)
        dh, dl = dd_add(dh, dl, ph, pl)
        mag = mag + np.abs(th[0]) + np.abs(th[1])
        if (np.abs(th) < 1e-35 * np.maximum(np.abs(sh), _ROW_FLOOR)).all():
            break
    # F' and G' - 1 on the rows; t = 0 divides its zero sums by 1
    dh, dl = dd_div_d(dh, dl, np.where(t == 0.0, 1.0, t))
    gph, gpl = dd_add(1.0, 0.0, dh[1], dl[1])
    # rows Ai = Ai(0) F + Ai'(0) G and Ai' = Ai(0) F' + Ai'(0) G'
    fh, fl = np.stack([sh[0], dh[0]]), np.stack([sl[0], dl[0]])
    gh, gl = np.stack([sh[1], gph]), np.stack([sl[1], gpl])
    ah, al = dd_mul(fh, fl, AI0_HI, AI0_LO)
    bh, bl = dd_mul(gh, gl, AIP0_HI, AIP0_LO)
    (aih, aiph), _ = dd_add(ah, al, bh, bl)
    err = 2.5e-16 * np.abs(aih) + 1e-31 * mag
    return aih, aiph, err


def _airy_asym(t):
    # Ai and Ai' round to 0.0 from t ~ 108 on, and so they do at t = 1e3,
    # which keeps t^(3/2) and z^20 finite for any larger t.
    t = np.minimum(t, 1e3)
    st = np.sqrt(t)
    z = (2.0 / 3.0) * t * st
    # Above T_SWITCH (z > 18) the terms fall through k = 20, since
    # u_k / (u_(k-1) z) <= 0.53 there, so all 20 are summed and the last
    # one stands for the remainder.
    s_ai = np.ones_like(t)
    s_aip = np.ones_like(t)
    zk = np.ones_like(t)
    sign = -1.0
    for k in range(1, 21):
        zk = zk * z
        term = _ASY_U[k] / zk
        s_ai = s_ai + sign * term
        s_aip = s_aip + sign * (_ASY_V[k] / zk)
        sign = -sign
    dropped = np.abs(term)
    q = t ** 0.25
    ez = np.exp(-z)
    pref = ez / (2.0 * SQRT_PI * q)
    ai = pref * s_ai
    aip = -q * ez / (2.0 * SQRT_PI) * s_aip
    # first dropped term plus an exp(-z) argument-rounding envelope
    err = np.abs(ai) * ((z + 6.0) * 3e-16) + pref * dropped
    return ai, aip, err


def airy_values(t):
    """(Ai, Ai', err_estimate, method) at each t; method is AIRY_SERIES at
    t <= T_SWITCH and AIRY_ASYMPTOTIC above."""
    t = np.asarray(t, dtype=np.float64)
    ai = np.empty_like(t)
    aip = np.empty_like(t)
    err = np.empty_like(t)
    ser = t <= T_SWITCH
    if ser.any():
        a, ap, e = _airy_series(t[ser])
        ai[ser] = a
        aip[ser] = ap
        err[ser] = e
    asym = ~ser
    if asym.any():
        a, ap, e = _airy_asym(t[asym])
        ai[asym] = a
        aip[asym] = ap
        err[asym] = e
    method = np.where(ser, AIRY_SERIES, AIRY_ASYMPTOTIC).astype(np.int8)
    return ai, aip, err, method


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
