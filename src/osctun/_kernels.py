"""Low-level numerical kernels, vectorized with numpy.

Everything here operates on raw float64 scalars/arrays and performs no input
validation; the public modules own the contracts.

Kernels:
- hermite_values(n, x):       oscillator eigenfunction psi_n on an x array,
                              power-of-2 scaled three-term recurrence
- airy_values(t):             (Ai, Ai', err_estimate, method) on a t array,
                              dd-compensated Maclaurin series below T_SWITCH,
                              optimally truncated asymptotic expansion above
- invert_zeta_values(zeta):   x - 1 solving zeta(x) = zeta, series seed plus
                              safeguarded Newton on the 3/2-power form
- zeta_from_e(e), f_from_e(e): forward turning-point map and its f ratio,
                              series near e = x - 1 = 0, direct form elsewhere
- hermite_tail_sum(n, x):     sum of psi_k psi_{k-1} / sqrt(2k) over k <= n
                              and psi_n at one x beyond the turning point; a
                              plain Python scalar loop
- hermite_tail_sums(n, x):    the same for many (n_j, x_j) at once, one
                              numpy pass over k <= max n with the scalar
                              loop's bits
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# constants

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)
INV_LN2 = 1.0 / math.log(2.0)
TWO_13 = 2.0 ** (1.0 / 3.0)        # 2^(1/3)
TWO_M13 = 2.0 ** (-1.0 / 3.0)
TWO_M23 = 2.0 ** (-2.0 / 3.0)      # f at the turning point

# recurrence renormalization thresholds; +-600 keeps mantissa*mantissa safe
_RESCALE_HI = 2.0 ** 600
_RESCALE_LO = 2.0 ** -600

# the tail sum multiplies two mantissas and adds n such products, so its
# mantissas renormalize at 2^256 instead
_SUM_RESCALE_BITS = 256
_SUM_RESCALE_HI = 2.0 ** _SUM_RESCALE_BITS
_SUM_RESCALE_LO = 2.0 ** -_SUM_RESCALE_BITS

# ln 2 in two parts for the Cody-Waite reduction in psi0_scaled: LN2_HI is
# ln 2 rounded to double, LN2_LO the remainder; pi^(-1/4) rounded to double
LN2_HI = 0.6931471805599453
LN2_LO = 2.3190468138462996e-17
PI_M14 = 0.7511255444649425

# Airy branch switch; the dd series holds <= 5e-15 relative through t ~ 9.5
# while the asymptotic optimal truncation reaches ~2e-15 at t = 9 (z = 18)
T_SWITCH = 9.0
AIRY_SERIES = 0    # method codes
AIRY_ASYMPTOTIC = 1
_MAX_TERMS = 200

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

# zeta(1+e) = 2^(1/3) e (c0 + c1 e + ...); exact rationals from series
# reversion of (3/4)(x sqrt(x^2-1) - arccosh x) = zeta^(3/2)
ZETA_SERIES_C = np.array([
    1.0,
    1.0 / 10.0,
    -2.0 / 175.0,
    37.0 / 15750.0,
    -1849.0 / 3031875.0,
    71237.0 / 394143750.0,
    -3627836.0 / 62077640625.0,
    30316679.0 / 1507599843750.0,
    -39984347342.0 / 5514046428515625.0,
])

# f(1+e) = 2^(-2/3) (f0 + f1 e + ...), f = zeta/(x^2-1)
F_SERIES_C = np.array([
    1.0,
    -2.0 / 5.0,
    33.0 / 175.0,
    -724.0 / 7875.0,
    137521.0 / 3031875.0,
    -914.0 / 40625.0,
    694697869.0 / 62077640625.0,
    -29418551056.0 / 5276599453125.0,
    5110402859806.0 / 1838015476171875.0,
])

# inverse map e(w) = w (b0 + b1 w + ...), w = 2^(-1/3) zeta
INV_SERIES_B = np.array([
    1.0,
    -1.0 / 10.0,
    11.0 / 350.0,
    -823.0 / 63000.0,
    150653.0 / 24255000.0,
    -3362377.0 / 1051050000.0,
    156912407.0 / 90294750000.0,
    -132463501789.0 / 135080946000000.0,
])

# regime boundaries; seams verified to ~3e-15 relative
DELTA_ZETA_SERIES = 1e-3   # forward map: series for e < delta, direct beyond
DELTA_F_SERIES = 0.05      # f ratio: wider zone, no cancellation in either form
ZETA_INV_SERIES = 0.02     # inverse: series alone is at roundoff below this

_NEWTON_RTOL = 1e-14       # on the 3/2-power residual; ~6.7e-15 in zeta
_NEWTON_MAX = 100


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
# elementwise turning-point map pieces

def zeta_series_factor(e):
    """Horner sum of the zeta series in e; zeta = 2^(1/3) * e * factor."""
    acc = e * 0.0 + ZETA_SERIES_C[8]
    for i in range(7, -1, -1):
        acc = acc * e + ZETA_SERIES_C[i]
    return acc


def f_series_factor(e):
    """Horner sum of the f series in e; f = 2^(-2/3) * factor."""
    acc = e * 0.0 + F_SERIES_C[8]
    for i in range(7, -1, -1):
        acc = acc * e + F_SERIES_C[i]
    return acc


def inv_series_e(zeta):
    """Series inverse e(zeta); full precision only for zeta <~ 0.02."""
    w = TWO_M13 * zeta
    acc = w * 0.0 + INV_SERIES_B[7]
    for i in range(6, -1, -1):
        acc = acc * w + INV_SERIES_B[i]
    return w * acc


def g_of_e(e):
    """(3/4)(x sqrt(x^2-1) - arccosh x) at x = 1+e, i.e. zeta^(3/2).

    Written in e so x^2-1 = e(2+e) carries no cancellation; arccosh through
    log1p for the same reason.  Accurate for e >~ 1e-3 (series covers below).
    """
    r = np.sqrt(e * (2.0 + e))
    return 0.75 * ((1.0 + e) * r - np.log1p(e + r))


# ---------------------------------------------------------------------------
# telescoping tail sum: scalar loop and its batched form

def psi0_scaled(x):
    """(m, e) with psi_0(x) = m * 2^e to a few ulp, for any float x.

    x^2 = p + q exactly (two_prod) and p/2 is exact, so the rounding of x^2
    costs nothing; exp(-p/2) is reduced by k ln 2 with ln 2 carried in two
    parts (Cody-Waite), so a large exponent costs nothing either.
    """
    p, q = two_prod(x, x)
    h = 0.5 * p
    k = round(h * INV_LN2)
    kl, kl_err = two_prod(float(k), LN2_HI)
    y = ((kl - h) + kl_err) + (k * LN2_LO - 0.5 * q)
    return PI_M14 * math.exp(y), -k


def hermite_tail_sum(n, x):
    """(S, psi_n(x)) with S = sum_{k=1..n} psi_k(x) psi_{k-1}(x) / sqrt(2k).

    One scalar pass of the normalized recurrence, written with
    t_k = sqrt(k/2) as psi_k = (x psi_{k-1} - t_{k-1} psi_{k-2}) / t_k so
    each step rounds one square root of an exact half-integer.  Meant for
    x from about sqrt(2n+1) outward, beyond the largest zero of psi_n:
    there every psi_k with k <= n is positive, so no term cancels, and the
    recurrence follows its growing solution.  The mantissas carry a
    power-of-2 offset, and S is kept in the squared scale, so nothing
    overflows.
    """
    m1, ioff = psi0_scaled(x)
    m0 = t0 = s = 0.0
    sqrt = math.sqrt
    hi, lo, lo2 = _SUM_RESCALE_HI, _SUM_RESCALE_LO, _SUM_RESCALE_LO ** 2
    for k in range(1, n + 1):
        t1 = sqrt(0.5 * k)
        m0, m1 = m1, (x * m1 - t0 * m0) / t1
        s += m1 * m0 / t1          # 2 psi_k psi_{k-1} / sqrt(2k), scaled
        t0 = t1
        if m1 > hi:
            m0 *= lo
            m1 *= lo
            s *= lo2
            ioff += _SUM_RESCALE_BITS
    return math.ldexp(0.5 * s, 2 * ioff), math.ldexp(m1, ioff)


def hermite_tail_sums(n, x):
    """hermite_tail_sum(n[j], x[j]) for every j, from one recurrence.

    One pass over k = 1..max n runs the scalar loop's arithmetic on the
    vector of x_j, op for op, so every result has the scalar bits: psi_0
    comes from psi0_scaled, and a column rescales only at the steps where
    the scalar loop would.  Column j is read off at step k = n[j] and then
    leaves the pass.  n may be unsorted and hold duplicates or zeros.
    Returns the arrays (S, psi_n) in input order.

    The bookkeeping (sorting, reading off, the final ldexp) is plain
    Python, and a rescale touches only the columns that need it, so the
    pass calls no numpy routine beyond elementwise arithmetic and argmax:
    the first call of any other maps up to 128 KB of numpy's code into
    the resident set, which would cost more than a sweep's own arrays.
    """
    n = [int(v) for v in n]
    order = sorted(range(len(n)), key=n.__getitem__)
    ns = [n[j] for j in order]
    xl = [float(x[j]) for j in order]
    xs = np.array(xl)
    count = len(ns)
    seeds = [psi0_scaled(xj) for xj in xl]
    m1 = np.array([m for m, _ in seeds])
    ioff = [e for _, e in seeds]
    m0 = np.zeros(count)
    s = np.zeros(count)
    tmp = np.empty(count)
    # s of a column stays as it was when the column left the pass; its
    # psi_n mantissa is copied out, since the m buffers rotate
    psi_m = m1.tolist()
    done = 0
    while done < count and ns[done] == 0:
        done += 1
    sqrt = math.sqrt
    hi, lo, lo2 = _SUM_RESCALE_HI, _SUM_RESCALE_LO, _SUM_RESCALE_LO ** 2
    # t_k as 0-d arrays, which numpy broadcasts faster than a Python float
    t0 = np.zeros(())
    t1 = np.empty(())
    vx, vm0, vm1, vs, vt = (a[done:] for a in (xs, m0, m1, s, tmp))
    for k in range(1, (ns[-1] if count else 0) + 1):
        t1[()] = sqrt(0.5 * k)
        np.multiply(vx, vm1, vt)
        np.multiply(vm0, t0, vm0)
        np.subtract(vt, vm0, vt)
        np.divide(vt, t1, vt)
        # (m0, m1) <- (m1, new); the old m0 buffer becomes the scratch
        m0, m1, tmp = m1, tmp, m0
        vm0, vm1, vt = vm1, vt, vm0
        np.multiply(vm1, vm0, vt)
        np.divide(vt, t1, vt)
        np.add(vs, vt, vs)
        t0, t1 = t1, t0
        j = int(vm1.argmax())
        while vm1[j] > hi:
            vm0[j] *= lo
            vm1[j] *= lo
            vs[j] *= lo2
            ioff[done + j] += _SUM_RESCALE_BITS
            j = int(vm1.argmax())
        if ns[done] == k:
            while done < count and ns[done] == k:
                psi_m[done] = float(m1[done])
                done += 1
            vx, vm0, vm1, vs, vt = (a[done:] for a in (xs, m0, m1, s, tmp))
    res_s = np.empty(count)
    res_psi = np.empty(count)
    ldexp = math.ldexp
    for j, sj, mj, ej in zip(order, s.tolist(), psi_m, ioff):
        res_s[j] = ldexp(0.5 * sj, 2 * ej)
        res_psi[j] = ldexp(mj, ej)
    return res_s, res_psi


# ---------------------------------------------------------------------------
# Hermite recurrence, Airy function and inverse turning-point map on arrays

def hermite_values(n, x):
    """psi_n at each x via the normalized recurrence on a scaled mantissa.

    The mantissa pair renormalizes through a power-of-2 exponent offset, so no
    intermediate overflows or underflows for any n, x a float64 can hold; one
    ldexp at the end restores the true magnitude (which may itself underflow
    to 0, the correct answer there).
    """
    x = np.asarray(x, dtype=np.float64)
    # psi_0 seeded as in psi0_scaled, elementwise
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
    # F, G Maclaurin sums and their derivative sums, all in double-double;
    # the t^3 power also stays in dd so high terms do not drift
    t3h, t3l = two_prod(t, t)
    t3h, t3l = dd_mul_d(t3h, t3l, t)
    fh = np.ones_like(t)
    fl = np.zeros_like(t)
    gh = t.copy()
    gl = np.zeros_like(t)
    fth = np.ones_like(t)
    ftl = np.zeros_like(t)
    gth = t.copy()
    gtl = np.zeros_like(t)
    mag = 1.0 + np.abs(t)
    for k in range(_MAX_TERMS):
        fth, ftl = dd_mul(fth, ftl, t3h, t3l)
        fth, ftl = dd_div_d(fth, ftl, (3.0 * k + 2.0) * (3.0 * k + 3.0))
        fh, fl = dd_add(fh, fl, fth, ftl)
        gth, gtl = dd_mul(gth, gtl, t3h, t3l)
        gth, gtl = dd_div_d(gth, gtl, (3.0 * k + 3.0) * (3.0 * k + 4.0))
        gh, gl = dd_add(gh, gl, gth, gtl)
        mag = mag + np.abs(fth) + np.abs(gth)
        done = (np.abs(fth) < 1e-35 * np.abs(fh)) & (
            np.abs(gth) < 1e-35 * np.maximum(np.abs(gh), 1e-300))
        if done.all():
            break
    fph, fpl = two_prod(t, t)
    fph, fpl = dd_div_d(fph, fpl, 2.0)
    fpth, fptl = fph, fpl
    k = 1
    while k < _MAX_TERMS:
        nh, nl = dd_mul(fpth, fptl, t3h, t3l)
        nh, nl = dd_mul_d(nh, nl, float(k + 1))
        nh, nl = dd_div_d(nh, nl, float(k) * (3.0 * k + 2.0) * (3.0 * k + 3.0))
        fpth, fptl = nh, nl
        fph, fpl = dd_add(fph, fpl, fpth, fptl)
        if (np.abs(fpth) < 1e-35 * np.maximum(np.abs(fph), 1e-300)).all():
            break
        k += 1
    gph = np.ones_like(t)
    gpl = np.zeros_like(t)
    gpth = np.ones_like(t)
    gptl = np.zeros_like(t)
    k = 0
    while k < _MAX_TERMS:
        nh, nl = dd_mul(gpth, gptl, t3h, t3l)
        nh, nl = dd_div_d(nh, nl, (3.0 * k + 1.0) * (3.0 * k + 3.0))
        gpth, gptl = nh, nl
        gph, gpl = dd_add(gph, gpl, gpth, gptl)
        if (np.abs(gpth) < 1e-35 * np.maximum(np.abs(gph), 1e-300)).all():
            break
        k += 1
    ah, al = dd_mul(fh, fl, AI0_HI, AI0_LO)
    bh, bl = dd_mul(gh, gl, AIP0_HI, AIP0_LO)
    aih, _ = dd_add(ah, al, bh, bl)
    ah, al = dd_mul(fph, fpl, AI0_HI, AI0_LO)
    bh, bl = dd_mul(gph, gpl, AIP0_HI, AIP0_LO)
    aiph, _ = dd_add(ah, al, bh, bl)
    err = 2.5e-16 * np.abs(aih) + 1e-31 * mag
    return aih, aiph, err


def _airy_asym(t):
    st = np.sqrt(t)
    z = (2.0 / 3.0) * t * st
    s_ai = np.ones_like(t)
    s_aip = np.ones_like(t)
    zk = np.ones_like(t)
    prev = np.full_like(t, 1e308)
    dropped = np.zeros_like(t)
    active = np.ones(t.shape, dtype=bool)
    sign = -1.0
    for k in range(1, 21):
        zk = zk * z
        term = _ASY_U[k] / zk
        stop = active & (np.abs(term) >= np.abs(prev))
        dropped = np.where(stop, np.abs(term), dropped)
        active = active & ~stop
        s_ai = np.where(active, s_ai + sign * term, s_ai)
        s_aip = np.where(active, s_aip + sign * (_ASY_V[k] / zk), s_aip)
        dropped = np.where(active, np.abs(term), dropped)
        prev = term
        sign = -sign
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
    """x - 1 solving the forward map = zeta, per element.

    Returns (e, ok); ok is False when any element hit the iteration cap
    (does not happen for finite nonnegative input, kept for the contract).
    """
    zeta = np.asarray(zeta, dtype=np.float64)
    e = inv_series_e(zeta)
    big = zeta > 1.2
    if big.any():
        w_all = zeta * np.sqrt(zeta)
        e = np.where(big, np.sqrt(4.0 * w_all / 3.0) - 1.0, e)
    active = zeta > ZETA_INV_SERIES
    if not active.any():
        return e, True
    w = zeta * np.sqrt(zeta)
    lo = np.zeros_like(e)
    hi = 2.0 * e + 1.0
    for _ in range(60):
        grow = active & (g_of_e(hi) < w)
        if not grow.any():
            break
        hi = np.where(grow, hi * 2.0, hi)
    for _ in range(_NEWTON_MAX):
        if not active.any():
            break
        g = g_of_e(e)
        resid = g - w
        under = g < w
        lo = np.where(active & under, np.maximum(lo, e), lo)
        hi = np.where(active & ~under, np.minimum(hi, e), hi)
        conv = np.abs(resid) <= _NEWTON_RTOL * w
        active = active & ~conv
        dg = 1.5 * np.sqrt(e * (2.0 + e))
        step = resid / np.where(dg > 0.0, dg, 1.0)
        enew = e - step
        outside = (enew <= lo) | (enew >= hi)
        enew = np.where(outside, 0.5 * (lo + hi), enew)
        # Fixed point: the update cannot move e, so the residual is
        # roundoff-limited and the iterate is accepted.
        active = active & (enew != e)
        e = np.where(active, enew, e)
    return e, not active.any()


def zeta_from_e(e):
    """Forward map zeta(1+e) on an array; series under the seam, else direct."""
    e = np.asarray(e, dtype=np.float64)
    # The series sees no e above its seam, so a large e cannot overflow it.
    es = np.minimum(e, DELTA_ZETA_SERIES)
    ser = TWO_13 * es * zeta_series_factor(es)
    direct = g_of_e(e) ** (2.0 / 3.0)
    return np.where(e < DELTA_ZETA_SERIES, ser, direct)


def f_from_e(e):
    """f = zeta/(x^2-1) at x = 1+e on an array; continuous limit 2^(-2/3) at 0."""
    e = np.asarray(e, dtype=np.float64)
    ser = TWO_M23 * f_series_factor(np.minimum(e, DELTA_F_SERIES))
    small = e < DELTA_F_SERIES
    denom = np.where(small, 1.0, e * (2.0 + e))
    direct = g_of_e(e) ** (2.0 / 3.0) / denom
    return np.where(small, ser, direct)
