"""Turning-point map, asymptotic coefficients, and the uniform bound."""

import functools
import math
import tracemalloc
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import osctun
from osctun import _kernels, asymptotics, specfun
from osctun.asymptotics import (C1, C2, F_INFINITY, IterationLimitError,
                                big_f_n, big_f_n_values, f_n, f_of_x, f_of_x_values,
                                leading_term, olver_approx, second_order,
                                x_of_zeta, zeta_of_x, zeta_of_x_values)
from osctun.quadrature import (_GAUSS_IDX, _WG, _WK, _XK,
                               integrate_semi_infinite)


# --- exact series re-derivation ------------------------------------------
# The map satisfies G'(e) = (3/2) sqrt(e(2+e)) for G = zeta^(3/2) at x = 1+e,
# so G = e^(3/2) sqrt(2) R(e) with R rational:
# R = (3/2) sum_k binom(1/2,k) 2^(-k) e^k / (k+3/2), R(0) = 1.
# Everything below reproduces the frozen coefficient arrays from R alone
# using exact rational arithmetic.

def ser_mul(a, b, m):
    out = [Fr(0)] * m
    for i in range(min(len(a), m)):
        if a[i] == 0:
            continue
        for j in range(min(len(b), m - i)):
            out[i + j] += a[i] * b[j]
    return out


def ser_inv(a, m):
    out = [Fr(0)] * m
    out[0] = 1 / a[0]
    for k in range(1, m):
        s = Fr(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * out[k - j]
        out[k] = -s / a[0]
    return out


def ser_log(a, m):
    ap = [Fr(i + 1) * a[i + 1] for i in range(len(a) - 1)]
    d = ser_mul(ap, ser_inv(a, m), m)
    out = [Fr(0)] * m
    for i in range(m - 1):
        out[i + 1] = d[i] / (i + 1)
    return out


def ser_exp(a, m):
    out = [Fr(0)] * m
    out[0] = Fr(1)
    for k in range(1, m):
        s = Fr(0)
        for j in range(1, k + 1):
            if j < len(a):
                s += Fr(j) * a[j] * out[k - j]
        out[k] = s / k
    return out


def ser_pow(a, p, m):
    return ser_exp([p * c for c in ser_log(a, m)], m)


def ser_compose(a, e, m):
    out = [Fr(0)] * m
    out[0] = a[-1]
    for i in range(len(a) - 2, -1, -1):
        out = ser_mul(out, e, m)
        out[0] += a[i]
    return out


def _r_series(m):
    coeffs = []
    b = Fr(1)
    for k in range(m):
        coeffs.append(Fr(3, 2) * b / (Fr(k) + Fr(3, 2)) / 2 ** k)
        b = b * (Fr(1, 2) - k) / (k + 1)
    return coeffs


class TestFrozenSeriesCoefficients:
    def test_zeta_series(self):
        m = 9
        zc = ser_pow(_r_series(m), Fr(2, 3), m)
        for i in range(m):
            want = float(zc[i].numerator) / float(zc[i].denominator)
            assert _kernels.ZETA_SERIES_C[i] == want

    def test_f_series(self):
        m = 9
        zc = ser_pow(_r_series(m), Fr(2, 3), m)
        fc = ser_mul(zc, ser_inv([Fr(1), Fr(1, 2)], m), m)
        assert fc[1] == Fr(-2, 5)
        for i in range(m):
            want = float(fc[i].numerator) / float(fc[i].denominator)
            assert _kernels.F_SERIES_C[i] == want

    def test_inverse_series_by_reversion(self):
        m = 9
        zc = ser_pow(_r_series(m), Fr(2, 3), m)
        e_of_w = [Fr(0), Fr(1)] + [Fr(0)] * (m - 2)
        for k in range(2, m):
            p = ser_mul(e_of_w, ser_compose(zc, e_of_w, m), m)
            e_of_w[k] = -p[k]
        for j in range(m - 1):
            want = e_of_w[j + 1]
            got = _kernels.INV_SERIES_B[j]
            assert got == float(want.numerator) / float(want.denominator)


class TestZetaMap:
    def test_turning_point(self):
        zp = zeta_of_x(1.0)
        assert zp.zeta == 0.0
        assert zp.regime == "series-near-one"

    def test_local_slope(self):
        e = 1e-6
        ratio = zeta_of_x(1.0 + e).zeta / e
        assert abs(ratio - 2.0 ** (1.0 / 3.0)) < 1e-5 * 2.0 ** (1.0 / 3.0)

    def test_cosh_one_closed_form(self):
        want = ((3.0 / 4.0) * (math.sinh(2.0) / 2.0 - 1.0)) ** (2.0 / 3.0)
        zp = zeta_of_x(math.cosh(1.0))
        assert zp.regime == "direct"
        assert abs(zp.zeta - want) < 1e-13 * want

    def test_seam_continuity(self):
        # Series and direct formulas evaluated at the same point near the
        # switch must agree to 1e-12 relative.
        e = _kernels.DELTA_ZETA_SERIES
        ser = _kernels.TWO_13 * e * float(_kernels.zeta_series_factor(e))
        direct = float(_kernels.g_of_e(np.float64(e))) ** (2.0 / 3.0)
        assert abs(ser - direct) < 1e-12 * direct

    def test_scalar_and_vector_agree_bitwise(self):
        # One zeta route: the scalar map is the vector map at one point, in
        # both regimes and a few ulp either side of the 1e-3 seam.
        d = _kernels.DELTA_ZETA_SERIES
        e = np.concatenate([[0.0], np.geomspace(1e-9, 1e3, 3000),
                            d * (1.0 + np.linspace(-1e-12, 1e-12, 41))])
        x = 1.0 + e
        scalar = [zeta_of_x(xi) for xi in x]
        assert np.array_equal([zp.zeta for zp in scalar], zeta_of_x_values(x))
        assert [zp.regime for zp in scalar] == [
            "series-near-one" if xi - 1.0 < d else "direct" for xi in x]

    def test_monotone_on_grid(self):
        x = np.concatenate([np.linspace(1.0, 1.01, 200),
                            np.geomspace(1.01, 50.0, 400)[1:]])
        z = zeta_of_x_values(x)
        assert np.all(np.diff(z) > 0.0)

    def test_derivative_identity(self):
        for x in (1.1, 1.5, 3.0):
            h = 1e-5 * x
            num = (zeta_of_x(x + h).zeta - zeta_of_x(x - h).zeta) / (2.0 * h)
            want = math.sqrt((x * x - 1.0) / zeta_of_x(x).zeta)
            assert abs(num - want) < 1e-6 * want

    def test_rejects_below_turning_point(self):
        with pytest.raises(ValueError):
            zeta_of_x(0.999)
        with pytest.raises(ValueError):
            zeta_of_x(float("nan"))


class TestInverseMap:
    def test_zero(self):
        assert x_of_zeta(0.0) == 1.0

    def test_series_regime_value(self):
        got = x_of_zeta(1e-8)
        want = 1.0 + 2.0 ** (-1.0 / 3.0) * 1e-8
        assert abs(got - want) < 1e-14

    def test_round_trips(self):
        for x in (1.0 + 1e-6, 1.01, 1.5, 3.0, 10.0):
            back = x_of_zeta(zeta_of_x(x).zeta)
            assert abs(back - x) < 1e-10 * x

    def test_residual_contract(self):
        for zeta in (1e-9, 1e-4, 0.3, 2.0, 13.0, 40.0):
            x = x_of_zeta(zeta)
            assert abs(zeta_of_x(x).zeta - zeta) <= 1e-12 * max(1.0, zeta)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            x_of_zeta(-1e-9)


class TestProfileFunction:
    def test_left_endpoint(self):
        assert abs(f_of_x(1.0) - 2.0 ** (-2.0 / 3.0)) < 1e-15

    def test_cosh_one(self):
        want = zeta_of_x(math.cosh(1.0)).zeta / math.sinh(1.0) ** 2
        assert abs(f_of_x(math.cosh(1.0)) - want) < 1e-13 * want

    def test_ordering(self):
        assert f_of_x(10.0) < f_of_x(2.0) < f_of_x(1.1)

    def test_strictly_decreasing_dense(self):
        x = 1.0 + np.geomspace(1e-9, 49.0, 10 ** 4)
        f = f_of_x_values(x)
        assert np.all(np.diff(f) < 0.0)

    def test_seam_continuity(self):
        e = _kernels.DELTA_F_SERIES
        ser = _kernels.TWO_M23 * float(_kernels.f_series_factor(e))
        direct = (float(_kernels.g_of_e(np.float64(e))) ** (2.0 / 3.0)
                  / (e * (2.0 + e)))
        assert abs(ser - direct) < 1e-12 * direct


class TestScaledProfile:
    def test_at_zero(self):
        for n in (0, 5, 1000):
            assert abs(f_n(n, 0.0) - 2.0 ** (-2.0 / 3.0)) < 1e-15

    def test_large_order_limit(self):
        got = f_n(10 ** 6, 1.0)
        assert abs(got - 2.0 ** (-2.0 / 3.0)) < 1e-4

    def test_decreasing_in_t(self):
        vals = [f_n(10, t) for t in (0.0, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_derivative_at_origin(self):
        # One-sided second-order difference in zeta; the slope must come out
        # at -1/5.
        n = 10
        s = (2.0 * n + 1.0) ** (2.0 / 3.0)
        h = 1e-6
        f0 = f_n(n, 0.0)
        f1 = f_n(n, h * s)
        f2 = f_n(n, 2.0 * h * s)
        slope = (4.0 * f1 - f2 - 3.0 * f0) / (2.0 * h)
        assert abs(slope + 0.2) < 1e-3


def mp_big_f_n(n):
    """F_n at 30 digits by quadrature in x, with no inversion of the map.

    With t = nu^(4/3) zeta(x) and zeta'(x) = f(x)^(-1/2),
    F_n = nu^(4/3) int_1^inf sqrt(f(x)) Ai(nu^(4/3) zeta(x))^2 dx.
    """
    with mpmath.workdps(30):
        nu43 = mpmath.mpf(2 * n + 1) ** (mpmath.mpf(2) / 3)

        def zeta(x):
            # x sqrt(x^2 - 1) - arccosh x cancels like (x - 1)^(3/2) near
            # the turning point, where the tanh-sinh nodes crowd; 70 more
            # digits keep zeta at full precision there.
            with mpmath.extradps(70):
                r = mpmath.sqrt(x * x - 1)
                z = (mpmath.mpf(3) / 4 * (x * r - mpmath.acosh(x))) ** (
                    mpmath.mpf(2) / 3)
            return +z

        def integrand(x):
            if x == 1:
                # sqrt(f(1)) = 2^(-1/3), the limit where zeta/(x^2 - 1)
                # is 0/0
                return mpmath.cbrt(0.5) * mpmath.airyai(0) ** 2
            z = zeta(x)
            return mpmath.sqrt(z / (x * x - 1)) * mpmath.airyai(nu43 * z) ** 2

        # Panel edges where t = 0.5 .. 80 follow the decay of Ai(t)^2.
        edges = [mpmath.mpf(1)]
        for t in (0.5, 2, 5, 10, 20, 40, 80):
            guess = 1 + t / nu43 / mpmath.mpf(2) ** (mpmath.mpf(1) / 3)
            edges.append(mpmath.findroot(lambda x: nu43 * zeta(x) - t, guess))
        return nu43 * mpmath.quad(integrand, edges)


def quad_big_f_n(n, config=None):
    """F_n and its error estimate by adaptive quadrature of f_n Ai^2."""
    scale = (2.0 * n + 1.0) ** (-2.0 / 3.0)

    def integrand(t):
        e, ok = _kernels.invert_zeta_values(scale * t)
        assert ok
        ai = specfun.airy_ai_values(t)
        return _kernels.f_from_e(e) * ai * ai

    return integrate_semi_infinite(integrand, 0.0, config)


@functools.cache
def airy_weighted_rule():
    # The fixed rule that computed F_n before the Chebyshev series: the
    # 15-point Kronrod rule on each unit panel of [0, 14], 210 nodes t_j with
    # weights w_j Ai(t_j)^2.  Past t = 14 the dropped tail is below 1e-33.
    t = (np.arange(14)[:, None] + 0.5 * (1.0 + _XK)).ravel()
    ai = specfun.airy_ai_values(t)
    return t, np.tile(0.5 * _WK, 14) * ai * ai


def rule_f_n(ns):
    """F_n by the fixed rule, level by level, as an oracle for the series.

    Each level is one inversion of the map on the 210 nodes and one dot
    product; at spot levels from 1 to 10^6 it is within 1.3 eps of
    30-digit mpmath.
    """
    t, w = airy_weighted_rule()
    out = []
    for n in ns:
        scale = (2.0 * n + 1.0) ** (-2.0 / 3.0)
        e, ok = _kernels.invert_zeta_values(scale * t)
        assert ok
        out.append(float(_kernels.f_from_e(e) @ w))
    return np.array(out)


_EPS = float(np.finfo(np.float64).eps)


class TestAiryWeightedIntegral:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 37, 100, 500, 1000, 10 ** 6])
    def test_against_mpmath(self, n):
        got = big_f_n(n)
        want = mp_big_f_n(n)
        assert abs(got - want) <= 4.0 * _EPS * got

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(min_value=1, max_value=10 ** 6))
    def test_rule_matches_adaptive_quadrature(self, n):
        got = big_f_n(n)
        want, err = quad_big_f_n(n)
        assert abs(got - want) <= err + 8.0 * _EPS * got

    @pytest.mark.parametrize("n", [1, 6, 100, 1000, 10 ** 6])
    def test_embedded_gauss_gap(self, n):
        # The 7-point Gauss rule embedded in each 15-point Kronrod panel of
        # [0, 14] sees the same integrand; a small gap shows the Kronrod
        # rule has converged.  What the cutoff drops is
        # int_14^inf Ai^2 = Ai'(14)^2 - 14 Ai(14)^2, times f_n <= 1.
        t = (np.arange(14)[:, None] + 0.5 * (1.0 + _XK[_GAUSS_IDX])).ravel()
        scale = (2.0 * n + 1.0) ** (-2.0 / 3.0)
        e, ok = _kernels.invert_zeta_values(scale * t)
        assert ok
        ai = specfun.airy_ai_values(t)
        gauss = float(_kernels.f_from_e(e) * ai * ai @ np.tile(0.5 * _WG, 14))
        kronrod = big_f_n(n)
        assert abs(kronrod - gauss) <= 1e-13 * kronrod
        with mpmath.workdps(30):
            tail = (mpmath.airyai(14, derivative=1) ** 2
                    - 14 * mpmath.airyai(14) ** 2)
        assert 0.0 < tail < 1e-32

    def test_series_matches_rule(self):
        ns = np.concatenate([np.arange(1, 5001),
                             np.geomspace(5000, 10 ** 12, 60).round()[1:]])
        ns = [int(n) for n in ns]
        got = big_f_n_values(ns)
        want = rule_f_n(ns)
        assert np.all(np.abs(got - want) <= 3.0 * _EPS * want)

    def test_huge_level_gives_f_infinity(self):
        # s = 10^(-200) rounds the series argument to -1, where the sum is
        # F(0) = F_INFINITY.
        gap = abs(big_f_n(10 ** 300) - F_INFINITY)
        assert gap <= 2.0 * math.ulp(F_INFINITY)

    def test_below_limit(self):
        for n in (6, 50, 500):
            assert 0.0 < big_f_n(n) < F_INFINITY

    def test_ratio_trend(self):
        ratios = [F_INFINITY / big_f_n(n) for n in (6, 20, 100, 500)]
        assert all(r > 1.0 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.01

    def test_first_correction_scale(self):
        want = 2.0 ** (-2.0 / 3.0) / 5.0 * 0.0306294
        got = (F_INFINITY - big_f_n(500)) * 500.0 ** (2.0 / 3.0)
        assert abs(got - want) < 0.1 * want

    def test_consistent_with_exact_route(self):
        for n, tol in ((100, 0.03), (500, 0.015)):
            approx = 2.0 ** (5.0 / 3.0) * n ** (-1.0 / 3.0) * big_f_n(n)
            exact = osctun.tunneling_exact(n).value
            assert abs(approx - exact) <= tol * exact

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            big_f_n(0)


class TestFnSweep:
    """big_f_n_values has the bits of one-level big_f_n calls, in input
    order."""

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 33, 495])
    def test_equals_one_level_values(self, count):
        ns = list(range(6, 6 + count))
        got = big_f_n_values(ns)
        assert got.shape == (count,)
        assert [float(v) for v in got] == [big_f_n(n) for n in ns]

    def test_large_levels_any_order(self):
        ns = [10 ** 6, 1, 10 ** 5, 999999, 2000, 10 ** 4, 1, 37]
        want = [big_f_n(n) for n in ns]
        assert [float(v) for v in big_f_n_values(ns)] == want
        assert [float(v) for v in big_f_n_values(ns[::-1])] == want[::-1]

    def test_checks_every_level_first(self, monkeypatch):
        assert big_f_n_values([]).shape == (0,)

        def must_not_run(*args):
            raise AssertionError("no level may be computed")

        monkeypatch.setattr(asymptotics, "_big_f_of_s", must_not_run)
        with pytest.raises(ValueError):
            big_f_n_values(list(range(1, 40)) + [0])
        with pytest.raises(ValueError):
            big_f_n(0)

    @pytest.mark.parametrize("levels, error, text", [
        ([5, True, 7], TypeError, "n must be an integer, got True"),
        ([5, 6.0], TypeError, "n must be an integer, got 6.0"),
        ([5, "7"], TypeError, "n must be an integer, got '7'"),
        ([5, np.bool_(True)], TypeError, "n must be an integer, got "),
        ([5, -3, 0], ValueError, "n must be nonnegative, got -3"),
        ([5, 0, -3], ValueError, "n must be >= 1 (the formula diverges"),
        (np.array([5, 0]), ValueError, "n must be >= 1 (the formula diverges"),
        ([10 ** 400, 0], ValueError, "n must be >= 1 (the formula diverges"),
    ])
    def test_names_the_first_bad_level(self, levels, error, text):
        with pytest.raises(error) as info:
            big_f_n_values(levels)
        assert str(info.value).startswith(text)

    def test_integer_types_agree(self):
        ns = [6, 10 ** 6, 2 ** 63 + 1, 10 ** 300]
        want = [float(v) for v in big_f_n_values(ns)]
        assert [big_f_n(n) for n in ns] == want
        mixed = [np.int64(6), np.uint64(10 ** 6), np.uint64(2 ** 63 + 1),
                 10 ** 300]
        assert [float(v) for v in big_f_n_values(mixed)] == want
        arr = np.arange(6, 501)
        assert list(big_f_n_values(arr)) == list(big_f_n_values(range(6, 501)))
        with pytest.raises(OverflowError):
            big_f_n_values([6, 10 ** 400])

    def test_memory_peak(self):
        ns = range(6, 501)
        big_f_n_values(ns)
        tracemalloc.start()
        try:
            big_f_n_values(ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestAsymptoticTerms:
    def test_leading_constant(self):
        r = leading_term(1)
        assert r.method == "leading"
        assert abs(r.value - 0.133975) < 1e-6

    def test_leading_scaling(self):
        assert abs(leading_term(8).value / leading_term(1).value - 0.5) < 1e-15
        assert abs(leading_term(1000).value - 0.0133975) < 1e-7
        vals = [leading_term(n).value * n ** (1.0 / 3.0) for n in (2, 31, 400)]
        assert max(vals) - min(vals) < 1e-15

    def test_second_order_value(self):
        r = second_order(1)
        assert r.method == "second-order"
        assert abs(r.value - (0.133975 - 0.0122518)) < 2e-6

    def test_correction_scaling(self):
        diffs = [(leading_term(n).value - second_order(n).value) * n
                 for n in (2, 31, 400)]
        assert max(diffs) - min(diffs) < 1e-15
        assert abs(second_order(10 ** 5).value / leading_term(10 ** 5).value
                   - 1.0) < 1e-3
        assert second_order(10 ** 5).value / leading_term(10 ** 5).value >= 0.999

    def test_second_coefficient_from_quadrature(self):
        val, _ = integrate_semi_infinite(
            lambda t: t * specfun.airy_ai_values(t) ** 2, 0.0)
        assert abs(0.4 * val - C2) < 1e-6
        assert abs(C2 - 0.0122518) < 1e-6

    @pytest.mark.parametrize("term", [leading_term, second_order])
    def test_err_estimate_bounds_exact_error(self, term):
        # Every level in 1..3000 and sampled levels up to 10^6.  C2/n alone
        # under-claims for the leading term at each of them, since the next
        # term, C1/6 n^(-4/3), has the same sign as C2/n.
        for ns in (range(1, 3001),
                   [5000, 10 ** 4, 3 * 10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6]):
            for p in osctun.tunneling_exact_values(ns):
                r = term(p.n)
                assert abs(r.value - p.value) <= r.err_estimate, p.n

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            leading_term(0)
        with pytest.raises(ValueError):
            second_order(0)


def log_lhs(n, x):
    # e^(-nu^2 x^2/2) H_n(nu x) rebuilt from psi_n in log space.
    nu = math.sqrt(2.0 * n + 1.0)
    psi = specfun.hermite_psi(n, nu * x)
    log_norm = (0.25 * math.log(math.pi)
                + 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))
    return psi * math.exp(log_norm)


class TestOlver:
    def test_prefactor_at_turning_point(self):
        n = 4
        nu2 = 9.0
        log_cn = (0.5 * math.log(2.0 * math.pi) - nu2 / 4.0
                  + (3.0 * nu2 - 1.0) / 6.0 * 0.5 * math.log(nu2))
        want = math.exp(log_cn) * 2.0 ** (-1.0 / 6.0) * specfun.GAMMA.ai_zero
        got = olver_approx(4, 1.0).rhs_value
        assert abs(got - want) < 1e-10 * want

    def test_eps_multiplier(self):
        oa = olver_approx(10, 1.3)
        ai = specfun.airy_ai(21.0 ** (2.0 / 3.0)
                             * zeta_of_x(1.3).zeta).value
        mult = oa.eps_bound / ai
        assert abs(mult - 0.005841) < 1e-6

    @pytest.mark.parametrize("x", [1.0, 1.05, 1.2, 2.0])
    def test_bound_holds(self, x):
        n = 10
        oa = olver_approx(n, x)
        lhs = log_lhs(n, x)
        allowance = math.exp(oa.log_prefactor) * oa.eps_bound
        assert abs(lhs - oa.rhs_value) <= allowance

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            olver_approx(0, 1.5)
        with pytest.raises(ValueError):
            olver_approx(3, 0.5)
