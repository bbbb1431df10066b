"""Turning-point map, asymptotic coefficients, and the uniform bound."""

import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
import osctun
from bad_levels import BAD_LEVELS
from osctun import _kernels, asymptotics, series, specfun
from osctun.asymptotics import (C1, C2, F_INFINITY, big_f_n,
                                f_n, f_of_x, leading_term, olver_approx,
                                second_order, x_of_zeta, zeta_of_x)
from osctun.quadrature import (_GAUSS_IDX, _WG, _WK, _XK,
                               integrate_semi_infinite)


_EPS = float(np.finfo(np.float64).eps)


def _ulps_around(center, count):
    """center and the count doubles on either side of it, in order."""
    up = [center]
    down = [center]
    for _ in range(count):
        up.append(np.nextafter(up[-1], math.inf))
        down.append(np.nextafter(down[-1], -math.inf))
    return np.array(down[:0:-1] + up)


class TestZetaMap:
    def test_turning_point(self):
        assert zeta_of_x(1.0) == 0.0

    def test_local_slope(self):
        e = 1e-6
        ratio = zeta_of_x(1.0 + e) / e
        assert abs(ratio - 2.0 ** (1.0 / 3.0)) < 1e-5 * 2.0 ** (1.0 / 3.0)

    def test_cosh_one_closed_form(self):
        # At x = cosh a, x sqrt(x^2 - 1) = sinh(2a)/2 and arccosh x = a;
        # a = 2 puts x = 3.76 on the direct branch.
        want = ((3.0 / 4.0) * (math.sinh(4.0) / 2.0 - 2.0)) ** (2.0 / 3.0)
        zeta = zeta_of_x(math.cosh(2.0))
        assert abs(zeta - want) < 1e-13 * want

    def test_seam_continuity(self):
        # Across the one seam, e = x - 1 = 1 where PHI hands over to the
        # direct formula, zeta never falls.
        e = _ulps_around(1.0, 64)
        assert np.all(np.diff(_kernels.zeta_f_from_e(e)[0]) >= 0.0)

    def test_scalar_and_vector_agree_bitwise(self):
        # One route per direction: each map at a float is the map on an
        # array at one point, on both sides of the seam at x = 2 and a few
        # ulp either side of it, and the inverse at the images.
        x = np.concatenate([[1.0], 1.0 + np.geomspace(1e-9, 1e3, 3000),
                            _ulps_around(2.0, 20)])
        zeta = zeta_of_x(x)
        assert np.array_equal([zeta_of_x(xi) for xi in x], zeta)
        assert np.array_equal([f_of_x(xi) for xi in x], f_of_x(x))
        assert np.array_equal([x_of_zeta(z) for z in zeta], x_of_zeta(zeta))
        assert {type(g(2.0)) for g in (zeta_of_x, f_of_x, x_of_zeta)} == {float}

    def test_monotone_on_grid(self):
        x = np.concatenate([np.linspace(1.0, 1.01, 200),
                            np.geomspace(1.01, 50.0, 400)[1:]])
        z = zeta_of_x(x)
        assert np.all(np.diff(z) > 0.0)

    def test_derivative_identity(self):
        for x in (1.1, 1.5, 3.0):
            h = 1e-5 * x
            num = (zeta_of_x(x + h) - zeta_of_x(x - h)) / (2.0 * h)
            want = math.sqrt((x * x - 1.0) / zeta_of_x(x))
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
            back = x_of_zeta(zeta_of_x(x))
            assert abs(back - x) < 1e-10 * x

    def test_residual_contract(self):
        for zeta in (1e-9, 1e-4, 0.3, 2.0, 13.0, 40.0):
            x = x_of_zeta(zeta)
            assert abs(zeta_of_x(x) - zeta) <= 1e-12 * max(1.0, zeta)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            x_of_zeta(-1e-9)

    def test_round_trips_across_the_seam(self):
        # PSI serves zeta <= zeta(2), Newton above it.  x = 2 +- 64 ulps
        # maps onto zeta(2) +- 190 ulps, and comes back within 2 ulps of 2.
        x = _ulps_around(2.0, 64)
        zeta = zeta_of_x(x)
        band = _ulps_around(_kernels.ZETA_2, 64)
        assert zeta[0] < band[0] and zeta[-1] > band[-1]
        back = np.array([x_of_zeta(z) for z in zeta])
        assert np.all(np.abs(back - x) <= 2.0 * math.ulp(2.0))


class TestMapAgainstMpmath:
    """zeta and f within 3 eps, and x - 1 from the inverse within 2 eps,
    of 40-digit mpmath: across [1, 11], at the seams of earlier versions
    (x - 1 = 1e-3 for zeta, 0.05 for f, zeta = 0.02 for the inverse), and
    at the one seam x = 2, zeta = zeta(2)."""

    def test_zeta_and_f(self):
        x = np.unique(np.concatenate([
            np.linspace(1.0, 11.0, 401)[1:], 1.0 + np.geomspace(1e-9, 0.5, 60),
            [1.001, 1.05], _ulps_around(2.0, 64)]))
        assert x.size >= 400
        e = x - 1.0
        zeta, f = _kernels.zeta_f_from_e(e)
        with mpmath.workdps(40):
            for ei, zi, fi in zip(e, zeta, f):
                xm = 1 + mpmath.mpf(ei)
                zm = oracle.zeta(xm)
                fm = zm / (xm * xm - 1)
                assert abs(zi - zm) <= 3.0 * _EPS * zm, ei
                assert abs(fi - fm) <= 3.0 * _EPS * fm, ei

    def test_inverse_below_the_seam(self):
        zeta = np.concatenate([np.linspace(0.0, _kernels.ZETA_2, 201)[1:],
                               np.geomspace(1e-12, 0.5, 40), [0.02]])
        e = _kernels.invert_zeta_values(zeta)
        with mpmath.workdps(40):
            for zi, ei in zip(zeta, e):
                zm = mpmath.mpf(zi)
                em = mpmath.findroot(lambda t: oracle.zeta(1 + t) - zm,
                                     mpmath.mpf(ei))
                assert abs(ei - em) <= 2.0 * _EPS * em, zi

    def test_inverse_above_the_seam(self):
        # A stop at a 1e-14 residual in zeta^(3/2) errs by 24.6 eps at
        # zeta = 11.7.  The root is solved in e / ei: findroot's absolute
        # tolerance cannot resolve e itself near 1e153.
        zmax = asymptotics.ZETA_MAX
        zeta = np.unique(np.concatenate([
            np.geomspace(np.nextafter(_kernels.ZETA_2, math.inf), zmax, 160),
            np.linspace(_kernels.ZETA_2, 30.0, 41)[1:], [11.7, zmax]]))
        assert zeta.size >= 200 and zeta[0] > _kernels.ZETA_2
        e = _kernels.invert_zeta_values(zeta)
        with mpmath.workdps(40):
            for zi, ei in zip(zeta, e):
                zm, e0 = mpmath.mpf(zi), mpmath.mpf(ei)
                em = e0 * mpmath.findroot(
                    lambda u: oracle.zeta(1 + u * e0) / zm - 1, 1)
                assert abs(ei - em) <= 2.0 * _EPS * em, zi


class TestMapDomain:
    """x stops at X_MAX, where x^2 - 1 still fits a double, and zeta at its
    image ZETA_MAX; past them every route raises ValueError naming the limit
    instead of returning nan or failing to converge."""

    X_ROUTES = [zeta_of_x, f_of_x,
                lambda x: float(zeta_of_x(np.array([2.0, x]))[1]),
                lambda x: float(f_of_x(np.array([2.0, x]))[1]),
                lambda x: olver_approx(100, x).rhs_value]

    @pytest.mark.parametrize("route", X_ROUTES,
                             ids=["zeta_of_x", "f_of_x", "zeta_of_x_array",
                                  "f_of_x_array", "olver_approx"])
    def test_x_routes(self, route):
        assert math.isfinite(route(asymptotics.X_MAX))
        for x in (np.nextafter(asymptotics.X_MAX, math.inf), 1e155):
            with pytest.raises(ValueError, match="X_MAX"):
                route(x)

    def test_zeta_max_is_the_image(self):
        zmax = asymptotics.ZETA_MAX
        assert zeta_of_x(asymptotics.X_MAX) == zmax
        assert abs(x_of_zeta(zmax) / asymptotics.X_MAX - 1.0) < 1e-12
        for zeta in (np.nextafter(zmax, math.inf), 2e205, 1e300):
            with pytest.raises(ValueError, match="ZETA_MAX"):
                x_of_zeta(zeta)

    def test_f_n(self):
        n = 10 ** 6
        nu23 = float(series.nu23_of_levels([n])[0])
        t_max = asymptotics.ZETA_MAX * nu23 * nu23
        assert 0.0 < f_n(n, t_max * (1.0 - 1e-12)) < 1e-100
        for t in (t_max * (1.0 + 1e-12), 1e300):
            with pytest.raises(ValueError, match="ZETA_MAX"):
                f_n(n, t)

    def test_lemma_check(self):
        from osctun import analysis
        assert analysis.lemma_check(asymptotics.X_MAX, 100).passed
        with pytest.raises(ValueError, match="X_MAX"):
            analysis.lemma_check(np.nextafter(asymptotics.X_MAX, math.inf), 100)

    @pytest.mark.parametrize("x", [1e50, 1e100, asymptotics.X_MAX],
                             ids=["1e50", "1e100", "X_MAX"])
    def test_large_x_against_mpmath(self, x):
        # g ** (2/3) raises g to the double nearest 2/3, which errs by
        # about 3.7e-17 ln g relative: 8.5e-15 at 1e50, 2.6e-14 at X_MAX.
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            zeta = oracle.zeta(xm)
            assert abs(zeta_of_x(x) / zeta - 1) < 1e-15
            assert abs(f_of_x(x) / (zeta / (xm * xm - 1)) - 1) < 1e-15

    def test_large_zeta_does_not_overflow_the_series_seed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(zeta_of_x(x_of_zeta(1e39)) / 1e39 - 1.0) < 1e-12


class TestProfileFunction:
    def test_left_endpoint(self):
        # the double nearest 2^(-2/3), which lemma_check requires
        assert f_of_x(1.0) == 0.6299605249474366 == 2.0 ** (-2.0 / 3.0)

    def test_cosh_one(self):
        want = zeta_of_x(math.cosh(1.0)) / math.sinh(1.0) ** 2
        assert abs(f_of_x(math.cosh(1.0)) - want) < 1e-13 * want

    def test_ordering(self):
        assert f_of_x(10.0) < f_of_x(2.0) < f_of_x(1.1)

    def test_strictly_decreasing_dense(self):
        x = 1.0 + np.geomspace(1e-9, 49.0, 10 ** 4)
        f = f_of_x(x)
        assert np.all(np.diff(f) < 0.0)

    def test_seam_continuity(self):
        # Across e = x - 1 = 1, f rises by no more than lemma_check's
        # slack, 2 ulps of f(1).  The direct formula's rounding alone
        # reaches that just above the seam, where f falls by about 0.1
        # ulp a step.
        f = _kernels.f_from_e(_ulps_around(1.0, 64))
        assert np.all(np.diff(f) <= 2.0 * np.spacing(_kernels.TWO_M23))


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

    @pytest.mark.parametrize("route", [lambda n: f_n(n, 1.0),
                                       lambda n: olver_approx(n, 1.5)],
                             ids=["f_n", "olver_approx"])
    def test_rejects_levels_past_a_double(self, route):
        # 2n+1 rounds past the largest double from 2^1023 - 2^969 on, where
        # f_n used to return f(1) at every t.
        with pytest.raises(ValueError, match="2n\\+1 must fit a double"):
            route(2 ** 1023 - 2 ** 969)


def quad_big_f_n(n, config=None):
    """F_n and its error estimate by adaptive quadrature of f_n Ai^2."""
    scale = (2.0 * n + 1.0) ** (-2.0 / 3.0)

    def integrand(t):
        e = _kernels.invert_zeta_values(scale * t)
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
        e = _kernels.invert_zeta_values(scale * t)
        out.append(float(_kernels.f_from_e(e) @ w))
    return np.array(out)


_EPS = float(np.finfo(np.float64).eps)


class TestAiryWeightedIntegral:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 37, 100, 500, 1000, 2000,
                                   10 ** 6])
    def test_against_mpmath(self, n):
        # At n = 2000 mpmath's quadrature samples x = 1 itself, where
        # zeta/(x^2 - 1) is 0/0 unless the oracle guards it.
        got = big_f_n(n)
        want = oracle.big_f_n(n)
        assert abs(got - want) <= series.F.err_eps * _EPS * got

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
        e = _kernels.invert_zeta_values(scale * t)
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
        got = big_f_n(ns)
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


def _must_not_run(*args):
    raise AssertionError("no level may be computed")


class TestFnSweep:
    """big_f_n takes one level, giving a float, or a sequence of levels,
    giving a float64 array with the bits of one-level calls in input
    order."""

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 33, 495])
    def test_equals_one_level_values(self, count):
        ns = range(6, 6 + count)
        want = [big_f_n(n) for n in ns]
        assert all(type(v) is float for v in want)
        assert type(big_f_n(np.int64(6))) is float
        for got in map(big_f_n, (list(ns), tuple(ns), ns, np.array(ns))):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == (count,)
            assert got.tolist() == want

    def test_large_levels_any_order(self):
        ns = [10 ** 6, 1, 10 ** 5, 999999, 2000, 10 ** 4, 1, 37]
        want = [big_f_n(n) for n in ns]
        assert big_f_n(ns).tolist() == want
        assert big_f_n(ns[::-1]).tolist() == want[::-1]

    def test_checks_every_level_first(self, monkeypatch):
        assert big_f_n([]).shape == (0,)
        monkeypatch.setattr(series, "chebyshev_of_s", _must_not_run)
        with pytest.raises(ValueError):
            big_f_n(list(range(1, 40)) + [0])
        with pytest.raises(ValueError):
            big_f_n(0)

    @pytest.mark.parametrize("levels, error, text", BAD_LEVELS)
    def test_names_the_first_bad_level(self, levels, error, text,
                                       monkeypatch):
        monkeypatch.setattr(series, "chebyshev_of_s", _must_not_run)
        with pytest.raises(error) as info:
            big_f_n(levels)
        assert str(info.value).startswith(text)

    def test_integer_types_agree(self):
        ns = [6, 10 ** 6, 2 ** 63 + 1, 10 ** 300]
        want = big_f_n(ns).tolist()
        assert [big_f_n(n) for n in ns] == want
        mixed = [np.int64(6), np.uint64(10 ** 6), np.uint64(2 ** 63 + 1),
                 10 ** 300]
        assert big_f_n(mixed).tolist() == want
        assert [big_f_n(n) for n in mixed] == want
        arr = np.arange(6, 501)
        assert list(big_f_n(arr)) == list(big_f_n(range(6, 501)))
        with pytest.raises(ValueError, match="2n\\+1 must fit a double"):
            big_f_n([6, 10 ** 400])

    @pytest.mark.parametrize("n", [2 ** 1023, 2 ** 1023 - 2 ** 969, 10 ** 400],
                             ids=["2^1023", "2^1023-2^969", "10^400"])
    def test_rejects_levels_past_a_double(self, n, monkeypatch):
        # 2n+1 rounds past the largest double from 2^1023 - 2^969 on; such
        # a level is refused before any F_n is computed.
        monkeypatch.setattr(series, "chebyshev_of_s", _must_not_run)
        for arg in (n, [6, n, 7]):
            with pytest.raises(ValueError, match="2n\\+1 must fit a double"):
                big_f_n(arg)

    def test_largest_level_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = big_f_n(2 ** 1023 - 2 ** 969 - 1)
        assert got == big_f_n(10 ** 300)

    def test_memory_peak(self):
        ns = range(6, 501)
        big_f_n(ns)
        tracemalloc.start()
        try:
            big_f_n(ns)
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
            for n, p in zip(ns, series.evaluate(series.P, ns)[0].tolist()):
                r = term(n)
                assert abs(r.value - p) <= r.err_estimate, n

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            leading_term(0)
        with pytest.raises(ValueError):
            second_order(0)

    @pytest.mark.parametrize("term", [leading_term, second_order])
    @pytest.mark.parametrize("n", [10 ** 400, 2 ** 1023 - 2 ** 969],
                             ids=["1e400", "first-past-a-double"])
    def test_rejects_levels_past_a_double(self, term, n):
        # The same ValueError as every other level route, not an
        # OverflowError from float(n).
        with pytest.raises(ValueError, match="2n\\+1 must fit a double"):
            term(n)

    @pytest.mark.parametrize("term, k", [(leading_term, 0), (second_order, 1)])
    def test_largest_level(self, term, k):
        # k counts the correction terms: the formula itself, with Python's
        # pow, at the largest level whose 2n+1 fits a double.
        x = float(_LARGEST_LEVEL)
        lead = C1 * x ** (-1.0 / 3.0)
        assert term(_LARGEST_LEVEL).value == (lead - C2 / x if k else lead)


_LARGEST_LEVEL = 2 ** 1023 - 2 ** 969 - 1
_TERMS = pytest.mark.parametrize("term", [leading_term, second_order],
                                 ids=["leading_term", "second_order"])


class TestAsymptoticSweep:
    """leading_term and second_order take one level or a sequence, as
    tunneling_exact does: a sequence gives the bits of one call per
    level, and every level is checked before any is computed."""

    _LEVELS = ([1, 2, 10 ** 12, 10 ** 300, _LARGEST_LEVEL, 2, 1]
               + list(range(3, 3000, 37)))

    @_TERMS
    @pytest.mark.parametrize("ns", [
        _LEVELS, tuple(_LEVELS), range(1, 1001),
        range(_LARGEST_LEVEL, 10 ** 300, -10 ** 306),
        np.array([1, 2, 10 ** 12, 2 ** 62, 37], dtype=np.int64)],
        ids=["list", "tuple", "range", "range-large", "int64-array"])
    def test_every_sequence_kind(self, term, ns):
        r = term(ns)
        singles = [term(n) for n in ns]
        assert type(r.n) is list and r.n == [s.n for s in singles]
        assert all(type(n) is int for n in r.n)
        assert r.method == singles[0].method
        for got, field in ((r.value, "value"), (r.err_estimate,
                                                "err_estimate")):
            assert type(got) is np.ndarray and got.dtype == np.float64
            want = [getattr(s, field) for s in singles]
            assert all(type(v) is float for v in want)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @_TERMS
    @pytest.mark.parametrize("ns", [[], (), range(0),
                                    np.array([], dtype=np.int64)],
                             ids=["list", "tuple", "range", "array"])
    def test_empty_sequence(self, term, ns):
        r = term(ns)
        assert r.n == []
        for col in (r.value, r.err_estimate):
            assert type(col) is np.ndarray and col.dtype == np.float64
            assert col.shape == (0,)

    @_TERMS
    @pytest.mark.parametrize("levels, error, text", BAD_LEVELS)
    def test_names_the_first_bad_level(self, term, levels, error, text,
                                       monkeypatch):
        # Without numpy the body cannot compute a level: a check that ran
        # after any would fail with AttributeError instead.
        monkeypatch.setattr(asymptotics, "np", None)
        with pytest.raises(error) as info:
            term(levels)
        assert str(info.value).startswith(text)

    @_TERMS
    def test_err_estimate_near_the_pow_form(self, term):
        # n^(-4/3) is n^(-1/3)/n.  pow's n^(-4/3) errs by the rounding of
        # -4/3 times log n, about 200 ulp at n = 10^230 (the quotient by
        # about 50), so the two stay within 1e-13 of each other.
        for n in (1, 2, 1000, 10 ** 12, 10 ** 200, 10 ** 230):
            x = float(n)
            bound = C1 * x ** (-4.0 / 3.0)
            want = bound + (C2 / x if term is leading_term else 0.0)
            assert abs(term(n).err_estimate - want) <= 1e-13 * want


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
                             * zeta_of_x(1.3)).value
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

    @pytest.mark.parametrize("n, x", [(300, 1.0), (612, 1.3)])
    def test_right_hand_side_past_a_double(self, n, x):
        # log_prefactor is about 810 at n = 300, past ln(DBL_MAX) = 709.8:
        # the value itself does not fit a double.
        with pytest.raises(ValueError, match="log_prefactor = ") as info:
            olver_approx(n, x)
        text = str(info.value).split("log_prefactor = ")[1]
        log_pref = float(text.split()[0])
        assert log_pref > math.log(1.7976931348623157e308)

    @pytest.mark.parametrize("x, rhs, eps, log_pref", [
        (1.0, 4.164396809032496e+93, 0.00021624459739580645,
         216.6025435574083),
        (1.3, 1.2847672581933208e+79, 6.859382777309855e-19,
         216.57475730178152),
        (2.0, 0.2244177484104451, 1.2620365897126318e-98, 216.5228244125493),
        (5.0, 0.0, 0.0, 216.39230817665646),
    ])
    def test_level_100_unchanged(self, x, rhs, eps, log_pref):
        # Bits of the route before the overflow check was added, except at
        # x = 2, where zeta moved by one ulp when the map took cbrt(g)
        # squared for g ** (2/3), and at x = 1.3, where eps_bound moved
        # when zeta came from series.PHI below x = 2 (40-digit mpmath:
        # 6.8593827773099104e-19).  Both moved again when Ai's expansion
        # (t = 13.3 and 47.1) took z in two parts: at the route's own t,
        # eps_bound is 0.72 ulp above 40-digit mpmath at x = 1.3 (0.28
        # below before) and 0.43 below at x = 2 (48.57 above before).
        oa = olver_approx(100, x)
        assert (oa.rhs_value, oa.eps_bound, oa.log_prefactor) == (
            rhs, eps, log_pref)
