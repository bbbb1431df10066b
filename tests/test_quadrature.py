"""Adaptive engine against closed forms and independent oracles.

The exact P_n comes from one Chebyshev series in s = (2n+1)^(-2/3), for
one level and for sweeps alike, not from quadrature.  Its independent
oracles here are 50-digit mpmath sums, the O(n) telescoping sum in double
precision (tail_sum.py) and the adaptive engine.
"""

import math
import random
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
import tail_sum
from bad_levels import BAD_LEVELS_FROM_0
from osctun import analysis, series, specfun
from osctun.quadrature import (NonConvergenceError, QuadratureConfig,
                               integrate_finite, integrate_semi_infinite,
                               tunneling_exact)

EPS = float(np.finfo(float).eps)


class CountingIntegrand:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.points = 0

    def __call__(self, x):
        x = np.asarray(x)
        self.calls += 1
        self.points += x.size
        return self.fn(x)


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-11
        assert cfg.abs_tol == 1e-15
        assert cfg.max_subdivisions == 2000

    @pytest.mark.parametrize("kw", [
        {"rel_tol": 0.0}, {"rel_tol": -1e-3}, {"abs_tol": 0.0},
        {"max_subdivisions": 9}, {"rel_tol": math.inf},
        {"abs_tol": math.nan},
    ])
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            QuadratureConfig(**kw)


class TestFinite:
    def test_polynomial_needs_single_panel(self):
        f = CountingIntegrand(lambda x: x * x)
        val, err = integrate_finite(f, 0.0, 1.0)
        assert abs(val - 1.0 / 3.0) < 1e-15
        assert f.points == 15
        assert 0.0 <= err <= 1e-11

    def test_rule_degree(self):
        # The embedded pair integrates degree-22 polynomials exactly.
        val, _ = integrate_finite(lambda x: x ** 22, 0.0, 1.0)
        assert abs(val - 1.0 / 23.0) < 1e-15

    def test_gaussian(self):
        val, err = integrate_finite(lambda x: np.exp(-x * x), 0.0, 10.0)
        want = math.sqrt(math.pi) / 2.0
        assert abs(val - want) <= max(err, 1e-13)

    def test_kink_with_breakpoint(self):
        f = CountingIntegrand(np.abs)
        val, _ = integrate_finite(f, -1.0, 1.0, breakpoints=[0.0])
        assert abs(val - 1.0) < 1e-14
        assert f.points == 30

    def test_empty_and_reversed_interval(self):
        assert integrate_finite(lambda x: x, 2.0, 2.0) == (0.0, 0.0)
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 3.0, 2.0)
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 0.0, float("inf"))

    def test_nonfinite_integrand_rejected(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError):
                integrate_finite(lambda x: x / 0.0, 0.0, 1.0)

    def test_budget_exhaustion_carries_best_estimate(self):
        tight = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-16,
                                 max_subdivisions=10)
        want = 2.0 * (math.sqrt(0.7) + math.sqrt(0.3))
        with pytest.raises(NonConvergenceError) as ei:
            integrate_finite(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)),
                             0.0, 1.0, tight)
        assert abs(ei.value.value - want) < 0.05
        assert ei.value.err_estimate > 0.0

    def test_oscillatory(self):
        val, err = integrate_finite(np.sin, 0.0, 20.0 * math.pi)
        assert abs(val) <= max(err, 1e-10)


class TestSemiInfinite:
    def test_exponential(self):
        val, err = integrate_semi_infinite(lambda x: np.exp(-x), 1.0)
        assert abs(val - math.exp(-1.0)) <= max(err, 1e-12)

    def test_airy_squared_integral(self):
        val, err = integrate_semi_infinite(
            lambda t: specfun.airy_ai_values(t) ** 2, 0.0)
        want = specfun.GAMMA.ai_prime_zero ** 2
        assert abs(val - want) < 1e-9

    def test_weighted_airy_antiderivative_identity(self):
        # d/dx [(x^2 Ai^2 - x Ai'^2 + Ai Ai')/3] = x Ai^2, so the integral
        # from 0 equals -Ai(0)Ai'(0)/3.
        val, err = integrate_semi_infinite(
            lambda t: t * specfun.airy_ai_values(t) ** 2, 0.0)
        want = -specfun.GAMMA.ai_zero * specfun.GAMMA.ai_prime_zero / 3.0
        assert abs(val - want) < 1e-9

    def test_zero_integrand(self):
        val, err = integrate_semi_infinite(lambda x: 0.0 * x, 5.0)
        assert val == 0.0 and err == 0.0

    def test_algebraic_tail(self):
        # The substitution maps 1/(1+x^2) to 1/((1-u)^2 + u^2), smooth on
        # [0, 1].
        val, err = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x), 0.0)
        assert abs(val - math.pi / 2.0) <= err

    @pytest.mark.parametrize("n", [0, 5, 50, 300, 612, 1000])
    def test_tunneling_within_its_own_estimate(self, n):
        # The quadrature oracle's err_estimate bounds its error against the
        # 50-digit P_n, and it agrees with the telescoping sum too.
        q, q_err = quad_tunneling(n)
        assert abs(q - oracle.p_n(n)) <= q_err
        r = tail_sum.tunneling_sum(n)
        assert abs(r.value - q) <= r.err_estimate + q_err


def quad_tunneling(n, config=None):
    """P_n and its error estimate by adaptive quadrature of psi_n^2."""
    nu = math.sqrt(2.0 * n + 1.0)
    # The density's outermost Airy-like lobe has width ~ nu^(-1/3); pin the
    # first panel edge there so the initial wave resolves it.
    lobe = min(nu ** (-1.0 / 3.0), 2.0)
    val, err = integrate_semi_infinite(
        lambda x: specfun.hermite_psi_squared(n, x), nu, config,
        breakpoints=[nu + lobe])
    return 2.0 * val, 2.0 * err


class TestTunneling:
    def test_ground_state_is_erfc_one(self):
        r = tunneling_exact(0)
        assert r.method == "exact"
        assert r.n == 0
        assert abs(r.value - math.erfc(1.0)) < 1e-9
        assert r.err_estimate >= 0.0

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_low_levels_against_mpmath(self, n):
        want = oracle.p_by_quadrature(n)
        for r in (tunneling_exact(n), tail_sum.tunneling_sum(n)):
            assert abs(r.value - want) <= r.err_estimate
        # The 50-digit reference of the spot checks agrees with quadrature.
        assert abs(oracle.p_n(n) - want) < 1e-25

    @pytest.mark.parametrize("n", [100, 300, 612, 1000])
    def test_err_estimate_bounds_50_digit_error(self, n):
        r = tunneling_exact(n)
        assert abs(r.value - oracle.p_n(n)) <= r.err_estimate

    def test_value_in_unit_interval_and_decreasing(self):
        vals = [tunneling_exact(n).value for n in range(0, 51)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [0, 10, 100, 1000])
    def test_budget_doubling_stays_within_estimate(self, n):
        # With twice the default subdivision budget, the quadrature oracle
        # still agrees within the combined estimates.
        r = tunneling_exact(n)
        q, q_err = quad_tunneling(n, QuadratureConfig(max_subdivisions=4000))
        assert abs(r.value - q) <= r.err_estimate + q_err

    def test_config_is_accepted_and_unused(self):
        loose = QuadratureConfig(rel_tol=1e-3)
        assert tunneling_exact(300, loose) == tunneling_exact(300)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tunneling_exact(-1)


def _must_not_run(*args):
    raise AssertionError("this route must not run")


def _sweep(ns):
    """(P_n, err_estimate) pairs from one tunneling_exact call over the
    sequence ns, the call the exact and compare subcommands make."""
    r = tunneling_exact(ns)
    return list(zip(r.value.tolist(), r.err_estimate.tolist()))


class TestTunnelingSweep:
    """tunneling_exact(ns) gives a level the bits of its own one-level
    call, in any order, with repeats, next to any other levels, for every
    kind of sequence."""

    @pytest.fixture(scope="class")
    def singles(self):
        return [(r.value, r.err_estimate)
                for r in map(tunneling_exact, range(1001))]

    def test_dense_sweep_in_order(self, singles):
        assert _sweep(range(1001)) == singles

    @pytest.mark.parametrize("kind", [
        list, tuple, lambda ns: ns, lambda ns: np.array(ns, dtype=np.int64)],
        ids=["list", "tuple", "range", "int64-array"])
    def test_every_sequence_kind(self, singles, kind):
        ns = range(0, 1001, 7)
        assert _sweep(kind(ns)) == [singles[n] for n in ns]

    def test_shuffled_with_duplicates(self, singles):
        ns = list(range(1001)) + [0, 0, 1, 7, 612, 1000, 1000]
        random.Random(11).shuffle(ns)
        assert _sweep(ns) == [singles[n] for n in ns]

    def test_duplicates_of_one_level(self, singles):
        for n in (0, 1, 612):
            assert _sweep([n] * 5) == [singles[n]] * 5

    def test_large_levels_any_order(self):
        ns = [10 ** 12, 0, 10 ** 6, 1, 2 ** 62, np.int64(37), 10 ** 300]
        want = [(r.value, r.err_estimate) for r in map(tunneling_exact, ns)]
        assert _sweep(ns) == want
        assert _sweep(ns[::-1]) == want[::-1]

    def test_result_fields(self):
        r = tunneling_exact(np.int64(612))
        assert type(r.n) is int and r.n == 612
        assert r.method == "exact"
        assert type(r.value) is float and type(r.err_estimate) is float
        assert r.err_estimate == series.P.err_eps * EPS * r.value

    @pytest.mark.parametrize("ns", [
        [612, np.int64(0), np.uint64(10 ** 6)], np.array([612, 0, 10 ** 6]),
        range(612, 613), [], (), range(0), np.array([], dtype=np.int64)],
        ids=["mixed-list", "int64-array", "range", "empty-list",
             "empty-tuple", "empty-range", "empty-array"])
    def test_sequence_result_fields(self, ns):
        r = tunneling_exact(ns)
        assert type(r.n) is list and r.n == [int(n) for n in ns]
        assert all(type(n) is int for n in r.n)
        assert r.n is not ns
        assert r.method == "exact"
        for col in (r.value, r.err_estimate):
            assert type(col) is np.ndarray and col.dtype == np.float64
            assert col.shape == (len(ns),)
        assert (r.err_estimate == series.P.err_eps * EPS * r.value).all()

    def test_checks_every_level_first(self, monkeypatch):
        assert _sweep([]) == []
        monkeypatch.setattr(series, "chebyshev_of_s", _must_not_run)
        with pytest.raises(ValueError):
            tunneling_exact(-1)
        with pytest.raises(TypeError):
            tunneling_exact(True)
        with pytest.raises(TypeError):
            tunneling_exact(4.0)

    @pytest.mark.parametrize("levels, error, text", BAD_LEVELS_FROM_0)
    def test_names_the_first_bad_level(self, levels, error, text,
                                       monkeypatch):
        # The cases of big_f_n's test whose message does not hinge on its
        # lowest level 1, among them [-1, 2.5, True].
        monkeypatch.setattr(series, "chebyshev_of_s", _must_not_run)
        with pytest.raises(error) as info:
            tunneling_exact(levels)
        assert str(info.value).startswith(text)

    def test_memory_peak(self):
        tunneling_exact(range(5, 613))
        tracemalloc.start()
        try:
            tunneling_exact(range(5, 613))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


# P_n to 50 digits at levels where the reference sum costs about 0.5 s,
# 5 s and 50 s: oracle.p_n, run once and stored.
STORED_P = {
    10 ** 4: "0.0062172398729466284498726846736441027007481270119943",
    10 ** 5: "0.0028862758816535052122624605882283033780974808425806",
    10 ** 6: "0.0013397372012478571366113013846982157652863782924778",
}


class TestTunnelingSeries:
    """The series' err_estimate bounds its error against 50-digit
    references at every level checked, from n = 0 to 10^12."""

    def test_bound_against_50_digit_sums(self):
        ns = list(range(1, 301)) + list(range(37, 2001, 37))
        for n, (value, err) in zip(ns, _sweep(ns)):
            assert abs(value - oracle.p_n(n)) <= err, n

    def test_bound_against_stored_sums(self):
        # Parsed and subtracted at 60 digits: at mpmath's default 53 bits
        # the reference would round to a double first.
        for (n, text), (value, err) in zip(STORED_P.items(),
                                           _sweep(list(STORED_P))):
            with mpmath.workdps(60):
                assert abs(value - mpmath.mpf(text)) <= err, n

    @pytest.mark.parametrize("n", [10 ** 9, 10 ** 12])
    def test_bound_against_asymptotic_series(self, n):
        r = tunneling_exact(n)
        assert abs(r.value - oracle.p_expansion(n)) <= r.err_estimate

    def test_ground_state(self):
        r = tunneling_exact(0)
        assert r.value == math.erfc(1.0)
        assert abs(r.value - mpmath.erfc(1)) <= r.err_estimate

    def test_series_ends(self):
        # s = 0 (n -> infinity) gives a0 within 2 ulp; s = 3^(-2/3), the
        # top of the interval, gives P_1.
        g = series.chebyshev_of_s(series.P, np.array([0.0, series.S_MAX]))
        a0 = oracle.constants().a0
        assert abs(g[0] - a0) <= 2.0 * math.ulp(float(a0))
        p1 = math.sqrt(series.S_MAX) * g[1]
        assert abs(p1 - oracle.p_n(1)) <= series.P.err_eps * EPS * p1

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(min_value=1, max_value=5000))
    def test_agrees_with_the_tail_sum(self, n):
        r = tunneling_exact(n)
        one = tail_sum.tunneling_sum(n)
        assert abs(r.value - one.value) <= r.err_estimate + one.err_estimate


class TestOneLevel:
    """tunneling_exact(n) is the one-level case of the series pass; that
    a level's bits do not depend on the sweep is checked in test_series."""

    def test_bound_against_stored_sums(self):
        for n, text in STORED_P.items():
            r = tunneling_exact(n)
            with mpmath.workdps(60):
                assert abs(r.value - mpmath.mpf(text)) <= r.err_estimate, n

    def test_huge_level_within_its_bound(self):
        r = tunneling_exact(10 ** 12)
        assert math.isfinite(r.value) and r.value > 0.0
        assert abs(r.value - oracle.p_expansion(10 ** 12)) <= r.err_estimate

    @pytest.mark.parametrize("n", [2 ** 1023, 2 ** 1023 - 2 ** 969, 10 ** 400],
                             ids=["2^1023", "2^1023-2^969", "10^400"])
    @pytest.mark.parametrize("route", [
        tunneling_exact, lambda n: analysis.comparison_table([1, n, 2])],
        ids=["one-level", "sweep"])
    def test_rejects_levels_past_a_double(self, n, route, monkeypatch):
        # 2n+1 rounds past the largest double from 2^1023 - 2^969 on; such
        # a level is refused before any P_n is computed, by tunneling_exact
        # and by the one library sweep of P_n that checks its levels.
        monkeypatch.setattr(series, "evaluate", _must_not_run)
        with pytest.raises(ValueError, match="2n\\+1 must fit a double"):
            route(n)

    def test_largest_level_within_its_bound(self):
        n = 2 ** 1023 - 2 ** 969 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = tunneling_exact(n)
        assert abs(r.value - oracle.p_expansion(n)) <= r.err_estimate


class TestLadderIdentity:
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(min_value=1, max_value=1000),
           offset=st.floats(min_value=0.0, max_value=3.0))
    def test_step_identity_by_quadrature(self, n, offset):
        # I_n(a) - I_{n-1}(a) = psi_n(a) psi_{n-1}(a) / sqrt(2n) for
        # I_k(a) = int_a^inf psi_k^2 at any a beyond the turning point.
        a = math.sqrt(2.0 * n + 1.0) + offset
        lobe = min((2.0 * n + 1.0) ** (-1.0 / 6.0), 2.0)

        def tail(k):
            return integrate_semi_infinite(
                lambda x: specfun.hermite_psi_squared(k, x), a,
                breakpoints=[a + lobe])

        (i_n, e_n), (i_m, e_m) = tail(n), tail(n - 1)
        step = (specfun.hermite_psi(n, a) * specfun.hermite_psi(n - 1, a)
                / math.sqrt(2.0 * n))
        tol = e_n + e_m + 8.0 * np.finfo(float).eps * (i_n + i_m)
        assert abs((i_n - i_m) - step) <= tol
