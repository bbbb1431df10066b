"""Adaptive engine against closed forms and independent oracles.

The exact P_n comes from a telescoping sum, not from quadrature; the
adaptive engine serves as its independent oracle here.
"""

import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osctun import _kernels, specfun
from osctun.quadrature import (DEFAULT_CONFIG, NonConvergenceError,
                               QuadratureConfig, TruncationFailureError,
                               integrate_finite, integrate_semi_infinite,
                               tunneling_exact, tunneling_exact_values)


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
        assert cfg.tail_cutoff_decades == 20.0

    @pytest.mark.parametrize("kw", [
        {"rel_tol": 0.0}, {"rel_tol": -1e-3}, {"abs_tol": 0.0},
        {"max_subdivisions": 9}, {"tail_cutoff_decades": 0.0},
        {"semi_infinite_strategy": "laplace"},
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
    def test_exponential_both_strategies(self):
        want = math.exp(-1.0)
        for strat in ("truncation", "substitution"):
            cfg = QuadratureConfig(semi_infinite_strategy=strat)
            val, err = integrate_semi_infinite(lambda x: np.exp(-x), 1.0, cfg)
            assert abs(val - want) <= max(err, 1e-12), strat

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

    def test_slow_decay_fails_truncation(self):
        with pytest.raises(TruncationFailureError):
            integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x), 0.0)

    def test_strategies_agree_on_tunneling(self):
        # Both semi-infinite routes, as oracles, agree with the closed-form
        # P_n within the combined error estimates.
        for strat in ("truncation", "substitution"):
            cfg = QuadratureConfig(semi_infinite_strategy=strat)
            for n in (0, 5, 50, 300, 612, 1000):
                r = tunneling_exact(n)
                q, q_err = quad_tunneling(n, cfg)
                assert abs(r.value - q) <= r.err_estimate + q_err, (strat, n)


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


def mp_tunneling(n):
    """P_n by 30-digit mpmath quadrature of the Hermite density."""
    with mpmath.workdps(30):
        nu = mpmath.sqrt(2 * n + 1)
        norm = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * 2 ** n
                           * mpmath.factorial(n))

        def dens(x):
            return (mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm) ** 2

        return 2 * mpmath.quad(dens, [nu, nu + 2, nu + 10, mpmath.inf])


def mp_tail_sum(n):
    """P_n to 50 digits from the telescoping sum at the exact nu.

    The normalized recurrence runs in mpmath at 50 digits, so the double
    route's roundings and its rounding of nu are both absent.
    """
    with mpmath.workdps(50):
        nu = mpmath.sqrt(2 * n + 1)
        prev = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-nu * nu / 2)
        total = mpmath.erfc(nu)
        cur = prev
        for k in range(1, n + 1):
            prev, cur = cur, (mpmath.sqrt(mpmath.mpf(2) / k) * nu * cur
                              - mpmath.sqrt(mpmath.mpf(k - 1) / k) * prev)
            total += 2 * cur * prev / mpmath.sqrt(2 * k)
        return total


class TestTunneling:
    def test_ground_state_is_erfc_one(self):
        r = tunneling_exact(0)
        assert r.method == "exact"
        assert r.n == 0
        assert abs(r.value - math.erfc(1.0)) < 1e-9
        assert r.err_estimate >= 0.0

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_low_levels_against_mpmath(self, n):
        want = mp_tunneling(n)
        r = tunneling_exact(n)
        assert abs(r.value - want) <= r.err_estimate
        # The 50-digit reference of the spot checks agrees with quadrature.
        assert abs(mp_tail_sum(n) - want) < 1e-25

    @pytest.mark.parametrize("n", [100, 300, 612, 1000])
    def test_err_estimate_bounds_50_digit_error(self, n):
        r = tunneling_exact(n)
        assert abs(r.value - mp_tail_sum(n)) <= r.err_estimate

    def test_value_in_unit_interval_and_decreasing(self):
        vals = [tunneling_exact(n).value for n in range(0, 51)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [0, 10, 100, 1000])
    def test_budget_doubling_stays_within_estimate(self, n):
        # With twice the default subdivision budget, the quadrature oracle
        # on either route still agrees within the combined estimates.
        r = tunneling_exact(n)
        for strat in ("truncation", "substitution"):
            wide = QuadratureConfig(max_subdivisions=4000,
                                    semi_infinite_strategy=strat)
            q, q_err = quad_tunneling(n, wide)
            assert abs(r.value - q) <= r.err_estimate + q_err, strat

    def test_config_is_accepted_and_unused(self):
        sub = QuadratureConfig(semi_infinite_strategy="substitution",
                               rel_tol=1e-3)
        assert tunneling_exact(300, sub) == tunneling_exact(300)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tunneling_exact(-1)


def _must_not_run(*args):
    raise AssertionError("this route must not run")


class TestTunnelingSweep:
    """tunneling_exact_values has the bits of tunneling_exact on both sides
    of its cost rule."""

    @pytest.fixture(scope="class")
    def singles(self):
        return [tunneling_exact(n) for n in range(1001)]

    def test_dense_sweep_in_order(self, singles):
        assert tunneling_exact_values(range(1001)) == singles

    def test_shuffled_with_duplicates(self, singles):
        ns = list(range(1001)) + [0, 0, 1, 7, 612, 1000, 1000]
        random.Random(11).shuffle(ns)
        assert tunneling_exact_values(ns) == [singles[n] for n in ns]

    def test_dense_sweep_takes_batched_pass(self, singles, monkeypatch):
        monkeypatch.setattr(_kernels, "hermite_tail_sum", _must_not_run)
        assert tunneling_exact_values(range(513, 613)) == singles[513:613]

    @pytest.mark.parametrize("ns", [list(range(0, 1001, 100)), [1, 20000]])
    def test_sparse_sweep_takes_scalar_loop(self, ns, monkeypatch):
        want = [tunneling_exact(n) for n in ns]
        monkeypatch.setattr(_kernels, "hermite_tail_sums", _must_not_run)
        assert tunneling_exact_values(ns) == want

    def test_checks_every_level_first(self, monkeypatch):
        monkeypatch.setattr(_kernels, "hermite_tail_sum", _must_not_run)
        monkeypatch.setattr(_kernels, "hermite_tail_sums", _must_not_run)
        with pytest.raises(ValueError):
            tunneling_exact_values(list(range(100)) + [-1])
        with pytest.raises(TypeError):
            tunneling_exact_values([3, True])
        assert tunneling_exact_values([]) == []

    def test_memory_peak(self):
        tunneling_exact_values(range(5, 613))
        tracemalloc.start()
        try:
            tunneling_exact_values(range(5, 613))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


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
