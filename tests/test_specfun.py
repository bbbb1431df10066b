"""Eigenfunction and Airy evaluation against closed forms and mpmath."""

import math

import mpmath
import numpy as np
import pytest

import osctun
from osctun import specfun
from osctun.quadrature import QuadratureConfig, integrate_finite


def mp_psi(n, x):
    mpmath.mp.dps = 40
    x = mpmath.mpf(x)
    norm = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * 2 ** n * mpmath.factorial(n))
    return mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm


class TestGammaConstants:
    def test_reflection_identity(self):
        g = specfun.GAMMA
        lhs = g.gamma_one_third * g.gamma_two_thirds
        rhs = 2.0 * math.pi / math.sqrt(3.0)
        assert abs(lhs - rhs) <= 1e-14 * rhs

    def test_airy_origin_values(self):
        mpmath.mp.dps = 30
        assert abs(specfun.GAMMA.ai_zero - float(mpmath.airyai(0))) < 1e-15
        assert abs(specfun.GAMMA.ai_prime_zero
                   - float(mpmath.airyai(0, 1))) < 1e-15


class TestHermitePsi:
    def test_ground_state_closed_form(self):
        x = np.linspace(-5.0, 5.0, 41)
        want = math.pi ** (-0.25) * np.exp(-x * x / 2.0)
        got = specfun.hermite_psi(0, x)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_first_state_closed_form(self):
        x = np.linspace(-5.0, 5.0, 41)
        want = math.sqrt(2.0) * x * math.pi ** (-0.25) * np.exp(-x * x / 2.0)
        got = specfun.hermite_psi(1, x)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("n", [5, 17, 30])
    def test_matches_reference_recurrence(self, n):
        rng = np.random.default_rng(7 + n)
        xs = rng.uniform(-1.5 * math.sqrt(2 * n + 1), 1.5 * math.sqrt(2 * n + 1), 12)
        for x in xs:
            want = float(mp_psi(n, x))
            got = specfun.hermite_psi(n, float(x))
            assert abs(got - want) <= 1e-9 * max(abs(want), 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 11, 40])
    def test_parity_is_bitwise(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(0.1, 8.0, 64)
        sign = 1.0 if n % 2 == 0 else -1.0
        left = specfun.hermite_psi(n, x)
        right = sign * specfun.hermite_psi(n, -x)
        assert np.array_equal(left, right)

    @pytest.mark.parametrize("n", [0, 1, 5, 20, 100, 1000])
    def test_normalization(self, n):
        nu = math.sqrt(2.0 * n + 1.0)
        big = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14,
                               max_subdivisions=6000)
        val, err = integrate_finite(
            lambda x: specfun.hermite_psi_squared(n, x),
            -nu - 9.0, nu + 9.0, big, breakpoints=[-nu, 0.0, nu])
        assert abs(val - 1.0) <= 1e-8

    def test_squared_never_negative(self):
        x = np.linspace(-30.0, 30.0, 2001)
        assert np.all(specfun.hermite_psi_squared(17, x) >= 0.0)

    def test_scalar_in_scalar_out(self):
        v = specfun.hermite_psi(3, 0.7)
        assert isinstance(v, float)
        arr = specfun.hermite_psi(3, np.array([0.7]))
        assert arr.shape == (1,)
        assert arr[0] == v

    def test_huge_order_beyond_naive_seed(self):
        # The unscaled seed exp(-x^2/2) underflows past x ~ 38.6; the scaled
        # recurrence must keep going.
        n = 800
        nu = math.sqrt(2.0 * n + 1.0)
        v = specfun.hermite_psi(n, nu)
        w = float(mp_psi(n, nu))
        assert abs(v - w) <= 1e-10 * abs(w)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            specfun.hermite_psi(-1, 0.0)
        with pytest.raises(TypeError):
            specfun.hermite_psi(2.0, 0.0)
        with pytest.raises(TypeError):
            specfun.hermite_psi(True, 0.0)
        with pytest.raises(ValueError):
            specfun.hermite_psi(2, float("nan"))
        with pytest.raises(ValueError):
            specfun.hermite_psi(2, np.array([1.0, float("inf")]))


class TestAiry:
    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for t in np.linspace(-2.0, 50.0, 209):
            av = specfun.airy_ai(float(t))
            want = float(mpmath.airyai(mpmath.mpf(float(t))))
            assert abs(av.value - want) <= 5e-14 * max(abs(want), 1e-300)
            assert abs(av.value - want) <= max(av.err_estimate, 5e-16 * abs(want))

    def test_err_estimate_contract(self):
        for t in np.linspace(-1.0, 50.0, 103):
            av = specfun.airy_ai(float(t))
            assert av.err_estimate <= 1e-12 * max(abs(av.value), 1e-300)
            assert av.err_estimate >= 0.0

    def test_branch_tags(self):
        assert specfun.airy_ai(0.0).method == "maclaurin-series"
        assert specfun.airy_ai(-2.0).method == "maclaurin-series"
        assert specfun.airy_ai(30.0).method == "asymptotic-expansion"

    def test_branch_overlap_window(self):
        # Both branches must agree on a unit-wide window straddling the
        # switch point, so the switch value is not load-bearing.
        t = np.linspace(8.5, 9.5, 101)
        ai_s, _, _ = _series_branch(t)
        ai_a, _, _ = _asym_branch(t)
        rel = np.abs(ai_s - ai_a) / np.abs(ai_a)
        assert rel.max() < 1e-10

    def test_prime_against_mpmath(self):
        mpmath.mp.dps = 30
        for t in np.linspace(0.0, 50.0, 101):
            got = specfun.airy_ai_prime(float(t))
            want = float(mpmath.airyai(mpmath.mpf(float(t)), 1))
            assert abs(got - want) <= 1e-10 * max(abs(want), 1e-300)

    def test_ode_residual_by_rk4(self):
        # March u'' = t u from the origin seeds with RK4 and compare the
        # evaluated Ai along the way.
        h = 1e-3
        y = np.array([specfun.GAMMA.ai_zero, specfun.GAMMA.ai_prime_zero])

        def rhs(t, y):
            return np.array([y[1], t * y[0]])

        t = 0.0
        checkpoints = {1.0, 2.0, 3.0, 4.0, 5.0}
        for step in range(5000):
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t = (step + 1) * h
            tc = round(t, 9)
            if tc in checkpoints:
                av = specfun.airy_ai(tc)
                assert abs(av.value - y[0]) <= 1e-8 * max(abs(y[0]), 1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            specfun.airy_ai(-2.5)
        with pytest.raises(ValueError):
            specfun.airy_ai(float("inf"))
        with pytest.raises(ValueError):
            specfun.airy_ai_values(np.array([0.0, -3.0]))


def _series_branch(t):
    from osctun._kernels import _airy_series
    return _airy_series(np.asarray(t, dtype=np.float64))


def _asym_branch(t):
    from osctun._kernels import _airy_asym
    return _airy_asym(np.asarray(t, dtype=np.float64))


class TestOscillatorState:
    def test_from_n(self):
        st = specfun.OscillatorState.from_n(12)
        assert st.n == 12
        assert st.nu == math.sqrt(25.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            specfun.OscillatorState.from_n(-3)
