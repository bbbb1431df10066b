"""Eigenfunction and Airy evaluation against closed forms and mpmath."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
import osctun
from osctun import _kernels, asymptotics, series, specfun
from osctun.quadrature import QuadratureConfig, integrate_finite


class TestGammaConstants:
    def test_reflection_identity(self):
        g = specfun.GAMMA
        lhs = g.gamma_one_third * g.gamma_two_thirds
        rhs = 2.0 * math.pi / math.sqrt(3.0)
        assert abs(lhs - rhs) <= 1e-14 * rhs


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
            want = float(oracle.psi_hermite(n, x))
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
        w = float(oracle.psi_hermite(n, nu))
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

    @pytest.mark.parametrize("psi", [specfun.hermite_psi,
                                     specfun.hermite_psi_squared],
                             ids=["hermite_psi", "hermite_psi_squared"])
    def test_level_cap(self, psi, monkeypatch):
        # The recurrence takes n Python steps and O(n) memory, so a level
        # past 10^6 is refused before the kernel runs; 10^6 itself reaches
        # it.
        class Reached(Exception):
            pass

        def reached(n, x):
            raise Reached

        monkeypatch.setattr(_kernels, "hermite_values", reached)
        for n in (10 ** 6 + 1, 10 ** 12):
            with pytest.raises(ValueError, match="^n must be at most 1000000"):
                psi(n, 0.5)
        with pytest.raises(Reached):
            psi(10 ** 6, 0.5)


# About 1,000 points of [0, 110]: a grid, the doubles on either side of the
# branch switch, and the range from t ~ 103.89 where Ai is subnormal, down
# to the 0.0 it rounds to from t ~ 107.4.
_AIRY_T = (np.linspace(0.0, 110.0, 1001).tolist()
           + [math.nextafter(_kernels.T_SWITCH, 0.0), _kernels.T_SWITCH,
              math.nextafter(_kernels.T_SWITCH, math.inf)])
_NORMAL = sys.float_info.min
_EPS = 2.0 ** -52


@pytest.fixture(scope="module")
def airy_rows():
    """(t, AiryValue, Ai', 40-digit Ai, 40-digit Ai') at each of _AIRY_T."""
    with mpmath.workdps(40):
        return [(t, specfun.airy_ai(t), specfun.airy_ai_prime(t),
                 mpmath.airyai(t), mpmath.airyai(t, 1)) for t in _AIRY_T]


class TestAiry:
    def test_against_mpmath(self, airy_rows):
        # Within 4 eps on [0, 104], subnormal values from t ~ 103.89
        # included.
        with mpmath.workdps(40):
            for t, av, _, ai, _ in airy_rows:
                if t <= 104.0:
                    assert abs(av.value - ai) <= 4 * _EPS * ai, t

    def test_prime_against_mpmath(self, airy_rows):
        with mpmath.workdps(40):
            for t, _, aip, _, want in airy_rows:
                if t <= 104.0:
                    assert abs(aip - want) <= 4 * _EPS * abs(want), t

    def test_err_estimate_contract(self, airy_rows):
        # err_estimate bounds the error at every point, also where Ai is
        # subnormal or rounds to 0.0; where Ai is normal, the largest
        # relative claim on each branch is within 10 times the largest
        # relative error measured on it.
        claim = {}
        worst = {}
        with mpmath.workdps(40):
            for t, av, _, ai, _ in airy_rows:
                err = abs(av.value - ai)
                assert av.err_estimate >= err, t
                assert av.err_estimate > 0.0, t
                if ai >= _NORMAL:
                    rel = float(err / ai)
                    worst[av.method] = max(worst.get(av.method, 0.0), rel)
                    claim[av.method] = max(claim.get(av.method, 0.0),
                                           av.err_estimate / av.value)
        assert set(claim) == {"series.AI", "asymptotic-expansion"}
        for method in claim:
            assert claim[method] <= 10.0 * worst[method], method
        assert specfun.airy_ai(110.0).value == 0.0

    @pytest.mark.parametrize("name, derivative, sign",
                             [("AI", 0, 1), ("AIP", 1, -1)])
    def test_records_within_their_claim(self, name, derivative, sign):
        # AI(u) = Ai(u^2) exp((2/3) u^3) and AIP(u) = -Ai'(u^2) exp(...)
        # at 301 u of [0, 3], summed as the kernel sums them.
        record = getattr(series, name)
        with mpmath.workdps(40):
            for u in np.linspace(0.0, 3.0, 301).tolist():
                want = sign * oracle.airy_a(u, derivative)
                got = series.chebyshev_of_s(record, u)
                assert abs(got - want) <= record.err_eps * _EPS * want, u

    def test_branch_tags(self):
        assert specfun.airy_ai(0.0).method == "series.AI"
        assert specfun.airy_ai(_kernels.T_SWITCH).method == "series.AI"
        assert specfun.airy_ai(math.nextafter(_kernels.T_SWITCH, 10.0)
                               ).method == "asymptotic-expansion"
        assert specfun.airy_ai(30.0).method == "asymptotic-expansion"

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

    @pytest.mark.parametrize("t, bound", [(_kernels.T_SWITCH, 0.59)])
    def test_asymptotic_terms_fall(self, t, bound):
        # The expansion sums all _ASY_TERMS terms and takes the last as its
        # remainder, which holds while each term is below the one before.
        # u_k / (u_(k-1) z) grows with k and falls with t, so the last
        # ratio bounds every term from the switch on.  That last term, 2.1
        # eps at the switch, is part of the claim there; 20 terms would
        # leave 6.5 eps, and 2.3 eps of actual truncation error.
        z = 2.0 / 3.0 * t ** 1.5
        u = np.abs(np.array(_kernels._ASY_U))
        assert u.size == _kernels._ASY_TERMS + 1
        ratio = u[1:] / (u[:-1] * z)
        assert (np.diff(ratio) > 0.0).all()
        assert ratio[-1] <= bound
        assert u[-1] / z ** _kernels._ASY_TERMS <= 2.5 * _EPS

    def test_rejects_bad_input(self):
        # No route calls Ai below 0: t = nu^(4/3) zeta >= 0.
        with pytest.raises(ValueError):
            specfun.airy_ai(-1e-300)
        with pytest.raises(ValueError):
            specfun.airy_ai_prime(-2.0)
        with pytest.raises(ValueError):
            specfun.airy_ai(float("inf"))
        with pytest.raises(ValueError):
            specfun.airy_ai_values(np.array([0.0, -3.0]))


# Every public entry point taking a real argument: (call, the name its
# ValueError gives, a finite value out of range or None, scalar only).
_REAL_ARGUMENTS = {
    "hermite_psi": (lambda x: specfun.hermite_psi(3, x), "x", None, False),
    "hermite_psi_squared": (lambda x: specfun.hermite_psi_squared(3, x),
                            "x", None, False),
    "airy_ai": (specfun.airy_ai, "t", -1e-300, True),
    "airy_ai_prime": (specfun.airy_ai_prime, "t", -1e-300, True),
    "airy_ai_values": (specfun.airy_ai_values, "t", -1e-300, False),
    "zeta_of_x": (asymptotics.zeta_of_x, "x", 0.5, False),
    "f_of_x": (asymptotics.f_of_x, "x", 0.5, False),
    "x_of_zeta": (asymptotics.x_of_zeta, "zeta", -1e-9, False),
    "f_n": (lambda t: asymptotics.f_n(5, t), r"zeta = nu\^\(-4/3\) t",
            -1.0, True),
    "olver_approx": (lambda x: asymptotics.olver_approx(5, x), "x", 0.5,
                     True),
}
_SCALAR_ONLY = [k for k, v in _REAL_ARGUMENTS.items() if v[3]]


class TestRealArguments:
    """One gate, specfun._check_real, checks every real argument."""

    @pytest.mark.parametrize("entry", list(_REAL_ARGUMENTS))
    def test_rejects_non_finite_and_out_of_range(self, entry):
        call, name, outside, scalar = _REAL_ARGUMENTS[entry]
        for v in [math.nan, math.inf, -math.inf] + [outside] * (
                outside is not None):
            for arg in [v] if scalar else [v, np.array([2.0, v])]:
                with pytest.raises(ValueError, match="^%s must be finite"
                                   % name):
                    call(arg)

    @pytest.mark.parametrize("entry", _SCALAR_ONLY)
    def test_scalar_entry_points(self, entry):
        call = _REAL_ARGUMENTS[entry][0]
        for arr in (np.array([2.0]), np.array([2.0, 3.0])):
            with pytest.raises(TypeError):
                call(arr)
        assert call("2.0") == call(2.0)


class TestOneSMap:
    """Every route from a level to s = (2n+1)^(-2/3) takes nu^(2/3) from
    series.nu23_of_levels, so no second map can give other bits."""

    @pytest.mark.parametrize("route", [
        lambda: osctun.tunneling_exact(5),
        lambda: osctun.big_f_n([5]),
        lambda: osctun.f_n(5, 1.0),
        lambda: osctun.olver_approx(5, 1.2),
    ], ids=["tunneling_exact", "big_f_n", "f_n", "olver_approx"])
    def test_routes_take_the_shared_cube_root(self, route, monkeypatch):
        class Refused(Exception):
            pass

        def refuse(levels):
            raise Refused

        monkeypatch.setattr(series, "nu23_of_levels", refuse)
        with pytest.raises(Refused):
            route()


def _checked(ns, lowest):
    """specfun._check_levels(ns, lowest), or the type and message of what
    it raises."""
    try:
        return specfun._check_levels(ns, lowest)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_TOP = specfun._MAX_LEVEL
# Ends near 0, near the largest level and anywhere a double's exponent
# reaches, on both sides; a step of any size and sign.
_ENDS = st.one_of(st.integers(-5, 5), st.integers(_TOP - 5, _TOP + 5),
                  st.integers(-2 ** 1100, 2 ** 1100))
_STEPS = st.one_of(st.integers(-5, 5), st.integers(-2 ** 1100, 2 ** 1100),
                   ).filter(bool)


class TestLevelCheck:
    """A range is checked by its two ends, and the outcome is the one its
    list gives: the same levels, or the same exception and message."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(start=_ENDS, count=st.integers(-3, 40), step=_STEPS,
           past=st.integers(0, 4), lowest=st.sampled_from([0, 1]))
    @example(start=-1, count=6, step=1, past=0, lowest=0)
    @example(start=5, count=6, step=-1, past=0, lowest=1)
    @example(start=_TOP - 1, count=3, step=1, past=0, lowest=0)
    @example(start=_TOP + 1, count=3, step=-1, past=0, lowest=1)
    @example(start=0, count=0, step=1, past=0, lowest=1)
    def test_range_as_its_list(self, start, count, step, past, lowest):
        # stop lies count steps from start, moved on by up to 4; a negative
        # count gives an empty range.  At most 44 levels keep the list small.
        stop = start + count * step + (past if step > 0 else -past)
        levels = range(start, stop, step)
        assert len(levels) <= 44
        assert _checked(levels, lowest) == _checked(list(levels), lowest)
