"""Acceptance gate: the eleven headline checks, one verdict line each.

Run with -s to see the verdict lines as the suite executes.
"""

import math
import statistics
import time

import numpy as np
import pytest

import osctun
from osctun import analysis, specfun
from osctun.asymptotics import (C1, C2, F_INFINITY, big_f_n, leading_term,
                                olver_approx, second_order, zeta_of_x)
from osctun.quadrature import integrate_semi_infinite, tunneling_exact


def verdict(num, ok, detail):
    print("criterion %2d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    rows = analysis.compare_sweep(range(64, 613))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_01_first_level_reference_value(warm_kernels):
    start = time.perf_counter()
    r = tunneling_exact(1)
    elapsed = time.perf_counter() - start
    ok = abs(r.value - 0.1116) <= 5e-5 and elapsed < 0.1
    verdict(1, ok, "P_1 = %.6f in %.4f s" % (r.value, elapsed))


def test_02_ground_state_closed_form(warm_kernels):
    start = time.perf_counter()
    r = tunneling_exact(0)
    elapsed = time.perf_counter() - start
    want = math.erfc(1.0)
    ok = abs(r.value - want) <= 1e-9 and elapsed < 0.1
    verdict(2, ok, "P_0 - erfc(1) = %.2e in %.4f s"
            % (r.value - want, elapsed))


def test_03_leading_coefficient():
    built = 2.0 / (3.0 ** (2.0 / 3.0) * specfun.GAMMA.gamma_one_third ** 2)
    ok = abs(C1 - 0.133975) <= 1e-6 and abs(C1 - built) <= 1e-15
    verdict(3, ok, "C1 = %.9f" % C1)


def test_04_second_coefficient():
    want = -specfun.GAMMA.ai_zero * specfun.GAMMA.ai_prime_zero / 3.0
    val, _ = integrate_semi_infinite(
        lambda t: t * specfun.airy_ai_values(t) ** 2, 0.0)
    ok = abs(C2 - 0.0122518) <= 1e-6 and abs(val - want) <= 1e-9
    verdict(4, ok, "C2 = %.9f, quadrature vs antiderivative %.2e"
            % (C2, val - want))


def test_05_airy_squared_integral():
    val, _ = integrate_semi_infinite(
        lambda t: specfun.airy_ai_values(t) ** 2, 0.0)
    want = 1.0 / (3.0 ** (2.0 / 3.0) * specfun.GAMMA.gamma_one_third ** 2)
    ok = abs(val - want) <= 1e-8
    verdict(5, ok, "integral = %.12f, deviation %.2e" % (val, val - want))


def test_06_leading_agreement_regime(sweep):
    rows, elapsed = sweep
    rel = max(r.err_leading / r.p_exact for r in rows)
    ok = rel <= 0.02 and elapsed < 60.0
    verdict(6, ok, "max rel dev %.4f%% over n=64..612 in %.1f s"
            % (100.0 * rel, elapsed))


def test_07_second_order_dominance(sweep):
    rows, _ = sweep
    tail = [r for r in rows if r.n >= 513]
    dominated = all(r.err_second < r.err_leading for r in tail)
    picked = [r.scaled_err_second for r in rows
              if r.n in (64, 128, 256, 512)]
    bounded = max(picked) <= 2.0 * statistics.median(picked)
    ok = dominated and bounded
    verdict(7, ok, "dominance on 513..612: %s; scaled errors %s"
            % (dominated, ["%.4f" % s for s in picked]))


def test_08_olver_bound():
    worst = 0.0
    ok = True
    for n in (4, 10, 40):
        nu = math.sqrt(2.0 * n + 1.0)
        log_norm = (0.25 * math.log(math.pi)
                    + 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))
        for x in (1.0, 1.02, 1.1, 1.5, 3.0):
            oa = olver_approx(n, x)
            lhs = specfun.hermite_psi(n, nu * x) * math.exp(log_norm)
            allowance = math.exp(oa.log_prefactor) * oa.eps_bound
            gap = abs(lhs - oa.rhs_value)
            ok = ok and gap <= allowance
            if allowance > 0.0:
                worst = max(worst, gap / allowance)
    verdict(8, ok, "worst |LHS-RHS| at %.3f of the bound" % worst)


def test_09_lemma_verification():
    rep = analysis.lemma_check(50.0, 10 ** 4)
    ok = rep.passed and abs(rep.endpoint_left - 2.0 ** (-2.0 / 3.0)) <= 1e-8
    verdict(9, ok, "max_violation %.2e, endpoint %.9f"
            % (rep.max_violation, rep.endpoint_left))


def test_10_airy_weighted_limit():
    ns = (6, 10, 20, 50, 100, 200, 500)
    ratios = [F_INFINITY / big_f_n(n) for n in ns]
    ok = (all(1.0 < r < 1.2 for r in ratios)
          and ratios[-1] < 1.01
          and all(a > b for a, b in zip(ratios, ratios[1:])))
    verdict(10, ok, "ratio falls %.4f -> %.4f over n=6..500"
            % (ratios[0], ratios[-1]))


def test_11_property_suite(tmp_path, capsys):
    from osctun.quadrature import QuadratureConfig, integrate_finite
    from osctun.cli import main

    checks = []

    big = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=6000)
    for n in (0, 1, 5, 20, 100, 1000):
        nu = math.sqrt(2.0 * n + 1.0)
        val, _ = integrate_finite(
            lambda x: specfun.hermite_psi_squared(n, x),
            -nu - 9.0, nu + 9.0, big, breakpoints=[-nu, 0.0, nu])
        checks.append(abs(val - 1.0) <= 1e-8)

    rng = np.random.default_rng(99)
    for n in (3, 8):
        x = rng.uniform(0.1, 6.0, 32)
        sign = 1.0 if n % 2 == 0 else -1.0
        checks.append(np.array_equal(specfun.hermite_psi(n, x),
                                     sign * specfun.hermite_psi(n, -x)))

    from osctun.asymptotics import x_of_zeta
    for x in (1.0 + 1e-6, 1.01, 1.5, 3.0, 10.0):
        checks.append(abs(x_of_zeta(zeta_of_x(x)) - x) <= 1e-10 * x)

    for x in (1.1, 1.5, 3.0):
        h = 1e-5 * x
        num = (zeta_of_x(x + h) - zeta_of_x(x - h)) / (2.0 * h)
        want = math.sqrt((x * x - 1.0) / zeta_of_x(x))
        checks.append(abs(num - want) <= 1e-6 * want)

    # Ai's seam: the last double of the record branch and the first of the
    # expansion lie on one curve, within their err_estimates.
    from osctun._kernels import T_SWITCH
    a = specfun.airy_ai(T_SWITCH)
    b = specfun.airy_ai(math.nextafter(T_SWITCH, 10.0))
    slope = specfun.airy_ai_prime(T_SWITCH)
    checks.append(abs(b.value - (a.value + slope * (b.t - a.t)))
                  <= a.err_estimate + b.err_estimate)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert main(["compare", "--n-range", "5:9", "--out", str(p)]) == 0
    capsys.readouterr()
    checks.append(a.read_bytes() == b.read_bytes())

    ok = all(checks)
    verdict(11, ok, "%d/%d property groups hold" % (sum(checks), len(checks)))
