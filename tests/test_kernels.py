"""Backend plumbing: numba and numpy kernel paths must agree, and the
shared scalar kernels match independent evaluations."""

import subprocess
import sys

import numpy as np
import pytest

from osctun import _kernels

needs_numba = pytest.mark.skipif(not _kernels.USE_NUMBA,
                                 reason="numba backend inactive")


def test_backend_flag_consistent():
    assert _kernels.BACKEND in ("numba", "numpy")
    assert _kernels.USE_NUMBA == (_kernels.BACKEND == "numba")


def _rel_diff(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    scale[scale == 0.0] = 1.0
    return np.abs(a - b) / scale


@needs_numba
@pytest.mark.parametrize("n", [0, 1, 7, 40, 361, 1000])
def test_hermite_backends_agree(n):
    rng = np.random.default_rng(1234 + n)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 50),
                        rng.uniform(0.8, 1.3, 30) * np.sqrt(2.0 * n + 1.0)])
    a = _kernels.hermite_values_numba(n, x)
    b = _kernels.hermite_values_numpy(n, x)
    assert np.all(_rel_diff(a, b) < 1e-12)


@needs_numba
def test_airy_backends_agree():
    t = np.concatenate([np.linspace(-2.0, 12.0, 301),
                        np.linspace(12.0, 60.0, 97)])
    ai_a, aip_a, err_a, m_a = _kernels.airy_values_numba(t)
    ai_b, aip_b, err_b, m_b = _kernels.airy_values_numpy(t)
    assert np.all(_rel_diff(ai_a, ai_b) < 1e-13)
    assert np.all(_rel_diff(aip_a, aip_b) < 1e-13)
    assert np.array_equal(m_a, m_b)
    assert np.all(err_a > 0.0) and np.all(err_b > 0.0)


@needs_numba
def test_inversion_backends_agree():
    zeta = np.concatenate([[0.0], np.geomspace(1e-12, 50.0, 200)])
    e_a, ok_a = _kernels.invert_zeta_values_numba(zeta)
    e_b, ok_b = _kernels.invert_zeta_values_numpy(zeta)
    assert ok_a and ok_b
    assert np.all(_rel_diff(e_a, e_b) < 1e-12)


def test_inversion_converges_just_above_series_seam():
    # Direct-form cancellation keeps the residual near the relative
    # tolerance here; the fixed-point stop must still accept the iterate.
    zeta = np.array([6.13073943e-05, 2.00340391e-02])
    e, ok = _kernels.invert_zeta_values_numpy(zeta)
    assert ok
    back = _kernels.zeta_from_e(e)
    assert np.all(np.abs(back - zeta) <= 1e-12 * np.maximum(1.0, zeta))


@pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 44.73, 1000.0, 3e4])
def test_psi0_scaled_against_mpmath(x):
    # Far past x ~ 38.6, where exp(-x^2/2) itself underflows.
    import mpmath
    m, e = _kernels.psi0_scaled(x)
    with mpmath.workdps(40):
        want = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-mpmath.mpf(x) ** 2 / 2)
        assert abs(mpmath.ldexp(m, e) / want - 1) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [500, 1000])
def test_hermite_values_against_mpmath(n):
    # Just beyond the turning point, where the tunneling tail lives.  A
    # psi_0 seed rounded through log2 alone costs about x^2 eps here.
    import mpmath
    nu = np.sqrt(2.0 * n + 1.0)
    x = np.linspace(nu, nu + 1.0, 21)
    got = _kernels.hermite_values(n, x)
    with mpmath.workdps(40):
        ks = range(2, n + 1)
        a = [None, None] + [mpmath.sqrt(mpmath.mpf(2) / k) for k in ks]
        b = [None, None] + [mpmath.sqrt(mpmath.mpf(k - 1) / k) for k in ks]
        for xi, gi in zip(x, got):
            xm = mpmath.mpf(xi)
            p0 = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-xm * xm / 2)
            p1 = mpmath.sqrt(2) * xm * p0
            for k in range(2, n + 1):
                p0, p1 = p1, a[k] * xm * p1 - b[k] * p0
            assert abs(gi / p1 - 1) <= 200 * np.finfo(float).eps


@pytest.mark.parametrize("n", [0, 1, 40, 200])
def test_tail_sum_matches_recurrence(n):
    nu = np.sqrt(2.0 * n + 1.0)
    s, psi_n = _kernels.hermite_tail_sum(n, nu)
    psi = np.array([_kernels.hermite_values(k, np.array([nu]))[0]
                    for k in range(n + 1)])
    want = float(np.sum(psi[1:] * psi[:-1] / np.sqrt(2.0 * np.arange(1, n + 1))))
    assert abs(psi_n - psi[-1]) <= 1e-12 * abs(psi[-1])
    assert abs(s - want) <= 1e-12 * want


@needs_numba
def test_extreme_order_finite():
    n = 10 ** 6
    nu = np.sqrt(2.0 * n + 1.0)
    x = np.array([0.0, 1.0, nu, nu + 0.5])
    psi = _kernels.hermite_values(n, x)
    assert np.all(np.isfinite(psi))
    # Interior samples sit on the classical envelope scale, far from under-
    # or overflow even though the unscaled seed would have died at n ~ 744.
    assert 0.0 < abs(psi[1]) < 1.0
    assert psi[2] != 0.0


def test_env_flag_selects_numpy_backend(child_env):
    env = dict(child_env, OSCTUN_DISABLE_NUMBA="1")
    code = ("import math, osctun\n"
            "assert osctun._kernels.BACKEND == 'numpy'\n"
            "assert osctun._kernels.hermite_values_numba is None\n"
            "p = osctun.tunneling_exact(0).value\n"
            "assert abs(p - math.erfc(1.0)) < 1e-12\n"
            "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
