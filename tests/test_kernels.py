"""The kernels match independent evaluations: mpmath, direct recurrences
and the scalar loop behind each batched pass."""

import numpy as np
import pytest

from osctun import _kernels


def test_inversion_converges_just_above_series_seam():
    # Direct-form cancellation keeps the residual near the relative
    # tolerance here; the fixed-point stop must still accept the iterate.
    zeta = np.array([6.13073943e-05, 2.00340391e-02])
    e, ok = _kernels.invert_zeta_values(zeta)
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


def test_tail_sums_match_scalar_loop():
    # Unsorted, with zeros and repeated levels, and with x off nu so the
    # columns of one level differ: each column has the scalar loop's bits.
    n = np.array([300, 0, 17, 1, 300, 0, 612, 2, 17, 1000])
    x = np.sqrt(2.0 * n + 1.0) + np.linspace(0.0, 0.9, n.size)
    s, psi = _kernels.hermite_tail_sums(n, x)
    for j in range(n.size):
        assert (s[j], psi[j]) == _kernels.hermite_tail_sum(int(n[j]), x[j])
    s, psi = _kernels.hermite_tail_sums([], [])
    assert s.shape == psi.shape == (0,)


def test_extreme_order_finite():
    n = 10 ** 4
    nu = np.sqrt(2.0 * n + 1.0)
    x = np.array([0.0, 1.0, nu, nu + 0.5])
    psi = _kernels.hermite_values(n, x)
    assert np.all(np.isfinite(psi))
    # Interior samples sit on the classical envelope scale, far from under-
    # or overflow even though the unscaled seed would have died at n ~ 744.
    assert 0.0 < abs(psi[1]) < 1.0
    assert psi[2] != 0.0

