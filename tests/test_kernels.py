"""The kernels, the series evaluator's Clenshaw sum and the tests' own
scalar tail sum (tail_sum.py) match independent evaluations: mpmath,
direct recurrences and numpy's Chebyshev sum."""

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest

import oracle
import tail_sum
from osctun import _kernels, asymptotics, series


def test_inversion_converges_just_above_series_seam():
    # Newton starts just above PSI's interval end from the large-zeta seed,
    # about half the root there; its stop, once e no longer falls, must
    # still accept an iterate there.
    zeta = np.array([np.nextafter(_kernels.ZETA_2, 2.0),
                     _kernels.ZETA_2 * (1.0 + 1e-9), 1.5])
    e = _kernels.invert_zeta_values(zeta)
    back = _kernels.zeta_f_from_e(e)[0]
    assert np.all(np.abs(back - zeta) <= 1e-12 * np.maximum(1.0, zeta))


def test_inversion_stays_far_from_the_step_cap(monkeypatch):
    # Newton from below the root first lands at or above it, then falls
    # toward it, so a few steps serve every zeta; a loop that crept one ulp
    # a step would still give right values, so only its step count shows.
    calls = []
    g_of_e = _kernels.g_of_e

    def counting(e):
        calls.append(e.size)
        return g_of_e(e)

    monkeypatch.setattr(_kernels, "g_of_e", counting)
    zeta = np.geomspace(np.nextafter(_kernels.ZETA_2, 2.0),
                        asymptotics.ZETA_MAX, 2000)
    e = _kernels.invert_zeta_values(zeta)
    assert np.all(e > 0.0)
    assert len(calls) <= 10


# Ai, Ai' and err_estimate at 20,001 points of [0, 104], run in this process
# and in a child.
_AIRY_DIGEST = (
    "import hashlib\n"
    "import numpy as np\n"
    "from osctun import _kernels\n"
    "t = np.linspace(0.0, 104.0, 20001)\n"
    "ai, aip, err, _ = _kernels.airy_values(t)\n"
    "digest = hashlib.sha256(np.stack([ai, aip, err]).tobytes()).hexdigest()\n"
    "exp_digest = hashlib.sha256(np.exp(-t).tobytes()).hexdigest()\n")
_AIRY_PIN = (
    "87a769f3314676cde717b8cac32db012b2fd793c6703f9a9e2f0bc36c2d49c38")


def test_airy_bits_pinned(child_env):
    # The kernel takes exp and pow from libm, on Python floats, and
    # otherwise only + - * / and sqrt, which IEEE 754 rounds the same on
    # every CPU.  So the bits hold in a child whose numpy may not use its
    # targets above AVX2, where np.exp itself gives other bits.
    here = {}
    exec(_AIRY_DIGEST, here)
    assert here["digest"] == _AIRY_PIN
    # One point gives the bits it has in an array.
    t = here["t"]
    for i in list(range(0, t.size, 97)) + [t.size - 1]:
        point = _kernels.airy_values(float(t[i]))
        for one, many in zip(point, (here["ai"], here["aip"], here["err"])):
            assert one.shape == ()
            assert one.tobytes() == many[i].tobytes(), t[i]
    for v in (math.nextafter(_kernels.T_SWITCH, 0.0), _kernels.T_SWITCH,
              math.nextafter(_kernels.T_SWITCH, 10.0), 110.0):
        many = _kernels.airy_values(np.array([0.5, v, 50.0]))
        for one, col in zip(_kernels.airy_values(v), many):
            assert one.tobytes() == col[1].tobytes(), v
    # The dispatch targets above AVX2 (X86_V3) that this host runs.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    above = [d for d in umath.__cpu_dispatch__
             if (d == "X86_V4" or d.startswith("AVX512"))
             and umath.__cpu_features__.get(d)]
    if not above:
        pytest.skip("numpy runs no dispatch target above AVX2 on this "
                    "host, so there is no second mode to compare")
    env = dict(child_env, NPY_DISABLE_CPU_FEATURES=" ".join(above))
    res = subprocess.run(
        [sys.executable, "-c", _AIRY_DIGEST + "print(digest, exp_digest)"],
        capture_output=True, text=True, env=env, check=True)
    digest, exp_digest = res.stdout.split()
    # The child really took other loops: its np.exp differs.
    assert exp_digest != here["exp_digest"]
    assert digest == _AIRY_PIN


@pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 44.73, 1000.0, 3e4])
def test_psi0_scaled_against_mpmath(x):
    # Far past x ~ 38.6, where exp(-x^2/2) itself underflows.
    import mpmath
    m, e = tail_sum.psi0_scaled(x)
    want = oracle.psi_n(0, x)
    with mpmath.workdps(40):
        assert abs(mpmath.ldexp(m, e) / want - 1) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [500, 1000])
def test_hermite_values_against_mpmath(n):
    # Just beyond the turning point, where the tunneling tail lives.  A
    # psi_0 seed rounded through log2 alone costs about x^2 eps here.
    import mpmath
    nu = np.sqrt(2.0 * n + 1.0)
    x = np.linspace(nu, nu + 1.0, 21)
    got = _kernels.hermite_values(n, x)
    for xi, gi in zip(x, got):
        want = oracle.psi_n(n, xi)
        with mpmath.workdps(40):
            assert abs(gi / want - 1) <= 200 * np.finfo(float).eps


@pytest.mark.parametrize("n", [0, 1, 40, 200])
def test_tail_sum_matches_recurrence(n):
    nu = np.sqrt(2.0 * n + 1.0)
    s, psi_n = tail_sum.hermite_tail_sum(n, nu)
    psi = np.array([_kernels.hermite_values(k, np.array([nu]))[0]
                    for k in range(n + 1)])
    want = float(np.sum(psi[1:] * psi[:-1] / np.sqrt(2.0 * np.arange(1, n + 1))))
    assert abs(psi_n - psi[-1]) <= 1e-12 * abs(psi[-1])
    assert abs(s - want) <= 1e-12 * want


def test_chebyshev_of_s_matches_chebval():
    coeffs = (0.5, -0.25, 0.125, 1e-3, -2e-5, 3e-7)
    record = series.P._replace(coeffs=coeffs)
    s = np.linspace(0.0, series.S_MAX, 41)
    want = np.polynomial.chebyshev.chebval(2.0 * s / series.S_MAX - 1.0,
                                           coeffs)
    assert np.all(np.abs(series.chebyshev_of_s(record, s) - want) <= 1e-15)


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

