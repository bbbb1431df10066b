import functools
import os

import mpmath
import pytest

import osctun


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # The first calls per process pay one-time costs: numpy's first use of
    # each routine.  Pay them up front so timed assertions and memory peaks
    # see the steady state.
    osctun.tunneling_exact(1)
    osctun.big_f_n(1)
    osctun.airy_ai(1.0)
    osctun.airy_ai(20.0)
    osctun.x_of_zeta(0.5)
    osctun.f_of_x(2.0)


@pytest.fixture()
def child_env():
    # A child python imports the same osctun as this process, whether that
    # came from PYTHONPATH or from pytest's own pythonpath setting.
    src = os.path.dirname(os.path.dirname(osctun.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.fixture(scope="session")
def mp_p():
    """P_n to 50 digits from the telescoping sum at the exact nu.

    The normalized recurrence psi_k = a_k nu psi_{k-1} - b_k psi_{k-2}, with
    a_k = sqrt(2/k) and b_k = sqrt((k-1)/k), runs in mpmath at 50 digits,
    so the double routes' roundings and their rounding of nu are absent.
    The term 2 psi_k psi_{k-1} / sqrt(2k) is a_k psi_k psi_{k-1}.  The
    a_k, b_k are shared by every level, and each level is computed once.
    """
    steps = [None]

    @functools.lru_cache(maxsize=None)
    def p(n):
        with mpmath.workdps(50):
            while len(steps) <= n:
                k = len(steps)
                steps.append((mpmath.sqrt(mpmath.mpf(2) / k),
                              mpmath.sqrt(mpmath.mpf(k - 1) / k)))
            nu = mpmath.sqrt(2 * n + 1)
            prev = cur = (mpmath.pi ** mpmath.mpf(-0.25)
                          * mpmath.exp(-nu * nu / 2))
            total = mpmath.erfc(nu)
            for a, b in steps[1:n + 1]:
                prev, cur = cur, a * nu * cur - b * prev
                total += a * cur * prev
            return total

    return p
