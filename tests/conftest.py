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


@pytest.fixture(autouse=True)
def mpmath_precision_kept():
    # mpmath's precision is one global of the process: a test that sets
    # mpmath.mp.dps instead of using workdps sets it for every later test.
    prec = mpmath.mp.prec
    yield
    left, mpmath.mp.prec = mpmath.mp.prec, prec
    assert left == prec, "the test left mpmath.mp.prec at %d" % left
