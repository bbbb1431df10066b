import os

import pytest

import osctun


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # The first call per process pays JIT specialization; pay it up front so
    # timed assertions see steady-state speed.
    osctun.tunneling_exact(1)
    osctun.airy_ai(1.0)
    osctun.airy_ai(20.0)
    osctun.x_of_zeta(0.5)
    osctun.f_of_x(2.0)


@pytest.fixture()
def cfg():
    return osctun.QuadratureConfig()


@pytest.fixture()
def child_env():
    # A child python imports the same osctun as this process, whether that
    # came from PYTHONPATH or from pytest's own pythonpath setting.
    src = os.path.dirname(os.path.dirname(osctun.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))
