"""Every name a module lists in __all__ exists, and is listed once, so
`from osctun.<module> import *` cannot fail on a name that was deleted."""

import importlib

import pytest

MODULES = ["osctun", "osctun.specfun", "osctun.quadrature",
           "osctun.asymptotics", "osctun.analysis", "osctun.series",
           "osctun.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
