"""Every name a module lists in __all__ exists, and is listed once, so
`from osctun.<module> import *` cannot fail on a name that was deleted;
and README names every name the package exports."""

import importlib
import os
import re

import pytest

import osctun

MODULES = ["osctun", "osctun.specfun", "osctun.quadrature",
           "osctun.asymptotics", "osctun.analysis", "osctun.series",
           "osctun.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_readme_names_every_package_export():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "README.md")
    with open(path, encoding="utf-8") as fh:
        words = set(re.findall(r"\w+", fh.read()))
    assert [n for n in osctun.__all__ if n not in words] == []
