"""Every name a module lists in __all__ exists, and is listed once, so
`from osctun.<module> import *` cannot fail on a name that was deleted;
README names every name the package exports; only the checked entries
reach the series evaluator; and only leading_term and second_order reach
their shared body."""

import ast
import importlib
import os
import re

import pytest

import osctun
from osctun import series

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


def _sites(tree, name):
    """The dotted name of the function or class around each use of a name
    or attribute called name in tree, "" at module level."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = where + [node.name]
        elif (isinstance(node, ast.Attribute) and node.attr == name
              or isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.alias) and node.name == name):
            sites.append(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, [])
    return sites


def _package_trees():
    """(module name, parsed source) for each module of src/osctun."""
    package = os.path.dirname(osctun.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read())


def _package_sites(name):
    return [module + "." + site for module, tree in _package_trees()
            for site in _sites(tree, name)]


def test_only_the_checked_entries_sum_the_level_records():
    # series.evaluate sums a record on levels as given, so every route to
    # it must check them first: only the entries of P_n and F_n call it,
    # and it is not exported.
    assert _package_sites("evaluate") == ["asymptotics.big_f_n",
                                          "quadrature.tunneling_exact"]
    assert "evaluate" not in series.__all__


def test_only_the_asymptotic_entries_reach_their_body():
    # The formulas' one body takes its levels as the entries pass them;
    # the entries check them, so other modules call the entries.
    assert _package_sites("_asymptotic") == ["asymptotics.leading_term",
                                             "asymptotics.second_order"]
    private = []
    for module, tree in _package_trees():
        if module == "asymptotics":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "asymptotics"):
                names = [node.attr]
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").endswith("asymptotics")):
                names = [alias.name for alias in node.names]
            else:
                names = []
            private += [module + ": asymptotics." + n for n in names
                        if n.startswith("_")]
    assert private == []
