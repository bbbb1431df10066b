"""The package's records: named tuples with fixed fields, built by keyword,
immutable, and imported without the dataclasses module."""

import subprocess
import sys

import pytest

from osctun import analysis, asymptotics, quadrature, specfun

RECORDS = [
    (specfun.AiryValue, ("t", "value", "method", "err_estimate")),
    (specfun.GammaConstants, ("gamma_one_third", "gamma_two_thirds",
                              "ai_zero", "ai_prime_zero")),
    (quadrature.QuadratureConfig, ("rel_tol", "abs_tol", "max_subdivisions")),
    (quadrature.TunnelingResult, ("n", "value", "method", "err_estimate")),
    (asymptotics.OlverApprox, ("n", "x", "rhs_value", "eps_bound",
                               "log_prefactor")),
    (analysis.ComparisonRow, ("n", "p_exact", "p_leading", "p_second",
                              "err_leading", "err_second",
                              "scaled_err_second")),
    (analysis.LemmaReport, ("grid_size", "max_violation", "endpoint_left",
                            "endpoint_decay", "passed")),
    (analysis.FigureData, ("figure_id", "columns", "values")),
]

# Field values every record accepts: QuadratureConfig's pass its checks.
_VALUES = {"rel_tol": 1e-10, "abs_tol": 1e-14, "max_subdivisions": 100}


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[r.__name__ for r, _ in RECORDS])
class TestRecord:
    def test_fields_in_order(self, record, fields):
        assert record._fields == fields

    def test_keyword_construction(self, record, fields):
        values = [_VALUES.get(name, k) for k, name in enumerate(fields)]
        made = record(**dict(zip(fields, values)))
        assert type(made) is record
        assert tuple(made) == tuple(values)
        assert [getattr(made, name) for name in fields] == values

    def test_immutable(self, record, fields):
        made = record(**{name: _VALUES.get(name, 1) for name in fields})
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(made, name, 2)


def test_config_replace_checks_its_fields():
    with pytest.raises(ValueError, match="rel_tol"):
        quadrature.QuadratureConfig()._replace(rel_tol=-1.0)
    with pytest.raises(ValueError, match="max_subdivisions"):
        quadrature.QuadratureConfig._make([1e-10, 1e-14, 9])
    assert (quadrature.QuadratureConfig()._replace(abs_tol=1e-12)
            == quadrature.QuadratureConfig(abs_tol=1e-12))


def test_import_leaves_out_dataclasses(child_env):
    res = subprocess.run(
        [sys.executable, "-c", "import sys, osctun, osctun.cli; "
         "print('dataclasses' in sys.modules)"],
        env=child_env, capture_output=True, text=True, check=True)
    assert res.stdout == "False\n"
