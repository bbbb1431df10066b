"""The series generator still describes the records osctun.series holds.

tools/gen_series.py freezes the coefficients of osctun.series.P, F, PHI,
PSI, AI and AIP; a full run takes minutes of mpmath sampling, nearly all
of it P's and F's.  These tests import the tool as it is and check its table
of series and its literal printing against the records, and rerun only the
two map samplers and the two Airy samplers, which take a tenth of a second
each.  The oracle that the samplers come from must stay independent of the
program it checks.
"""

import math
import os
import subprocess
import sys

import mpmath
import pytest

import gen_series
import oracle
from osctun import series as records


def _records():
    return {name: value for name, value in vars(records).items()
            if isinstance(value, records.Series)}


def test_every_series_names_a_frozen_tuple():
    assert {s.name for s in gen_series.SERIES} == set(_records()) == {
        "P", "F", "PHI", "PSI", "AI", "AIP"}
    for series in gen_series.SERIES:
        frozen = getattr(records, series.name).coeffs
        assert type(frozen) is tuple
        assert len(frozen) == series.degree + 1
        assert series.degree + 1 <= series.samples


def test_literal_round_trips_bit_for_bit():
    with open(records.__file__) as fh:
        source = fh.read()
    for series in gen_series.SERIES:
        frozen = getattr(records, series.name).coeffs
        text = gen_series.literal(series, frozen)
        got = eval(text)
        assert list(map(float.hex, got)) == list(map(float.hex, frozen))
        # The module holds the tuple as the tool prints it.
        assert text in source


def test_each_series_keeps_its_interval_end():
    # P was sampled on [0, S_MAX] with the double S_MAX, F on [0, 3^(-2/3)]
    # at 40 digits; one end for both moves P's coefficients.  Both records
    # are summed on S_MAX, within one ulp of F's sampled end.  PHI was
    # sampled and is summed on [0, 1], PSI on [0, zeta(2)] with zeta(2)
    # rounded to a double.  AI and AIP were sampled and are summed on
    # u = sqrt(t) in [0, 3].
    ends = {s.name: s.s_hi for s in gen_series.SERIES}
    assert records.P.s_max == records.F.s_max == records.S_MAX
    assert ends["P"] == records.S_MAX
    assert ends["F"] != records.S_MAX
    assert abs(ends["F"] - records.S_MAX) < math.ulp(records.S_MAX)
    assert ends["PHI"] == records.PHI.s_max == 1.0
    assert ends["PSI"] == records.PSI.s_max
    assert ends["AI"] == ends["AIP"] == records.AI.s_max == records.AIP.s_max
    assert records.AI.s_max == 3.0
    with mpmath.workdps(40):
        zeta_2 = oracle.zeta(2)
        assert abs(records.PSI.s_max - zeta_2) <= math.ulp(zeta_2) / 2


@pytest.mark.parametrize("name", ["PHI", "PSI"])
def test_map_records_regenerate_bit_for_bit(name):
    series = next(s for s in gen_series.SERIES if s.name == name)
    coeffs = gen_series.chebyshev_coefficients(series)
    assert getattr(records, name).coeffs == tuple(
        float(c) for c in coeffs[:series.degree + 1])
    # PHI >= 1 and PSI > 0.7 on their intervals, so the first dropped
    # coefficient costs them under a thousandth of an eps.
    assert abs(coeffs[series.degree + 1]) < 2.0 ** -52 / 1000


@pytest.mark.parametrize("name", ["AI", "AIP"])
def test_airy_records_regenerate_bit_for_bit(name):
    series = next(s for s in gen_series.SERIES if s.name == name)
    coeffs = gen_series.chebyshev_coefficients(series)
    assert getattr(records, name).coeffs == tuple(
        float(c) for c in coeffs[:series.degree + 1])
    # A >= 0.16 and A1 >= 0.25 on [0, 3], so the first dropped
    # coefficient costs them under a fortieth of an eps.
    assert abs(coeffs[series.degree + 1]) < 0.16 * 2.0 ** -52 / 40


def test_oracle_imports_neither_osctun_nor_numpy():
    # A truth computed through osctun or numpy could share the fault it is
    # meant to find.
    probe = ("import sys\nsys.path.insert(0, %r)\nimport oracle\n"
             "print(sorted({'osctun', 'numpy'} & set(sys.modules)))"
             % os.path.dirname(oracle.__file__))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert res.stdout.split() == ["[]"]
