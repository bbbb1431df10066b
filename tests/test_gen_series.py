"""The series generator still describes the records osctun.series holds.

tools/gen_series.py freezes the coefficients of osctun.series.P and
osctun.series.F; a full run takes minutes of mpmath sampling.  These tests
load the file as it is and run no sampling: they check its table of series
and its literal printing against the records.
"""

import importlib.util
import math
import os

import pytest

from osctun import series as records

_TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "tools", "gen_series.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("_gen_series", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records():
    return {name: value for name, value in vars(records).items()
            if isinstance(value, records.Series)}


def test_every_series_names_a_frozen_tuple(tool):
    assert {s.name for s in tool.SERIES} == set(_records()) == {"P", "F"}
    for series in tool.SERIES:
        frozen = getattr(records, series.name).coeffs
        assert type(frozen) is tuple
        assert len(frozen) == series.degree + 1
        assert series.degree + 1 <= series.samples


def test_literal_round_trips_bit_for_bit(tool):
    with open(records.__file__) as fh:
        source = fh.read()
    for series in tool.SERIES:
        frozen = getattr(records, series.name).coeffs
        text = tool.literal(series, frozen)
        got = eval(text)
        assert list(map(float.hex, got)) == list(map(float.hex, frozen))
        # The module holds the tuple as the tool prints it.
        assert text in source


def test_each_series_keeps_its_interval_end(tool):
    # P was sampled on [0, S_MAX] with the double S_MAX, F on [0, 3^(-2/3)]
    # at 40 digits; one end for both moves P's coefficients.  Both records
    # are summed on S_MAX, within one ulp of F's sampled end.
    ends = {s.name: s.s_hi for s in tool.SERIES}
    assert {r.s_max for r in _records().values()} == {records.S_MAX}
    assert ends["P"] == records.S_MAX
    assert ends["F"] != records.S_MAX
    assert abs(ends["F"] - records.S_MAX) < math.ulp(records.S_MAX)
