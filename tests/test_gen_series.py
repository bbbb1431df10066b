"""The series generator still describes the tuples osctun holds.

tools/gen_series.py freezes _P_CHEBYSHEV and _BIG_F_CHEBYSHEV; a full run
takes minutes of mpmath sampling.  These tests load the file as it is and
run no sampling: they check its table of series and its literal printing.
"""

import importlib
import importlib.util
import os

import pytest

from osctun import _kernels

_TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "tools", "gen_series.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("_gen_series", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _frozen(series):
    return getattr(importlib.import_module("osctun." + series.module),
                   series.name)


def test_every_series_names_a_frozen_tuple(tool):
    assert {s.name for s in tool.SERIES} == {"_P_CHEBYSHEV",
                                             "_BIG_F_CHEBYSHEV"}
    for series in tool.SERIES:
        frozen = _frozen(series)
        assert type(frozen) is tuple
        assert len(frozen) == series.degree + 1
        assert series.degree + 1 <= series.samples


def test_literal_round_trips_bit_for_bit(tool):
    for series in tool.SERIES:
        frozen = _frozen(series)
        namespace = {}
        exec(tool.literal(series, frozen), namespace)
        got = namespace[series.name]
        assert list(map(float.hex, got)) == list(map(float.hex, frozen))


def test_each_series_keeps_its_interval_end(tool):
    # P was sampled on [0, S_MAX] with the double S_MAX, F on [0, 3^(-2/3)]
    # at 40 digits; one end for both moves P's coefficients.
    ends = {s.name: s.s_hi for s in tool.SERIES}
    assert ends["_P_CHEBYSHEV"] == _kernels.S_MAX
    assert ends["_BIG_F_CHEBYSHEV"] != _kernels.S_MAX
    assert abs(ends["_BIG_F_CHEBYSHEV"] - _kernels.S_MAX) < 1e-16
