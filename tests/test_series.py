"""Every P_n and F_n comes from one evaluator of osctun.series, so a
level's bits do not depend on the sweep around it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osctun import series, specfun
from osctun.asymptotics import big_f_n, leading_term, second_order
from osctun.quadrature import tunneling_exact


def _levels(lowest):
    # Half the draws stay below 10^6, where the CLI's sweeps and the series'
    # special case n = 0 lie; the rest span every level whose 2n+1 fits a
    # double.
    return st.one_of(st.integers(lowest, 10 ** 6),
                     st.integers(lowest, specfun._MAX_LEVEL))


def _sweeps(lowest):
    return st.lists(_levels(lowest), min_size=1, max_size=64)


def _bits(values):
    return [float(v).hex() for v in values]


class TestSweepBits:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(ns=_sweeps(0))
    def test_p_n(self, ns):
        values, errs = series.evaluate(series.P, ns)
        singles = [tunneling_exact(n) for n in ns]
        assert [r.n for r in singles] == ns
        assert _bits(values) == _bits(r.value for r in singles)
        assert _bits(errs) == _bits(r.err_estimate for r in singles)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(ns=_sweeps(1))
    def test_f_n(self, ns):
        assert _bits(big_f_n(ns)) == _bits(big_f_n(n) for n in ns)

    @pytest.mark.parametrize("term", [leading_term, second_order],
                             ids=["leading_term", "second_order"])
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(ns=_sweeps(1))
    def test_asymptotic(self, term, ns):
        r = term(ns)
        singles = [term(n) for n in ns]
        assert _bits(r.value) == _bits(s.value for s in singles)
        assert _bits(r.err_estimate) == _bits(s.err_estimate for s in singles)


class TestShapeBits:
    """One level, or one s, has the bits it has as element 0 of a
    one-element sequence, so a caller may pass either."""

    @pytest.mark.parametrize("record, lowest", [(series.P, 0), (series.F, 1)])
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_evaluate(self, record, lowest, data):
        n = data.draw(_levels(lowest))
        value, err = series.evaluate(record, n)
        values, errs = series.evaluate(record, [n])
        assert _bits([value, err]) == _bits([values[0], errs[0]])

    @pytest.mark.parametrize("record", [series.P, series.F])
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(s=st.floats(0.0, series.S_MAX))
    def test_chebyshev_of_s(self, record, s):
        assert _bits([series.chebyshev_of_s(record, s)]) == _bits(
            series.chebyshev_of_s(record, np.array([s])))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(n=_levels(0))
    def test_nu23_of_levels(self, n):
        assert _bits([series.nu23_of_levels(n)]) == _bits(
            series.nu23_of_levels([n]))
