"""Every P_n and F_n comes from one evaluator of osctun.series, so a
level's bits do not depend on the sweep around it."""

from hypothesis import given, settings, strategies as st

from osctun import specfun
from osctun.asymptotics import big_f_n, big_f_n_values
from osctun.quadrature import tunneling_exact, tunneling_exact_values


def _sweeps(lowest):
    # Half the draws stay below 10^6, where the CLI's sweeps and the series'
    # special case n = 0 lie; the rest span every level whose 2n+1 fits a
    # double.
    level = st.one_of(st.integers(lowest, 10 ** 6),
                      st.integers(lowest, specfun._MAX_LEVEL))
    return st.lists(level, min_size=1, max_size=64)


def _bits(values):
    return [float(v).hex() for v in values]


class TestSweepBits:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(ns=_sweeps(0))
    def test_p_n(self, ns):
        swept = tunneling_exact_values(ns)
        singles = [tunneling_exact(n) for n in ns]
        assert [r.n for r in swept] == [r.n for r in singles]
        assert _bits(r.value for r in swept) == _bits(
            r.value for r in singles)
        assert _bits(r.err_estimate for r in swept) == _bits(
            r.err_estimate for r in singles)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(ns=_sweeps(1))
    def test_f_n(self, ns):
        assert _bits(big_f_n_values(ns)) == _bits(big_f_n(n) for n in ns)
