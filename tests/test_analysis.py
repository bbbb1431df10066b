"""Sweeps, the monotonicity report, and figure datasets."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from osctun import analysis, quadrature, series
from osctun.asymptotics import (F_INFINITY, big_f_n, f_of_x, leading_term,
                                second_order, zeta_of_x)
from osctun.quadrature import QuadratureConfig, integrate_finite
from osctun.specfun import hermite_psi_squared


class TestCompareSweep:
    def test_row_fields(self):
        rows = analysis.compare_sweep([1, 5, 12])
        assert [r.n for r in rows] == [1, 5, 12]
        for r in rows:
            assert 0.0 < r.p_exact < 1.0
            assert r.err_leading == abs(r.p_exact - r.p_leading)
            assert r.err_second == abs(r.p_exact - r.p_second)
            assert r.scaled_err_second == r.err_second * r.n ** (4.0 / 3.0)

    def test_first_level_value(self):
        row = analysis.compare_sweep([1])[0]
        assert abs(row.p_exact - 0.1116) < 5e-5

    def test_deterministic(self):
        a = analysis.compare_sweep([5, 50])
        b = analysis.compare_sweep([5, 50])
        assert a == b

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            analysis.compare_sweep([3, 0])

    def test_checks_every_level_first(self, monkeypatch):
        def must_not_run(record, ns):
            raise AssertionError("no level may be computed")

        monkeypatch.setattr(series, "evaluate", must_not_run)
        with pytest.raises(ValueError, match="n must be >= 1"):
            analysis.compare_sweep(list(range(1, 50)) + [0])

    @pytest.mark.parametrize("bad", [2 ** 768, 10 ** 240],
                             ids=["2^768", "1e240"])
    def test_checks_the_overflow_ceiling_first(self, monkeypatch, bad):
        def must_not_run(record, ns):
            raise AssertionError("no level may be computed")

        monkeypatch.setattr(series, "evaluate", must_not_run)
        with pytest.raises(ValueError, match="n < 2\\^768"):
            analysis.comparison_table([5, bad, 7])

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(ns=st.lists(st.integers(min_value=1, max_value=10 ** 230),
                       min_size=1, max_size=12))
    @example(ns=[10 ** 9, 10 ** 12, 10 ** 15])
    @example(ns=[1, 2, 3, 10 ** 9 + 1])
    def test_rows_have_the_one_level_bits(self, ns):
        # Every cell equals, bit for bit, the one-level library value or
        # the error formula on those values with Python's pow; numpy's
        # power differs from pow in the last bit at some levels, so a
        # vector pow in the table fails here.  The table's columns, zipped,
        # and compare_sweep's rows are both checked.
        columns, values = analysis.comparison_table(ns)
        assert columns == analysis.ComparisonRow._fields
        assert values[0] == ns
        assert all(c.dtype == np.float64 and c.shape == (len(ns),)
                   for c in values[1:])
        table_rows = list(zip(ns, *(c.tolist() for c in values[1:])))
        sweep_rows = [tuple(r) for r in analysis.compare_sweep(ns)]
        assert len(table_rows) == len(sweep_rows) == len(ns)
        for n, row, swept in zip(ns, table_rows, sweep_rows):
            p = quadrature.tunneling_exact(n).value
            lead = leading_term(n).value
            sec = second_order(n).value
            err_sec = abs(p - sec)
            want = (n, p, lead, sec, abs(p - lead), err_sec,
                    err_sec * float(n) ** (4.0 / 3.0))
            assert list(map(repr, row)) == list(map(repr, want))
            assert list(map(repr, swept)) == list(map(repr, want))


class TestIntegerLevels:
    """Every analysis entry point refuses a level, bound or figure id that
    is not an integer, or is a bool, before any P_n or F_n is computed."""

    @pytest.fixture(autouse=True)
    def forbid_series(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("no level may be computed")

        monkeypatch.setattr(series, "evaluate", must_not_run)
        monkeypatch.setattr(series, "chebyshev_of_s", must_not_run)

    @pytest.mark.parametrize("levels, text", [
        ([5.7], "n must be an integer, got 5.7"),
        (["7"], "n must be an integer, got '7'"),
        ([True], "n must be an integer, got True"),
        ([5, np.bool_(True)], "n must be an integer, got "),
    ])
    def test_comparison_table(self, levels, text):
        with pytest.raises(TypeError) as info:
            analysis.comparison_table(levels)
        assert str(info.value).startswith(text)
        with pytest.raises(TypeError):
            analysis.compare_sweep(levels)

    @pytest.mark.parametrize("bounds", [("3", 4), (3, 4.9), (True, 4),
                                        (3, np.bool_(True)), (3.0, 4)])
    def test_ratio_sweep(self, bounds):
        with pytest.raises(TypeError, match="n must be an integer"):
            analysis.ratio_sweep(*bounds)

    @pytest.mark.parametrize("figure_id", [2.7, "2", True, 5.0])
    def test_figure_dataset(self, figure_id):
        with pytest.raises(TypeError, match="figure id must be an integer"):
            analysis.figure_dataset(figure_id)


class TestLemmaCheck:
    def test_passes_on_reference_grid(self):
        rep = analysis.lemma_check(50.0, 10 ** 4)
        assert rep.passed
        assert rep.grid_size == 10 ** 4
        assert rep.max_violation <= 0.0
        assert abs(rep.endpoint_left - 2.0 ** (-2.0 / 3.0)) <= 1e-8
        assert rep.endpoint_decay < 0.07

    def test_decay_shrinks_with_domain(self):
        a = analysis.lemma_check(50.0, 2000)
        b = analysis.lemma_check(100.0, 2000)
        assert b.endpoint_decay < a.endpoint_decay

    def test_huge_x_raises_no_warning(self):
        # The small-e series only sees e up to its seam, so it cannot
        # overflow where the direct branch is used.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < f_of_x(1e39) < 1e-26
            assert zeta_of_x(1e39) > 0.0
            assert analysis.lemma_check(1e40, 10000).passed

    @pytest.mark.parametrize("x_max", [1.0 + 5e-10, 1.0000000001,
                                       1.0 + 1e-12, 1.0 + 2.0 ** -52])
    def test_grid_inside_a_narrow_domain(self, x_max):
        # x_max - 1 below the grid's usual start 1e-9: the grid still lies
        # inside (1, x_max] and increases, so f is seen to decrease.
        rep = analysis.lemma_check(x_max, 100)
        assert rep.passed
        assert rep.max_violation <= 0.0
        assert rep.endpoint_decay == f_of_x(x_max)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            analysis.lemma_check(50.0, 99)
        with pytest.raises(ValueError):
            analysis.lemma_check(1.0, 1000)


class TestRatioSweep:
    def test_small_window(self):
        pairs = analysis.ratio_sweep(6, 12)
        assert [n for n, _ in pairs] == list(range(6, 13))
        assert all(r > 1.0 for _, r in pairs)
        rs = [r for _, r in pairs]
        assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_correction_scale_stable(self):
        scaled = [(analysis.ratio_sweep(n, n)[0][1] - 1.0) * n ** (2.0 / 3.0)
                  for n in (64, 216, 512)]
        mid = sorted(scaled)[1]
        assert all(abs(s - mid) <= 0.15 * mid for s in scaled)

    def test_sweep_is_the_table_rows(self):
        columns, (ns, ratios) = analysis.ratio_table(range(6, 40))
        assert columns == ("n", "ratio")
        rows = analysis.ratio_sweep(6, 39)
        assert rows == list(zip(ns, ratios.tolist()))
        assert all(type(n) is int and type(r) is float for n, r in rows)

    def test_table_has_one_level_bits(self):
        ns = [500, 6, 10 ** 6, 37, 6]
        columns, (got_ns, ratios) = analysis.ratio_table(ns)
        assert ratios.dtype == np.float64
        assert list(zip(got_ns, ratios.tolist())) == [
            (n, F_INFINITY / big_f_n(n)) for n in ns]
        empty_columns, (empty_ns, empty) = analysis.ratio_table([])
        assert (empty_columns, empty_ns, empty.size) == (columns, [], 0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            analysis.ratio_sweep(0, 5)
        with pytest.raises(ValueError):
            analysis.ratio_sweep(7, 5)


class TestFigureDatasets:
    def test_rejects_unknown_id(self):
        for bad in (0, 6, -1):
            with pytest.raises(ValueError):
                analysis.figure_dataset(bad)

    def test_density_figure(self):
        data = analysis.figure_dataset(1)
        assert data.columns == ("series", "x", "y")
        rows = list(zip(*data.values))
        classical = [(x, y) for s, x, y in rows if s == "classical"]
        at_zero = [y for x, y in classical if x == 0.0]
        assert len(at_zero) == 1
        assert abs(at_zero[0] - 1.0 / math.pi) < 1e-14
        assert all(abs(x) < 1.0 for x, _ in classical)
        tunneling = [(x, y) for s, x, y in rows if s == "tunneling"]
        assert len(tunneling) == 41
        probs = [y for _, y in tunneling]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_density_normalizes(self):
        # The rescaled density nu * psi_40(nu u)^2 must integrate to 1; mass
        # beyond |u| = 1.6 is far below the tolerance.
        nu = math.sqrt(81.0)
        cfg = QuadratureConfig(max_subdivisions=4000)
        val, _ = integrate_finite(
            lambda u: nu * hermite_psi_squared(40, nu * u), -1.6, 1.6, cfg,
            breakpoints=[-1.0, 0.0, 1.0])
        assert abs(val - 1.0) < 1e-6

    def test_map_figure(self):
        data = analysis.figure_dataset(3)
        assert data.columns == ("x", "zeta")
        rows = list(zip(*data.values))
        assert rows[0] == (1.0, 0.0)
        assert len(rows) == 401
        zs = [z for _, z in rows]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_ratio_figure_row_count(self):
        data = analysis.figure_dataset(4)
        assert data.columns == ("n", "ratio")
        rows = list(zip(*data.values))
        assert len(rows) == 495
        assert rows[0][0] == 6
        assert rows[-1][0] == 500

    def test_comparison_figures(self):
        data = analysis.figure_dataset(5)
        rows = list(zip(*data.values))
        assert len(rows) == 100
        ns = [row[0] for row in rows]
        assert ns[0] == 513 and ns[-1] == 612
        for row in rows:
            assert row[5] < row[4]  # err_second below err_leading
