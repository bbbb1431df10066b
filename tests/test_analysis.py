"""Sweeps, the monotonicity report, and figure datasets."""

import math
import warnings

import numpy as np
import pytest

from osctun import analysis
from osctun.asymptotics import F_INFINITY, big_f_n, f_of_x, zeta_of_x
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
        def must_not_run(ns):
            raise AssertionError("no level may be computed")

        monkeypatch.setattr(analysis, "tunneling_exact_values", must_not_run)
        with pytest.raises(ValueError, match="comparison requires n >= 1, "
                                             "got 0"):
            analysis.compare_sweep(list(range(1, 50)) + [0])


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
            assert zeta_of_x(1e39).regime == "direct"
            assert analysis.lemma_check(1e40, 10000).passed

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
        columns, rows = analysis.ratio_table(range(6, 40))
        assert columns == ("n", "ratio")
        assert analysis.ratio_sweep(6, 39) == rows
        assert all(type(n) is int and type(r) is float for n, r in rows)

    def test_table_has_one_level_bits(self):
        ns = [500, 6, 10 ** 6, 37, 6]
        columns, rows = analysis.ratio_table(ns)
        assert rows == [(n, F_INFINITY / big_f_n(n)) for n in ns]
        assert analysis.ratio_table([]) == (columns, [])

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
        classical = [(x, y) for s, x, y in data.rows if s == "classical"]
        at_zero = [y for x, y in classical if x == 0.0]
        assert len(at_zero) == 1
        assert abs(at_zero[0] - 1.0 / math.pi) < 1e-14
        assert all(abs(x) < 1.0 for x, _ in classical)
        tunneling = [(x, y) for s, x, y in data.rows if s == "tunneling"]
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
        assert data.rows[0] == (1.0, 0.0)
        assert len(data.rows) == 401
        zs = [z for _, z in data.rows]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_ratio_figure_row_count(self):
        data = analysis.figure_dataset(4)
        assert data.columns == ("n", "ratio")
        assert len(data.rows) == 495
        assert data.rows[0][0] == 6
        assert data.rows[-1][0] == 500

    def test_comparison_figures(self):
        data = analysis.figure_dataset(5)
        assert len(data.rows) == 100
        ns = [row[0] for row in data.rows]
        assert ns[0] == 513 and ns[-1] == 612
        for row in data.rows:
            assert row[5] < row[4]  # err_second below err_leading
