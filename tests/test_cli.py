"""Command-line surface: formats, determinism, exit codes, artifacts."""

import argparse
import hashlib
import math
import os
import resource
import shlex
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from osctun import analysis, cli, series
from osctun.asymptotics import leading_term, second_order
from osctun.cli import _build_parser, _fmt, main


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# The first level whose 2n+1 = 2^1024 - 2^970 + 1 rounds past the largest
# double (ties go to even, here infinity).
_FIRST_LEVEL_PAST_DOUBLE = 2 ** 1023 - 2 ** 969


def _forbid_p_sweeps(monkeypatch):
    def must_not_run(record, ns):
        raise AssertionError("no level may be computed")

    # Every P_n of the CLI comes from the one series evaluator.
    monkeypatch.setattr(series, "evaluate", must_not_run)


class TestGoldenRows:
    def test_exact_ground_state(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--n", "0"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n,p_exact,err_estimate"
        assert lines[1].startswith("0,0.157299207050,")

    def test_exact_first_level(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--n", "1"])
        assert code == 0
        assert out.splitlines()[1].startswith("1,0.1116")

    def test_exact_range_ordering(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--n-range", "5:7"])
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "6", "7"]

    def test_asympt_orders(self, capsys):
        code, out, _ = run_cli(capsys, ["asympt", "--order", "1", "--n", "1"])
        assert code == 0
        assert out.splitlines()[1] == "1,0.133974967559"
        code, out, _ = run_cli(capsys, ["asympt", "--order", "2", "--n", "1"])
        assert code == 0
        assert out.splitlines()[1] == "1,0.121723214328"
        code, out, _ = run_cli(capsys,
                               ["asympt", "--order", "1", "--n", "1000"])
        assert out.splitlines()[1].startswith("1000,0.0133974967")

    @pytest.mark.parametrize("order, term", [(1, leading_term),
                                             (2, second_order)])
    @pytest.mark.parametrize("levels, ns", [
        (["--n-range", "1:2000"], list(range(1, 2001))),
        (["--n", str(10 ** 300)], [10 ** 300]),
        (["--n", str(_FIRST_LEVEL_PAST_DOUBLE - 1)],
         [_FIRST_LEVEL_PAST_DOUBLE - 1]),
    ], ids=["1:2000", "1e300", "largest"])
    def test_asympt_rows_are_the_library_values(self, capsys, monkeypatch,
                                                order, term, levels, ns):
        # The columns, before formatting, carry the bits of leading_term
        # and second_order: both take their values from one formula.
        seen = []

        def keep(header, columns, head=True):
            seen.extend(zip(columns[0], columns[1].tolist()))
            return ""

        monkeypatch.setattr(cli, "_csv_columns", keep)
        code, _, _ = run_cli(capsys, ["asympt", "--order", str(order)]
                             + levels)
        assert code == 0
        assert [(n, repr(v)) for n, v in seen] == [
            (n, repr(term(n).value)) for n in ns]

    def test_lemma_report(self, capsys):
        code, out, _ = run_cli(capsys, ["lemma"])
        assert code == 0
        assert "passed: true" in out
        assert "endpoint_left: 0.629960524947" in out

    def test_lemma_header_has_no_bare_dot(self, capsys):
        code, out, _ = run_cli(capsys, ["lemma", "--x-max", "123456789012.5",
                                        "--grid", "100"])
        assert code == 0
        assert out.splitlines()[0].endswith("on (1, 1.23456789012e+11]")

    def test_fn_ratios(self, capsys):
        code, out, _ = run_cli(capsys, ["fn", "--n-range", "6:8"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n,ratio"
        assert len(lines) == 4
        assert all(float(ln.split(",")[1]) > 1.0 for ln in lines[1:])

    def test_compare_columns(self, capsys):
        code, out, _ = run_cli(capsys, ["compare", "--n-range", "5:6"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == ("n,p_exact,p_leading,p_second,"
                            "err_leading,err_second,scaled_err_second")
        assert len(lines) == 3

    def test_fig3_first_row(self, capsys):
        code, out, _ = run_cli(capsys, ["fig", "--id", "3"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "x,zeta"
        assert lines[1] == "1,0"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["exact"],
        ["exact", "--n", "2", "--n-range", "3:4"],
        ["exact", "--n-range", "7:5"],
        ["exact", "--n-range", "1:x"],
        ["exact", "--n-range", "1:5:0"],
        ["exact", "--n", "-2"],
        ["asympt", "--order", "3", "--n", "1"],
        ["asympt", "--order", "1", "--n", "0"],
        ["compare", "--n-range", "0:4"],
        ["fig", "--id", "9"],
        ["fig", "--id", "1", "--emit-plot-script"],
        ["nonsense"],
        ["fn", "--n-range", "0:5"],
        ["exact", "--n", "x"],
        ["exact", "--n-range", "5"],
    ])
    def test_exit_two(self, capsys, argv):
        code, _, _ = run_cli(capsys, argv)
        assert code == 2

    def test_unwritable_out(self, capsys):
        code, _, err = run_cli(capsys, ["exact", "--n", "0", "--out",
                                        "/nonexistent-dir/x.csv"])
        assert code == 2
        assert "cannot open" in err

    def test_usage_error_keeps_existing_file(self, tmp_path, capsys):
        out = tmp_path / "precious.csv"
        out.write_text("keep me\n")
        code, _, _ = run_cli(capsys, ["fig", "--id", "9", "--out", str(out)])
        assert code == 2
        assert out.read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["precious.csv"]

    def test_out_is_directory(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["exact", "--n", "0",
                                        "--out", str(tmp_path)])
        assert code == 2
        assert "cannot" in err
        assert os.listdir(tmp_path) == []

    def test_bad_tolerance(self, capsys):
        code, _, _ = run_cli(capsys, ["exact", "--n", "0", "--rel-tol", "-1"])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--rel-tol", "-1"],
                                      ["--abs-tol", "nan"]])
    @pytest.mark.parametrize("argv", [
        ["exact", "--n", "0"],
        ["asympt", "--order", "1", "--n", "5"],
        ["compare", "--n-range", "5:6"],
        ["fn", "--n-range", "6:6"],
        ["lemma"],
        ["fig", "--id", "3"],
    ])
    def test_bad_tolerance_every_subcommand(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, argv + flag)
        assert code == 2
        assert out == ""
        assert "must be positive and finite" in err

    @pytest.mark.parametrize("argv", [
        ["exact", "--n", str(10 ** 400)],
        ["exact", "--n-range", "%d:%d" % (10 ** 400, 10 ** 400)],
        ["asympt", "--order", "2", "--n", str(10 ** 400)],
        ["compare", "--n-range", "1:%d" % 10 ** 400],
        ["fn", "--n-range", "%d:%d" % (10 ** 400, 10 ** 400)],
    ])
    def test_level_too_large_for_a_double(self, capsys, argv):
        # 2n+1 must fit a double; the compare range is refused before its
        # levels are listed.
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "2n+1 must fit a double" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["fn", "--n-range", "1:10000000000000000000"],
        ["fn", "--n-range", "1:1000001"],
        ["exact", "--n-range", "0:2000000:2"],
    ])
    def test_range_with_too_many_levels(self, capsys, argv):
        # The level count is checked before any list is built; 10^6 levels
        # is the most a range may hold.
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "range lists more than 1000000 levels" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["exact", "--n", str(_FIRST_LEVEL_PAST_DOUBLE)],
        ["exact", "--n-range", "%d:%d" % (_FIRST_LEVEL_PAST_DOUBLE - 1,
                                          _FIRST_LEVEL_PAST_DOUBLE)],
        ["compare", "--n-range", "%d:%d" % (_FIRST_LEVEL_PAST_DOUBLE - 1,
                                            _FIRST_LEVEL_PAST_DOUBLE)],
    ])
    def test_exact_level_above_ceiling(self, capsys, monkeypatch, argv):
        # P_n costs O(1) at any level, so exact and compare stop only at the
        # first level whose 2n+1 rounds past the largest double, before any
        # P_n is computed.
        _forbid_p_sweeps(monkeypatch)
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "2n+1 must fit a double" in err

    def test_level_below_ceiling_runs(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--n",
                                        str(_FIRST_LEVEL_PAST_DOUBLE - 1)])
        assert code == 0
        assert out.splitlines()[1].endswith(",2.99085348960e-104,"
                                            "2.65641152595e-119")

    @pytest.mark.parametrize("levels", [
        "%d:%d" % (10 ** 240, 10 ** 240),
        "%d:%d" % (2 ** 768, 2 ** 768),
        "%d:%d" % (2 ** 768 - 5, 2 ** 768),
    ], ids=["1e240", "2^768", "range-ending-at-2^768"])
    def test_compare_level_above_ceiling(self, capsys, monkeypatch, levels):
        # scaled_err_second needs n^(4/3), which overflows a double from
        # n = 2^768 on; such a level is a usage error, refused before any
        # P_n is computed.
        _forbid_p_sweeps(monkeypatch)
        code, out, err = run_cli(capsys, ["compare", "--n-range", levels])
        assert code == 2
        assert out == ""
        assert "compare requires 1 <= n < 2^768" in err
        assert "Traceback" not in err

    def test_compare_below_ceiling_runs(self, capsys):
        n = 2 ** 768 - 1
        code, out, _ = run_cli(capsys, ["compare", "--n-range",
                                        "%d:%d" % (n, n)])
        assert code == 0
        cells = out.splitlines()[1].split(",")
        assert cells[0] == str(n)
        assert all(math.isfinite(float(c)) for c in cells[1:])

    @pytest.mark.parametrize("argv", [
        ["exact", "--n-range", "0:1000000"],
        ["compare", "--n-range", "1:1000001"],
    ])
    def test_exact_work_above_ceiling(self, capsys, monkeypatch, argv):
        # Each level costs O(1), so a sweep's work is bounded by its level
        # count: a range of 10^6 + 1 levels is refused before any P_n is
        # computed.
        _forbid_p_sweeps(monkeypatch)
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "range lists more than 1000000 levels" in err

    @pytest.mark.parametrize("flag", [
        ["--x-max", "inf"],
        ["--x-max", "1e200"],
        ["--x-max", "1.0000001e30"],
        ["--x-max", "nan"],
        ["--x-max", "1"],
        ["--grid", "1000001"],
        ["--grid", str(10 ** 12)],
        ["--grid", "99"],
    ], ids=["x-inf", "x-1e200", "x-above-1e30", "x-nan", "x-1", "grid-1e6+1",
            "grid-1e12", "grid-99"])
    def test_lemma_bounds(self, capsys, monkeypatch, flag):
        # Refused before the grid is built: inf used to be exit 3 with a
        # false message, 1e200 printed nan, and any --grid was allocated.
        def must_not_run(*args):
            raise AssertionError("lemma_check may not run")

        monkeypatch.setattr(analysis, "lemma_check", must_not_run)
        code, out, err = run_cli(capsys, ["lemma"] + flag)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --")
        assert "Traceback" not in err

    def test_lemma_largest_x_max(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, ["lemma", "--x-max", "1e30"])
        assert code == 0
        assert "passed: true" in out

    def test_largest_exact_level(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--n", "1000000"])
        assert code == 0
        assert out.splitlines()[1].startswith("1000000,")

    def test_huge_exact_level_is_quick(self, capsys):
        # P_n costs O(1) at any level, so no level ceiling is needed.
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["exact", "--n", "1000000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines()[1].startswith("1000000000000,1.33974967437e-05,")

    def test_million_level_sweep_matches_single_levels(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--n-range",
                                        "1:1000000:1000"])
        assert code == 0
        head, *rows = out.splitlines()
        assert len(rows) == 1000
        for row in rows:
            n = row.split(",")[0]
            code, one, _ = run_cli(capsys, ["exact", "--n", n])
            assert code == 0
            assert one.splitlines() == [head, row]

    def test_plot_script_path_is_directory(self, tmp_path, capsys):
        # The script's target cannot be written, so neither file is
        # replaced and no temp file is left behind.
        (tmp_path / "f.gnuplot").mkdir()
        out = tmp_path / "f.csv"
        out.write_text("keep me\n")
        code, _, err = run_cli(capsys, ["fig", "--id", "3", "--out", str(out),
                                        "--emit-plot-script"])
        assert code == 2
        assert "cannot open" in err
        assert "Traceback" not in err
        assert out.read_text() == "keep me\n"
        assert sorted(os.listdir(tmp_path)) == ["f.csv", "f.gnuplot"]
        assert os.listdir(tmp_path / "f.gnuplot") == []


class TestNumericalFailure:
    def test_exit_three_and_no_partial_file(self, tmp_path, capsys,
                                            monkeypatch):
        def boom(record, ns):
            raise ValueError("stalled")

        monkeypatch.setattr(series, "evaluate", boom)
        out = tmp_path / "p.csv"
        code, _, err = run_cli(capsys,
                               ["exact", "--n", "0", "--out", str(out)])
        assert code == 3
        assert "numerical failure" in err
        assert not out.exists()

    def test_numeric_failure_keeps_existing_file(self, tmp_path, capsys,
                                                 monkeypatch):
        def boom(record, ns):
            raise ValueError("stalled")

        monkeypatch.setattr(series, "evaluate", boom)
        out = tmp_path / "precious.csv"
        out.write_text("keep me\n")
        code, _, _ = run_cli(capsys, ["exact", "--n", "0", "--out", str(out)])
        assert code == 3
        assert out.read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["precious.csv"]

    def test_unreachable_tolerance_still_completes(self, capsys):
        # A tolerance beyond float64 is valid input.  No subcommand runs
        # the adaptive engine: exact and fn validate the tolerances and
        # compute without quadrature, so both still complete.
        code, out, _ = run_cli(capsys, [
            "exact", "--n", "0", "--rel-tol", "1e-30", "--abs-tol", "1e-300"])
        assert code == 0
        assert out.splitlines()[1].startswith("0,0.1572992070")
        code, out, _ = run_cli(capsys, [
            "fn", "--n-range", "6:6", "--rel-tol", "1e-30",
            "--abs-tol", "1e-300"])
        assert code == 0
        assert out.splitlines()[1] == "6,1.02526589507"

    def test_lemma_failure_exit(self, capsys, monkeypatch):
        fake = analysis.LemmaReport(grid_size=100, max_violation=1e-3,
                                    endpoint_left=0.6, endpoint_decay=0.1,
                                    passed=False)
        monkeypatch.setattr(analysis, "lemma_check", lambda *a: fake)
        code, out, _ = run_cli(capsys, ["lemma"])
        assert code == 3
        assert "passed: false" in out


class TestOutputPlumbing:
    def test_stdout_and_file_agree(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, ["exact", "--n-range", "0:3"])
        assert code == 0
        code2 = main(["exact", "--n-range", "0:3", "--out", str(path)])
        capsys.readouterr()
        assert code2 == 0
        assert path.read_text() == out

    def test_success_keeps_file_modes(self, tmp_path, capsys):
        # A new file gets the umask default, a replaced one keeps its mode.
        new = tmp_path / "new.csv"
        old = tmp_path / "old.csv"
        old.write_text("old\n")
        old.chmod(0o600)
        for out in (new, old):
            assert main(["exact", "--n", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert old.read_text().startswith("n,p_exact,err_estimate\n")
        assert sorted(os.listdir(tmp_path)) == ["new.csv", "old.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert new.stat().st_mode & 0o777 == 0o666 & ~umask
        assert old.stat().st_mode & 0o777 == 0o600

    def test_write_through_symlink(self, tmp_path, capsys):
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        assert main(["exact", "--n", "0", "--out", str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink()
        assert real.read_text().startswith("n,p_exact,err_estimate\n")

    @pytest.mark.parametrize("through_link", [False, True],
                             ids=["fifo", "symlink-to-fifo"])
    def test_fifo_is_written_in_place(self, tmp_path, capsys, through_link):
        # A device, FIFO or socket cannot be replaced without destroying it,
        # so the text goes through it, and the node stays what it was.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        out = fifo
        if through_link:
            out = tmp_path / "link"
            out.symlink_to(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        code = main(["exact", "--n-range", "0:3", "--out", str(out)])
        reader.join(10)
        _, want, _ = run_cli(capsys, ["exact", "--n-range", "0:3"])
        assert code == 0
        assert got == [want]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert out.is_symlink() == through_link
        assert sorted(os.listdir(tmp_path)) == sorted({"pipe", out.name})

    def test_no_temp_file_while_computing(self, tmp_path, capsys,
                                          monkeypatch):
        # The temp file exists only while finished text is written, so a
        # process killed during the computation leaves nothing behind.
        seen = []
        real = series.evaluate

        def listing(record, ns):
            seen.append(os.listdir(tmp_path))
            return real(record, ns)

        monkeypatch.setattr(series, "evaluate", listing)
        out = tmp_path / "p.csv"
        assert main(["exact", "--n-range", "0:3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert seen == [[]]
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_staged_file_is_never_wider_than_the_target(self, tmp_path,
                                                        capsys, monkeypatch):
        # Even with no umask to narrow it, the staged file is made with no
        # permission bit the 0o600 target lacks, and the target keeps its
        # mode once replaced.
        made = []
        real = os.fdopen

        def noting_mode(fd, *args, **kwargs):
            made.append(stat.S_IMODE(os.fstat(fd).st_mode))
            return real(fd, *args, **kwargs)

        out = tmp_path / "p.csv"
        out.write_text("old\n")
        out.chmod(0o600)
        monkeypatch.setattr(os, "fdopen", noting_mode)
        umask = os.umask(0)
        try:
            code = main(["exact", "--n", "0", "--out", str(out)])
        finally:
            os.umask(umask)
        capsys.readouterr()
        assert code == 0
        assert len(made) == 1
        assert made[0] & ~0o600 == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_signal_as_the_temp_file_is_made(self, tmp_path, capsys,
                                             monkeypatch):
        # SIGTERM, which entry() turns into SystemExit(143), lands the
        # moment the staged file exists: it is removed all the same.
        real = os.open

        def open_then_stop(path, flags, *args, **kwargs):
            fd = real(path, flags, *args, **kwargs)
            if os.fspath(path).endswith(".tmp"):
                os.close(fd)
                raise SystemExit(143)
            return fd

        out = tmp_path / "p.csv"
        out.write_text("keep me\n")
        monkeypatch.setattr(os, "open", open_then_stop)
        with pytest.raises(SystemExit) as stopped:
            main(["exact", "--n-range", "0:3", "--out", str(out)])
        monkeypatch.undo()
        assert stopped.value.code == 143
        assert os.listdir(tmp_path) == ["p.csv"]
        assert out.read_text() == "keep me\n"

    def test_taken_temp_name_is_left_alone(self, tmp_path, capsys,
                                           monkeypatch):
        # With its random part fixed, a first run shows the staged name.  A
        # file that already holds that name is not this run's: the second
        # run cannot make its staged file (exit 2) and keeps that file.
        made = []
        real = os.open

        def noting_name(path, *args, **kwargs):
            made.append(os.fspath(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "urandom", lambda k: bytes(k))
        monkeypatch.setattr(os, "open", noting_name)
        out = tmp_path / "p.csv"
        argv = ["exact", "--n", "0", "--out", str(out)]
        assert run_cli(capsys, argv)[0] == 0
        (taken,) = [path for path in made if path.endswith(".tmp")]
        out.write_text("keep me\n")
        with open(taken, "w") as fh:
            fh.write("not ours\n")
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "cannot open" in err
        with open(taken) as fh:
            assert fh.read() == "not ours\n"
        assert out.read_text() == "keep me\n"

    @pytest.mark.parametrize("n", ["0", "1", "612"])
    def test_single_level_matches_range(self, capsys, n):
        code, one, _ = run_cli(capsys, ["exact", "--n", n])
        assert code == 0
        code, ranged, _ = run_cli(capsys, ["exact", "--n-range", n + ":" + n])
        assert code == 0
        assert one == ranged

    @pytest.mark.parametrize("fig_id, argv", [
        (2, ["compare", "--n-range", "5:612"]),
        (4, ["fn", "--n-range", "6:500"]),
        (5, ["compare", "--n-range", "513:612"]),
    ])
    def test_figure_is_its_sweep(self, capsys, fig_id, argv):
        # One builder and one writer per table: a figure's CSV is the
        # sweep's over the same levels.
        code, fig, _ = run_cli(capsys, ["fig", "--id", str(fig_id)])
        assert code == 0
        code, sweep, _ = run_cli(capsys, argv)
        assert code == 0
        assert fig == sweep

    def test_byte_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["compare", "--n-range", "5:8",
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_plot_script_emission(self, tmp_path, capsys):
        csv = tmp_path / "fig4.csv"
        code = main(["fig", "--id", "4", "--out", str(csv),
                     "--emit-plot-script"])
        capsys.readouterr()
        assert code == 0
        script = tmp_path / "fig4.gnuplot"
        assert script.exists()
        text = script.read_text()
        assert "fig4.csv" in text
        assert str(tmp_path) not in text  # relative reference only
        assert csv.exists()
        assert len(csv.read_text().splitlines()) == 496

    def test_twelve_digit_column(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--n", "0"])
        p = out.splitlines()[1].split(",")[1]
        assert p == "0.157299207050"
        assert abs(float(p) - math.erfc(1.0)) < 1e-12


class TestRepeatedCalls:
    def test_parser_built_once(self, capsys, monkeypatch):
        assert _build_parser() is _build_parser()
        assert main(["asympt", "--order", "1", "--n", "1"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        for argv in (["exact", "--n", "3"], ["fn", "--n-range", "6:8"],
                     ["lemma"], ["fig", "--id", "3"],
                     ["compare", "--n-range", "5:6"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert built == []

    def test_handlers_see_patched_names(self, capsys, monkeypatch):
        # The cached parser holds the handlers, which look the library
        # functions up when they run.
        assert main(["exact", "--n", "0"]) == 0

        def boom(record, ns):
            raise ValueError("stalled")

        monkeypatch.setattr(series, "evaluate", boom)
        code, _, err = run_cli(capsys, ["exact", "--n", "0"])
        assert code == 3
        assert "stalled" in err

    def test_mixed_sequence_matches_first_calls(self, tmp_path, capsys,
                                                monkeypatch):
        # Each call, made after the others in one process, gives the bytes
        # and exit code it gives as a process's first call, which builds
        # its own parser; no flag of an earlier call carries over.
        import osctun.cli as climod
        sequence = [
            ["exact", "--n", "612"],
            ["fn", "--n-range", "6:500:7"],
            ["fig", "--id", "3", "--emit-plot-script", "--out", "F.csv",
             "--bogus"],
            ["fig", "--id", "3", "--emit-plot-script", "--out", "F.csv"],
            ["compare", "--n-range", "513:612"],
            ["fig", "--id", "3", "--out", "G.csv"],
        ]

        def call(argv, where):
            argv = [str(where / a) if a.endswith(".csv") else a
                    for a in argv]
            before = {p.name: p.read_bytes() for p in where.iterdir()}
            code, out, err = run_cli(capsys, argv)
            after = {p.name: p.read_bytes() for p in where.iterdir()}
            written = {k: v for k, v in after.items() if before.get(k) != v}
            return code, out, err, written

        seq_dir = tmp_path / "sequence"
        seq_dir.mkdir()
        in_sequence = [call(argv, seq_dir) for argv in sequence]

        monkeypatch.setattr(climod, "_build_parser", _build_parser.__wrapped__)
        first = []
        for i, argv in enumerate(sequence):
            where = tmp_path / ("first%d" % i)
            where.mkdir()
            first.append(call(argv, where))

        assert [c[0] for c in first] == [0, 0, 2, 0, 0, 0]
        assert in_sequence == first
        assert sorted(os.listdir(seq_dir)) == ["F.csv", "F.gnuplot", "G.csv"]


def dragon4_fmt(v):
    """Reference cell formatter: every float goes through numpy's Dragon4.

    This is the formatter the CSV used before the 12-digit rule.  Where its
    digits end early (a short value, or a carry), it pads with zeros until
    12 digits are printed, counting the zeros before the first significant
    one: 0.25 prints 0.25000000000.  Every _fmt cell is the same number.
    """
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    if 1e-4 <= abs(v) < 1e11:
        s = np.format_float_positional(v, precision=12, unique=False,
                                       fractional=False)
        if s[-1] != ".":
            return s
    return np.format_float_scientific(v, precision=11, unique=False)


def assert_cell_rule(v, text):
    """text is _fmt(v) by the 12-digit rule, and the number dragon4_fmt
    prints: a bare integer, nan or inf, %.11e once the 12-digit rounding
    reaches 1e11, else %#.12g; those two show exactly 12 significant digits.
    """
    ref = dragon4_fmt(v)
    if isinstance(v, (int, np.integer)):
        assert text == ref == str(int(v))
        return
    v = float(v)
    if not math.isfinite(v) or (v == int(v) and abs(v) < 1e15):
        assert text == ref
        assert text in ("nan", "inf", "-inf") or text == str(int(v))
        return
    assert Decimal(text) == Decimal(ref), (v, text, ref)
    mantissa = text.lstrip("-").split("e")[0]
    assert len(mantissa.replace(".", "").lstrip("0")) == 12, (v, text)
    if abs(Decimal(text)) >= Decimal("1e11"):
        assert text == "%.11e" % v
    else:
        assert text == "%#.12g" % v


def _neighbours(base, ulps=64, steps=30):
    """Doubles around base: each ulp step, and relative steps of 1e-13."""
    out = [base]
    up = down = base
    for _ in range(ulps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
        out += [up, down]
    out += [base * (1.0 + j * 1e-13) for j in range(-steps, steps + 1)]
    return out + [-v for v in out]


def per_cell_csv(columns, rows):
    return "".join(",".join(map(_fmt, r)) + "\n"
                   for r in [columns] + list(rows))


class TestCellFormat:
    # Dragon4's text for each value, then _fmt's where the two differ:
    # where Dragon4's 12 digits end early, because the value is short
    # (0.25) or a carry ends them (0.15), %#.12g keeps 12 significant
    # digits.  Both are the same number.
    _PADDED = {
        0.15: "0.150000000000",
        0.00015: "0.000150000000000",
        0.025365375652972085: "0.0253653756530",
        0.25: "0.250000000000",
        0.125: "0.125000000000",
        0.0012: "0.00120000000000",
    }

    @pytest.mark.parametrize("value, text", [
        (0.15, "0.15000000000"),
        (0.00015, "0.00015000000"),
        (0.025365375652972085, "0.025365375653"),
        (99.8173134319568, "99.8173134320"),
        (1.5e-05, "1.50000000000e-05"),
        (-1.5e-07, "-1.50000000000e-07"),
        (0.25, "0.25000000000"),
        (0.125, "0.12500000000"),
        (0.0012, "0.00120000000"),
        (1234.5, "1234.50000000"),
        (0.1, "0.100000000000"),
        (821 / 8192, "0.100219726562"),
        # A non-integer from 1e11 up, or an integer from 1e15 up, prints in
        # scientific form, so no cell ends in a bare dot.
        (123456789012.5, "1.23456789012e+11"),
        (1e15, "1.00000000000e+15"),
        (2e15, "2.00000000000e+15"),
        (9.99999999999995e15, "1.00000000000e+16"),
        (99999999999.5, "99999999999.5"),
        (99999999999.97, "1.00000000000e+11"),
        (2e11, "200000000000"),
    ])
    def test_fmt_cells(self, value, text):
        assert dragon4_fmt(value) == text
        assert _fmt(value) == self._PADDED.get(value, text)
        assert_cell_rule(value, _fmt(value))

    def test_matches_dragon4_on_sampled_doubles(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2 ** 64, 12000, dtype=np.uint64)
        subnormal = rng.integers(1, 2 ** 52, 1000, dtype=np.uint64)
        log_uniform = 10.0 ** rng.uniform(-6.0, 17.0, 12000)
        sign = rng.choice([-1.0, 1.0], log_uniform.size)
        values = np.concatenate([
            bits.view(np.float64), subnormal.view(np.float64),
            -subnormal.view(np.float64), sign * log_uniform,
            [math.nan, math.inf, -math.inf, 0.0, -0.0]])
        assert values.size >= 20000
        for v in values.tolist():
            assert_cell_rule(v, _fmt(v))
        for v in values[::7]:
            assert type(v) is np.float64
            assert _fmt(v) == _fmt(float(v))

    def test_matches_dragon4_on_ints(self):
        ints = [0, 1, -1, 612, 10 ** 15, -(10 ** 17), 2 ** 64, 10 ** 400]
        for v in ints + [np.int64(-7), np.uint64(2 ** 63), np.int32(40)]:
            assert _fmt(v) == dragon4_fmt(v) == str(int(v))

    @pytest.mark.parametrize("denominator", [8192, 16384])
    def test_matches_dragon4_on_binary_ties(self, denominator):
        # k/8192 and k/16384 have 13 or 14 significant decimals, so many of
        # them are exact ties at 12 digits.
        for k in range(1, 2 * denominator):
            v = k / denominator
            assert_cell_rule(v, _fmt(v))
            assert_cell_rule(-v, _fmt(-v))

    @pytest.mark.parametrize("base", [1e-4, 1e11, 1e12, 1e15, 1e16])
    def test_matches_dragon4_at_switch_points(self, base):
        for v in _neighbours(base):
            assert_cell_rule(v, _fmt(v))

    @pytest.mark.parametrize("argv", [
        ["fig", "--id", "2"],
        ["fig", "--id", "5"],
        ["fn", "--n-range", "6:500"],
    ], ids=["fig2", "fig5", "fn"])
    def test_no_row_leaves_the_template(self, capsys, monkeypatch, argv):
        # A row that leaves the table's %-template is joined by _fmt cell
        # by cell: same bytes, less speed.  Count those cells instead of
        # timing them; none of these tables has such a row.
        calls = []
        real = cli._fmt

        def counted(v):
            calls.append(v)
            return real(v)

        monkeypatch.setattr(cli, "_fmt", counted)
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(out.splitlines()) > 100
        assert calls == []


class TestBlockWriter:
    _SPECIAL = [0.0, -0.0, 1e11, math.nextafter(1e11, 0.0),
                math.nextafter(1e11, math.inf), 99999999999.95,
                99999999999.9, 1e15, -1e15, 2e11, math.nan, math.inf,
                -math.inf, 5e-324, 2.2250738585072014e-308, 1e-4,
                math.nextafter(1e-4, 0.0), 9.99999999999995e-05, 1.0,
                -3.0, 1e300]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_per_cell_fmt(self, data):
        floats = st.one_of(st.sampled_from(self._SPECIAL),
                           st.floats(allow_nan=True, allow_infinity=True),
                           st.floats(-1e12, 1e12))
        kinds = {"float": floats,
                 "int": st.integers(-2 ** 1023, 2 ** 1023),
                 "str": st.text(max_size=6),
                 "mixed": st.one_of(floats, st.integers(-10 ** 20, 10 ** 20),
                                    st.just("a%s"))}
        names = data.draw(st.lists(st.sampled_from(sorted(kinds)),
                                   min_size=1, max_size=6))
        rows = data.draw(st.lists(st.tuples(*(kinds[k] for k in names)),
                                  max_size=30))
        header = tuple("c%d" % j for j in range(len(names)))
        want = per_cell_csv(header, rows)
        assert cli._csv_columns(header, list(zip(*rows))) == want
        # Float columns may also come as arrays, as the sweeps pass them.
        columns = [np.array(c, dtype=np.float64) if k == "float" else list(c)
                   for k, c in zip(names, zip(*rows))] if rows else []
        assert cli._csv_columns(header, columns) == want

    @pytest.mark.parametrize("argv", [
        ["exact", "--n-range", "0:1000"],
        ["exact", "--n-range", "3:2000:7"],
        ["compare", "--n-range", "1:700"],
        ["fn", "--n-range", "1:600"],
        ["asympt", "--order", "2", "--n-range", "1:500"],
    ])
    def test_blocks_give_the_bytes_of_one_block(self, capsys, monkeypatch,
                                                tmp_path, argv):
        code, whole, _ = run_cli(capsys, argv)
        assert code == 0
        for size in (1, 64, 999):
            monkeypatch.setattr(cli, "_BLOCK_LEVELS", size)
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            assert out == whole
            path = tmp_path / ("b%d.csv" % size)
            assert main(argv + ["--out", str(path)]) == 0
            assert path.read_text() == whole

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_in_second_block(self, capsys, monkeypatch, tmp_path,
                                     existing):
        # The first block is staged when the second fails: the temp file
        # is removed and the target is neither made nor replaced.
        calls = []
        real = series.evaluate

        def second_fails(record, ns):
            calls.append(len(ns))
            if len(calls) == 2:
                raise ValueError("stalled")
            return real(record, ns)

        monkeypatch.setattr(cli, "_BLOCK_LEVELS", 10)
        monkeypatch.setattr(series, "evaluate", second_fails)
        out = tmp_path / "p.csv"
        if existing:
            out.write_text("keep me\n")
        code, _, err = run_cli(capsys, ["exact", "--n-range", "0:99",
                                        "--out", str(out)])
        assert code == 3
        assert "numerical failure: stalled" in err
        assert calls == [10, 10]
        if existing:
            assert out.read_text() == "keep me\n"
            assert os.listdir(tmp_path) == ["p.csv"]
        else:
            assert os.listdir(tmp_path) == []

    def test_million_level_sweep_in_a_child(self, tmp_path, child_env):
        # Streamed in blocks, the 10^6-level sweep never holds its text:
        # the child peaks well under what the whole table takes.
        out = tmp_path / "p.csv"
        probe = ("import resource, subprocess, sys\n"
                 "code = subprocess.call([sys.executable, '-m', 'osctun.cli',"
                 " 'exact', '--n-range', '1:1000000', '--out', sys.argv[1]])\n"
                 "print(code, resource.getrusage("
                 "resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        res = subprocess.run([sys.executable, "-c", probe, str(out)],
                             capture_output=True, text=True, env=child_env)
        code, peak_kb = map(int, res.stdout.split())
        assert code == 0
        with open(out) as fh:
            assert sum(1 for _ in fh) == 10 ** 6 + 1
        assert peak_kb < 100 * 1024


class TestPinnedBytes:
    # SHA-256 of the CSVs.  Figures 2 and 5 carry the P_n series' error
    # columns, which test_figure_five_cells_are_the_rounded_truth checks
    # cell by cell; figure 4 is the F_n series.
    @pytest.mark.parametrize("fig_id, digest", [
        (2, "a05ee20e1b9eb03c47ca014439ce3c999143fda972fd97dddd98bc6b181b167b"),
        (4, "0e048299b1d4d990240df98a236258d4dd31e86a6c68ce3c7372ca1487523e6a"),
        (5, "345b69ad407f564b45b92807b99dec82ca24a83aae28fb520f434c523d95dc37"),
    ])
    def test_figure_csv_digest(self, capsys, fig_id, digest):
        code, out, _ = run_cli(capsys, ["fig", "--id", str(fig_id)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_figure_five_cells_are_the_rounded_truth(self, capsys):
        # Every numeric cell is the 50-digit truth rounded to 12 significant
        # digits, within one unit in the 12th.  The error columns are
        # differences that cancel up to 5 digits of P_n, so this holds only
        # when P_n is good to about 1e-16.
        code, out, _ = run_cli(capsys, ["fig", "--id", "5"])
        assert code == 0
        head, *rows = out.splitlines()
        assert len(rows) == 100
        c1, c2 = oracle.constants().c1, oracle.constants().c2
        with mpmath.workdps(50):
            for row in rows:
                cells = row.split(",")
                n = int(cells[0])
                p = oracle.p_n(n)
                lead = c1 * mpmath.mpf(n) ** (-mpmath.mpf(1) / 3)
                sec = lead - c2 / n
                truth = (p, lead, sec, abs(p - lead), abs(p - sec),
                         abs(p - sec) * mpmath.mpf(n) ** (mpmath.mpf(4) / 3))
                for name, text, want in zip(head.split(",")[1:], cells[1:],
                                            truth):
                    unit = mpmath.mpf(10) ** (
                        int(mpmath.floor(mpmath.log10(want))) - 11)
                    gap = (mpmath.nint(mpmath.mpf(text) / unit)
                           - mpmath.nint(want / unit))
                    assert abs(gap) <= 1, (n, name, text)

    @pytest.mark.parametrize("argv", [
        ["exact", "--n-range", "0:1000:7"],
        ["fn", "--n-range", "6:500:7"],
    ])
    def test_step_ranges_match_single_levels(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        head, *rows = out.splitlines()
        for row in rows:
            n = row.split(",")[0]
            code, one, _ = run_cli(capsys, [argv[0], "--n-range",
                                            "%s:%s" % (n, n)])
            assert code == 0
            assert one.splitlines() == [head, row]


class TestReadme:
    def test_command_line_examples_parse(self):
        # Every example in README's "Command line" section must parse, so a
        # flag renamed in the parser and not in the docs fails here.
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path) as fh:
            section = fh.read().split("\n## Command line\n")[1]
        section = section.split("\n## ")[0]
        examples = [shlex.split(line)[3:] for line in section.splitlines()
                    if line.strip().startswith("python3 -m osctun.cli ")]
        assert len(examples) >= 6
        parser = _build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail("README example does not parse: %s"
                            % " ".join(argv))


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path, child_env):
        res = subprocess.run(
            [sys.executable, "-m", "osctun.cli", "asympt", "--order", "1",
             "--n", "8"], capture_output=True, text=True, env=child_env)
        assert res.returncode == 0
        assert res.stdout.splitlines()[1] == "8,0.0669874837797"

    def test_usage_exit_code(self, child_env):
        res = subprocess.run([sys.executable, "-m", "osctun.cli", "exact"],
                             capture_output=True, text=True, env=child_env)
        assert res.returncode == 2

    @pytest.mark.parametrize("existing", [False, True])
    def test_sigterm_removes_the_staged_file(self, tmp_path, child_env,
                                             existing):
        # SIGTERM once the first block is being written to the staged
        # file: the child exits 143, removes its temp file, and neither
        # makes nor replaces the target.  (A signal the moment the temp
        # file is made is test_signal_as_the_temp_file_is_made's case.)
        out = tmp_path / "p.csv"
        if existing:
            out.write_text("keep me\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "osctun.cli", "compare", "--n-range",
             "1:1000000", "--out", str(out)], env=child_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not any(name.endswith(".tmp") and (tmp_path / name)
                          .stat().st_size > 0
                          for name in os.listdir(tmp_path)):
                assert proc.poll() is None, "the sweep ended unstaged"
                assert time.monotonic() < deadline
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert code == 143
        if existing:
            assert os.listdir(tmp_path) == ["p.csv"]
            assert out.read_text() == "keep me\n"
        else:
            assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("buffered", [True, False],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, lines", [
        (["exact", "--n-range", "1:1000000"], 1),
        (["exact", "--n", "0"], 0),
    ], ids=["reader-quits-after-a-line", "reader-gone-before-the-first"])
    def test_closed_stdout_is_exit_two(self, child_env, buffered, argv,
                                       lines):
        # A reader that stops reading, as `| head -1` does: one "cannot
        # write" line and exit 2, from the writes or from the last flush.
        env = dict(child_env)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "osctun.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            for _ in range(lines):
                proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert code == 2
        assert err.startswith("cannot write -: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_failed_staged_write_is_exit_two(self, tmp_path, child_env):
        # A file size limit of 1 MB, set in the child only: the 4 MB staged
        # write fails with EFBIG (Python ignores SIGXFSZ).  The old file
        # stays as it was, and no temp file is left.
        def small_files():
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (2 ** 20, hard))

        out = tmp_path / "big.csv"
        out.write_text("keep me\n")
        res = subprocess.run(
            [sys.executable, "-m", "osctun.cli", "exact", "--n-range",
             "1:100000", "--out", str(out)], capture_output=True, text=True,
            env=child_env, preexec_fn=small_files)
        assert res.returncode == 2
        assert res.stderr.startswith("cannot write %s: " % out)
        assert "File too large" in res.stderr
        assert "Traceback" not in res.stderr
        assert out.read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["big.csv"]
