"""Command-line surface: formats, determinism, exit codes, artifacts."""

import argparse
import hashlib
import math
import os
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from osctun import analysis, cli
from osctun.cli import _build_parser, _fmt, main


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


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
        ["exact", "--n", "1000000000000"],
        ["exact", "--n-range", "0:2000000:1000"],
        ["compare", "--n-range", "999990:1000001"],
    ])
    def test_exact_level_above_ceiling(self, capsys, argv):
        # P_n costs O(n) steps, so exact and compare stop at n = 10^6
        # instead of running for days.
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "supports n <= 1000000" in err

    @pytest.mark.parametrize("argv", [
        ["exact", "--n-range", "1:1000000"],
        ["compare", "--n-range", "1:50000"],
    ])
    def test_exact_work_above_ceiling(self, capsys, monkeypatch, argv):
        # Each level is allowed, but their sum passes 10^9 recurrence
        # steps, so the sweep is refused before any P_n is computed.
        import osctun.cli as climod

        def must_not_run(ns):
            raise AssertionError("no level may be computed")

        monkeypatch.setattr(climod, "tunneling_exact_values", must_not_run)
        monkeypatch.setattr(analysis, "tunneling_exact_values", must_not_run)
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "summing to at most 1000000000" in err

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
        import osctun.cli as climod

        def boom(ns):
            raise ValueError("stalled")

        monkeypatch.setattr(climod, "tunneling_exact_values", boom)
        out = tmp_path / "p.csv"
        code, _, err = run_cli(capsys,
                               ["exact", "--n", "0", "--out", str(out)])
        assert code == 3
        assert "numerical failure" in err
        assert not out.exists()

    def test_numeric_failure_keeps_existing_file(self, tmp_path, capsys,
                                                 monkeypatch):
        import osctun.cli as climod

        def boom(ns):
            raise ValueError("stalled")

        monkeypatch.setattr(climod, "tunneling_exact_values", boom)
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

    def test_no_temp_file_while_computing(self, tmp_path, capsys,
                                          monkeypatch):
        # The temp file exists only while finished text is written, so a
        # process killed during the computation leaves nothing behind.
        import osctun.cli as climod
        seen = []
        real = climod.tunneling_exact_values

        def listing(ns):
            seen.append(os.listdir(tmp_path))
            return real(ns)

        monkeypatch.setattr(climod, "tunneling_exact_values", listing)
        out = tmp_path / "p.csv"
        assert main(["exact", "--n-range", "0:3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert seen == [[]]
        assert os.listdir(tmp_path) == ["p.csv"]

    @pytest.mark.parametrize("n", ["0", "1", "612"])
    def test_single_level_matches_range(self, capsys, n):
        code, one, _ = run_cli(capsys, ["exact", "--n", n])
        assert code == 0
        code, ranged, _ = run_cli(capsys, ["exact", "--n-range", n + ":" + n])
        assert code == 0
        assert one == ranged

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
        import osctun.cli as climod
        assert main(["exact", "--n", "0"]) == 0

        def boom(ns):
            raise ValueError("stalled")

        monkeypatch.setattr(climod, "tunneling_exact_values", boom)
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

    This is _fmt without its %#.12g route; _fmt must print the same bytes.
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


def _neighbours(base, ulps=64, steps=30):
    """Doubles around base: each ulp step, and relative steps of 1e-13."""
    out = [base]
    up = down = base
    for _ in range(ulps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
        out += [up, down]
    out += [base * (1.0 + j * 1e-13) for j in range(-steps, steps + 1)]
    return out + [-v for v in out]


class TestCellFormat:
    # When Dragon4's 12 digits end early, because the value is short (0.25)
    # or a carry ends them (0.15 prints 0.15000000000), it pads with zeros
    # until 12 digits are printed, counting the zeros before the first
    # significant one; %#.12g would print 0.250000000000.  The CSV bytes
    # depend on that padding, so a faster formatter must reproduce it.
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
        assert _fmt(value) == text
        assert dragon4_fmt(value) == text

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
            assert _fmt(v) == dragon4_fmt(v), repr(v)
        for v in values[::7]:
            assert type(v) is np.float64
            assert _fmt(v) == dragon4_fmt(v), repr(v)

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
            assert _fmt(v) == dragon4_fmt(v), repr(v)
            assert _fmt(-v) == dragon4_fmt(-v), repr(-v)

    @pytest.mark.parametrize("base", [1e-4, 1e11, 1e12, 1e15, 1e16])
    def test_matches_dragon4_at_switch_points(self, base):
        for v in _neighbours(base):
            assert _fmt(v) == dragon4_fmt(v), repr(v)

    @pytest.mark.parametrize("table", ["fig2", "fig5", "fn"])
    def test_few_cells_reach_dragon4(self, monkeypatch, table):
        # A silent fall-back to Dragon4 would keep every byte and lose the
        # speed; count the cells that take it instead of timing them.
        if table == "fn":
            columns, rows = analysis.ratio_table(range(6, 501))
        else:
            data = analysis.figure_dataset(int(table[-1]))
            columns, rows = data.columns, data.rows
        floats = sum(1 for row in rows for v in row
                     if isinstance(v, float) and v != int(v))
        calls = []
        real = cli._dragon4

        def counted(v):
            calls.append(v)
            return real(v)

        monkeypatch.setattr(cli, "_dragon4", counted)
        cli._csv(columns, rows)
        assert floats > 0
        assert len(calls) <= 0.15 * floats


class TestPinnedBytes:
    # SHA-256 of the CSVs as the one-level routes wrote them, level by
    # level; the batched sweeps must reproduce every byte.
    @pytest.mark.parametrize("fig_id, digest", [
        (2, "e199eac5fb743eed6c9c66448f3d7804721228d1eafcd1effb7bb34d01617975"),
        (4, "0e048299b1d4d990240df98a236258d4dd31e86a6c68ce3c7372ca1487523e6a"),
        (5, "21a69db69795cccb21d36347f36cf13e5b7e4c1f660f074f00ed1d0c5226949e"),
    ])
    def test_figure_csv_digest(self, capsys, fig_id, digest):
        code, out, _ = run_cli(capsys, ["fig", "--id", str(fig_id)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
