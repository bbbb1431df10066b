"""Command-line surface: formats, determinism, exit codes, artifacts."""

import math
import os
import subprocess
import sys

import pytest

from osctun import analysis
from osctun.cli import main


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


class TestNumericalFailure:
    def test_exit_three_and_no_partial_file(self, tmp_path, capsys,
                                            monkeypatch):
        import osctun.cli as climod
        from osctun.quadrature import NonConvergenceError

        def boom(n, cfg=None):
            raise NonConvergenceError("stalled", 0.1, 0.2)

        monkeypatch.setattr(climod, "tunneling_exact", boom)
        out = tmp_path / "p.csv"
        code, _, err = run_cli(capsys,
                               ["exact", "--n", "0", "--out", str(out)])
        assert code == 3
        assert "numerical failure" in err
        assert not out.exists()

    def test_numeric_failure_keeps_existing_file(self, tmp_path, capsys,
                                                 monkeypatch):
        import osctun.cli as climod
        from osctun.quadrature import NonConvergenceError

        def boom(n, cfg=None):
            raise NonConvergenceError("stalled", 0.1, 0.2)

        monkeypatch.setattr(climod, "tunneling_exact", boom)
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
