"""Timings of the kernels, of the multi-level sweeps and of CLI calls.

Usage:
    python3 benchmarks/bench_kernels.py [--size 200000] [--repeats 7]

Prints six tables, the first four each the best of --repeats runs:

1. Five elementwise kernels (oscillator eigenfunctions, the Airy function
   with its error envelope, the turning-point map zeta(x) with its f ratio
   from one pass, f alone, and the map's inversion) on --size points.  The
   forward map takes x in [1, 11], a tenth of it below the seam x = 2, and
   the inversion zeta in [0, 30], a twentieth of it below zeta(2).  Then
   two one-point calls: the inversion at zeta = 11.7, which runs Newton,
   and asymptotics.olver_approx(100, 1.3).
2. Multi-level sweeps.  P_n by one tunneling_exact call on the list of
   levels, the call the exact and compare subcommands make, which checks
   the levels and sums the series once over them, next to one
   tunneling_exact call per level, which is timed only on sweeps of at
   most LOOP_LEVELS levels; the last P_n row is the one level n = 10^6
   both ways.  F_n by one big_f_n call on the list of levels.
3. Two CLI calls made in process, fn --n-range 105:203 and
   compare --n-range 513:612, each writing its CSV into a temporary
   directory, split into parts: building the parser uncached
   (cli._build_parser.__wrapped__), parsing argv with the cached parser,
   the table's columns (analysis.ratio_table or
   analysis.comparison_table), the block writer cli._csv_columns on
   them, staging (cli._run with the finished text, which writes and
   replaces the file), and the whole cli.main
   call, whose parser is built once and then reused.  main is about
   parse + columns + write + stage; a one-shot process pays the build on
   top.
4. The CSV text of figure 2 and of the compare table over 513..612: the
   block writer (cli._csv_columns, one %-template per table) against a
   join of cli._fmt cell by cell, which prints the same bytes, per float
   cell.
5. The 10^6-level sweeps exact --n-range 1:1000000 and compare over the
   same range, each as one fresh process writing into a temporary
   directory: wall time, and the child's peak resident set
   (RUSAGE_CHILDREN, read by a fresh python that runs only that child).
   Each is run once, not best of --repeats.
6. The fresh-process cost of import osctun, osctun.cli: IMPORT_CHILDREN
   child pythons each import numpy and then time, with perf_counter,
   import osctun, osctun.cli, so numpy's own import is left out; the
   median and quartiles.  They run with PYTHONDONTWRITEBYTECODE=1 on a
   copy of the package with no __pycache__, so every child compiles
   osctun, as a fresh checkout does.  The child's own clock is used
   because the wall time of a whole child varies by more than this cost.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

# Run from anywhere, the script times the osctun of its own checkout.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
from osctun import (_kernels, analysis, asymptotics, cli,  # noqa: E402
                    quadrature)

# One tunneling_exact call costs about the same at any level, so the loop
# of one call per level is timed on sweeps of at most this many levels.
LOOP_LEVELS = 10 ** 4

# Children timed for the import cost, which varies by several ms a child.
IMPORT_CHILDREN = 21

_IMPORT_CHILD = ("import time, numpy\n"
                 "start = time.perf_counter()\n"
                 "import osctun, osctun.cli\n"
                 "print(time.perf_counter() - start)\n")


def best_of(repeats, fn, *args):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def kernel_table(size, repeats):
    rng = np.random.default_rng(7)
    x = rng.uniform(-12.0, 12.0, size)
    t = rng.uniform(0.0, 50.0, size)
    e = rng.uniform(0.0, 10.0, size)
    zeta = rng.uniform(0.0, 30.0, size)
    cases = [
        ("hermite n=120", _kernels.hermite_values, (120, x)),
        ("airy [0,50]", _kernels.airy_values, (t,)),
        ("zeta, f forward", _kernels.zeta_f_from_e, (e,)),
        ("f forward", _kernels.f_from_e, (e,)),
        ("zeta inverse", _kernels.invert_zeta_values, (zeta,)),
        ("inverse at 11.7", _kernels.invert_zeta_values, (np.array([11.7]),)),
        ("olver 100, 1.3", asymptotics.olver_approx, (100, 1.3)),
    ]
    print("kernels: size = %d, best of %d runs" % (size, repeats))
    print("%-16s %12s" % ("kernel", "time [ms]"))
    for name, fn, call_args in cases:
        fn(*call_args)
        print("%-16s %12.3f" % (name, 1e3 * best_of(repeats, fn, *call_args)))

def _loop(ns):
    return [quadrature.tunneling_exact(n) for n in ns]


def sweep_table(repeats):
    print("\nsweeps: best of %d runs" % repeats)
    print("%-22s %13s %12s" % ("sweep", "one call [ms]", "loop [ms]"))
    sweeps = [
        ("P_n 513..612", range(513, 613)),
        ("P_n 5..612", range(5, 613)),
        ("P_n 1..10^6", range(1, 10 ** 6 + 1)),
        ("P_n 10^6 alone", range(10 ** 6, 10 ** 6 + 1)),
    ]
    for name, ns in sweeps:
        t_sweep = best_of(repeats, quadrature.tunneling_exact, list(ns))
        if len(ns) <= LOOP_LEVELS:
            loop = "%12.3f" % (1e3 * best_of(repeats, _loop, ns))
        else:
            loop = "%12s" % "-"
        print("%-22s %13.3f %s" % (name, 1e3 * t_sweep, loop))
    fn_sweeps = [("F_n 6..104", list(range(6, 105))),
                 ("F_n 6..500 (fig 4)", list(range(6, 501)))]
    for name, ns in fn_sweeps:
        t_sweep = best_of(repeats, asymptotics.big_f_n, ns)
        print("%-22s %13.3f %12s" % (name, 1e3 * t_sweep, "-"))


def cli_table(repeats):
    calls = [("fn 105:203", ["fn", "--n-range", "105:203"],
              analysis.ratio_table),
             ("compare 513:612", ["compare", "--n-range", "513:612"],
              analysis.comparison_table)]
    print("\nCLI calls in process: best of %d runs" % repeats)
    print("%-16s %10s %10s %12s %10s %10s %10s"
          % ("call", "build [ms]", "parse [ms]", "columns [ms]", "write [ms]",
             "stage [ms]", "main [ms]"))
    parser = cli._build_parser()
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, table in calls:
            argv = argv + ["--out", os.path.join(tmp, "out.csv")]
            args = parser.parse_args(argv)
            levels = list(args.levels)
            header, columns = table(levels)
            text = cli._csv_columns(header, columns)
            staged = argparse.Namespace(**vars(args))
            staged.handler = lambda _: [text]
            if cli.main(argv) != 0 or cli._run(staged) != 0:
                raise SystemExit("%s failed" % name)
            times = [best_of(repeats, cli._build_parser.__wrapped__),
                     best_of(repeats, parser.parse_args, argv),
                     best_of(repeats, table, levels),
                     best_of(repeats, cli._csv_columns, header, columns),
                     best_of(repeats, cli._run, staged),
                     best_of(repeats, cli.main, argv)]
            print("%-16s %10.3f %10.3f %12.3f %10.3f %10.3f %10.3f"
                  % ((name,) + tuple(1e3 * t for t in times)))


def _per_cell(columns, rows):
    lines = [",".join(columns)]
    lines.extend(",".join(map(cli._fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def writer_table(repeats):
    fig2 = analysis.figure_dataset(2)
    tables = [("fig 2", (fig2.columns, fig2.values)),
              ("compare 513:612", analysis.comparison_table(range(513, 613)))]
    print("\nCSV text per float cell: best of %d runs" % repeats)
    print("%-16s %8s %12s %12s" % ("table", "cells", "block [us]",
                                   "per-cell [us]"))
    for name, (header, columns) in tables:
        rows = list(zip(*columns))
        cells = sum(len(c) for c in columns if isinstance(c, np.ndarray))
        if cli._csv_columns(header, columns) != _per_cell(header, rows):
            raise SystemExit("block writer and _fmt disagree on %s" % name)
        t_block = best_of(repeats, cli._csv_columns, header, columns)
        t_cell = best_of(repeats, _per_cell, header, rows)
        print("%-16s %8d %12.3f %12.3f" % (name, cells, 1e6 * t_block / cells,
                                          1e6 * t_cell / cells))


# Runs its arguments as one child process and prints the exit code, the
# wall seconds and the child's peak resident set in kB.
_PROBE = ("import resource, subprocess, sys, time\n"
          "t = time.perf_counter()\n"
          "code = subprocess.call(sys.argv[1:])\n"
          "print(code, time.perf_counter() - t,\n"
          "      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")


def million_table():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    print("\n10^6-level sweeps, one fresh process each")
    print("%-28s %10s %10s" % ("call", "wall [s]", "peak [MB]"))
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in ("exact", "compare"):
            argv = [sys.executable, "-m", "osctun.cli", cmd, "--n-range",
                    "1:1000000", "--out", os.path.join(tmp, cmd + ".csv")]
            res = subprocess.run([sys.executable, "-c", _PROBE] + argv,
                                 capture_output=True, text=True, env=env)
            code, wall, peak_kb = res.stdout.split()
            if code != "0":
                raise SystemExit("%s exited with %s" % (cmd, code))
            print("%-28s %10.2f %10.1f" % (cmd + " --n-range 1:1000000",
                                           float(wall), int(peak_kb) / 1024))


def import_table():
    src = os.path.dirname(os.path.abspath(cli.__file__))
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src, os.path.join(tmp, "osctun"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        costs = [float(subprocess.run(
            [sys.executable, "-c", _IMPORT_CHILD], env=env, check=True,
            capture_output=True, text=True).stdout)
            for _ in range(IMPORT_CHILDREN)]
    q1, median, q3 = statistics.quantiles(costs, n=4)
    print("\nfresh-process import after numpy: %d children" % IMPORT_CHILDREN)
    print("%-20s %10s %12s %10s" % ("import", "q1 [ms]", "median [ms]",
                                    "q3 [ms]"))
    print("%-20s %10.1f %12.1f %10.1f" % ("osctun, osctun.cli", 1e3 * q1,
                                          1e3 * median, 1e3 * q3))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=200000,
                        help="array length per kernel call (default 200000)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed repetitions, best is kept (default 7)")
    args = parser.parse_args()
    kernel_table(args.size, args.repeats)
    sweep_table(args.repeats)
    cli_table(args.repeats)
    writer_table(args.repeats)
    million_table()
    import_table()


if __name__ == "__main__":
    main()
