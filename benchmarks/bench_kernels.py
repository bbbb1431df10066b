"""Timings of the kernels, of the multi-level sweeps and of CLI calls.

Usage:
    python3 benchmarks/bench_kernels.py [--size 200000] [--repeats 7]

Prints three tables and one row, each the best of --repeats runs:

1. Three elementwise kernels (oscillator eigenfunctions, the Airy function
   with its error envelope, the turning-point map inversion) on --size
   points.
2. Multi-level sweeps.  P_n by one pass of the Chebyshev series on the
   vector of levels (quadrature._tunneling_arrays, which builds no
   result objects), next to one tunneling_exact call per level, which is
   timed only on sweeps of at most LOOP_LEVELS levels; the last P_n row
   is the one level n = 10^6 both ways.  F_n by its Chebyshev series
   (asymptotics.big_f_n_values).
3. Two CLI calls made in process, fn --n-range 105:203 and
   compare --n-range 513:612, each writing its CSV into a temporary
   directory, split into parts: building the parser uncached
   (cli._build_parser.__wrapped__), parsing argv with the cached parser,
   the handler's computation (with cli._csv stubbed out), cli._csv on the
   handler's table, staging (cli._run with the finished text, which checks
   the tolerances and writes and replaces the file), and the whole
   cli.main call, whose parser is built once and then reused.  main is
   about parse + compute + _csv + stage; a one-shot process pays the build
   on top.
4. One CSV cell: cli._fmt against cli._dragon4, the Dragon4 route that
   every float cell took before _fmt tried %#.12g first, per cell over
   the float cells of figure 2.  The _csv column above shows what the
   difference is worth on a whole table.
"""

import argparse
import os
import tempfile
import time

import numpy as np

from osctun import _kernels, analysis, asymptotics, cli, quadrature

# One tunneling_exact call costs about the same at any level, so the loop
# of one call per level is timed on sweeps of at most this many levels.
LOOP_LEVELS = 10 ** 4


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
    t = rng.uniform(-1.0, 50.0, size)
    zeta = rng.uniform(0.0, 30.0, size)
    cases = [
        ("hermite n=120", _kernels.hermite_values, (120, x)),
        ("airy [-1,50]", _kernels.airy_values, (t,)),
        ("zeta inverse", _kernels.invert_zeta_values, (zeta,)),
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
    print("%-22s %12s %12s" % ("sweep", "series [ms]", "loop [ms]"))
    sweeps = [
        ("P_n 513..612", range(513, 613)),
        ("P_n 5..612", range(5, 613)),
        ("P_n 1..10^6", range(1, 10 ** 6 + 1)),
        ("P_n 10^6 alone", range(10 ** 6, 10 ** 6 + 1)),
    ]
    for name, ns in sweeps:
        t_series = best_of(repeats, quadrature._tunneling_arrays, list(ns))
        if len(ns) <= LOOP_LEVELS:
            loop = "%12.3f" % (1e3 * best_of(repeats, _loop, ns))
        else:
            loop = "%12s" % "-"
        print("%-22s %12.3f %s" % (name, 1e3 * t_series, loop))
    fn_sweeps = [("F_n 6..104", list(range(6, 105))),
                 ("F_n 6..500 (fig 4)", list(range(6, 501)))]
    for name, ns in fn_sweeps:
        t_series = best_of(repeats, asymptotics.big_f_n_values, ns)
        print("%-22s %12.3f %12s" % (name, 1e3 * t_series, "-"))


def cli_table(repeats):
    calls = [("fn 105:203", ["fn", "--n-range", "105:203"]),
             ("compare 513:612", ["compare", "--n-range", "513:612"])]
    print("\nCLI calls in process: best of %d runs" % repeats)
    print("%-16s %10s %10s %12s %10s %10s %10s"
          % ("call", "build [ms]", "parse [ms]", "compute [ms]", "_csv [ms]",
             "stage [ms]", "main [ms]"))
    parser = cli._build_parser()
    tables = []

    def capture(columns, rows):
        tables.append((columns, rows))
        return ""

    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in calls:
            argv = argv + ["--out", os.path.join(tmp, "out.csv")]
            args = parser.parse_args(argv)
            real_csv = cli._csv
            cli._csv = capture
            try:
                t_compute = best_of(repeats, args.handler, args)
            finally:
                cli._csv = real_csv
            table = tables[-1]
            text = cli._csv(*table)
            staged = argparse.Namespace(**vars(args))
            staged.handler = lambda _: text
            if cli.main(argv) != 0 or cli._run(staged) != 0:
                raise SystemExit("%s failed" % name)
            times = [best_of(repeats, cli._build_parser.__wrapped__),
                     best_of(repeats, parser.parse_args, argv),
                     t_compute,
                     best_of(repeats, cli._csv, *table),
                     best_of(repeats, cli._run, staged),
                     best_of(repeats, cli.main, argv)]
            print("%-16s %10.3f %10.3f %12.3f %10.3f %10.3f %10.3f"
                  % ((name,) + tuple(1e3 * t for t in times)))


def cell_row(repeats):
    cells = [v for row in analysis.figure_dataset(2).rows for v in row
             if isinstance(v, float)]
    if list(map(cli._fmt, cells)) != list(map(cli._dragon4, cells)):
        raise SystemExit("_fmt and _dragon4 disagree on figure 2")
    t_fmt = best_of(repeats, lambda: list(map(cli._fmt, cells)))
    t_dragon4 = best_of(repeats, lambda: list(map(cli._dragon4, cells)))
    print("\none cell, over the %d float cells of figure 2: best of %d runs"
          % (len(cells), repeats))
    print("%-16s %10s %12s" % ("formatter", "_fmt [us]", "Dragon4 [us]"))
    print("%-16s %10.3f %12.3f" % ("fig 2 cell", 1e6 * t_fmt / len(cells),
                                   1e6 * t_dragon4 / len(cells)))


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
    cell_row(args.repeats)


if __name__ == "__main__":
    main()
