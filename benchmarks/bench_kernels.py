"""Timings of the kernels, of the multi-level sweeps and of CLI calls.

Usage:
    python3 benchmarks/bench_kernels.py [--size 200000] [--repeats 7]

Prints four tables and one row, each the best of --repeats runs:

1. Three elementwise kernels (oscillator eigenfunctions, the Airy function
   with its error envelope, the turning-point map inversion) on --size
   points.
2. Multi-level sweeps.  P_n is computed both ways, by one batched tail-sum
   pass (_kernels.hermite_tail_sums) against one scalar pass per level
   (_kernels.hermite_tail_sum); the route column says which side
   tunneling_exact_values takes.  F_n has one route, the Chebyshev series
   summed on the vector of levels (big_f_n_values), and is timed alone.
3. The cost constant of that choice: one step of the batched pass over one
   step of the scalar loop, at several batch widths.  A sweep takes the
   batched pass when the sum of its levels exceeds this constant times its
   largest level; quadrature._BATCH_STEP_COST holds the value in use.
4. Two CLI calls made in process, fn --n-range 105:203 and
   compare --n-range 513:612, each writing its CSV into a temporary
   directory, split into parts: building the parser uncached
   (cli._build_parser.__wrapped__), parsing argv with the cached parser,
   the handler's computation (with cli._csv stubbed out), cli._csv on the
   handler's table, staging (cli._run with the finished text, which checks
   the tolerances and writes and replaces the file), and the whole
   cli.main call, whose parser is built once and then reused.  main is
   about parse + compute + _csv + stage; a one-shot process pays the build
   on top.
5. One CSV cell: cli._fmt against cli._dragon4, the Dragon4 route that
   every float cell took before _fmt tried %#.12g first, per cell over
   the float cells of figure 2.  The _csv column above shows what the
   difference is worth on a whole table.
"""

import argparse
import math
import os
import tempfile
import time

import numpy as np

from osctun import _kernels, analysis, asymptotics, cli, quadrature


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

def _nus(ns):
    return [math.sqrt(2.0 * n + 1.0) for n in ns]


def _scalar_sums(ns, nus):
    return [_kernels.hermite_tail_sum(n, nu) for n, nu in zip(ns, nus)]


def sweep_table(repeats):
    print("\nsweeps: best of %d runs" % repeats)
    print("%-22s %9s %12s %12s  %s" % ("sweep", "sum/max", "batched [ms]",
                                       "loop [ms]", "route"))
    pn_sweeps = [
        ("P_n 513..612", list(range(513, 613))),
        ("P_n 5..612", list(range(5, 613))),
        ("P_n 0..40 (fig 1)", list(range(0, 41))),
        ("P_n 0:1000:100", list(range(0, 1001, 100))),
        ("P_n [1, 20000]", [1, 20000]),
    ]
    for name, ns in pn_sweeps:
        nus = _nus(ns)
        ratio = sum(ns) / max(ns)
        t_batch = best_of(repeats, _kernels.hermite_tail_sums, ns, nus)
        t_loop = best_of(repeats, _scalar_sums, ns, nus)
        route = ("batched" if ratio > quadrature._BATCH_STEP_COST
                 else "loop")
        print("%-22s %9.1f %12.3f %12.3f  %s"
              % (name, ratio, 1e3 * t_batch, 1e3 * t_loop, route))
    print("\n%-22s %12s" % ("sweep", "series [ms]"))
    fn_sweeps = [("F_n 6..104", list(range(6, 105))),
                 ("F_n 6..500 (fig 4)", list(range(6, 501)))]
    for name, ns in fn_sweeps:
        t_series = best_of(repeats, asymptotics.big_f_n_values, ns)
        print("%-22s %12.3f" % (name, 1e3 * t_series))


def cost_table(repeats, top=2000):
    print("\ncost constant: batched step / scalar step, levels up to %d "
          "(in use: %d)" % (top, quadrature._BATCH_STEP_COST))
    print("%-8s %14s %14s %8s" % ("width", "batched [us]", "scalar [us]",
                                  "ratio"))
    for width in (1, 10, 100, 300):
        ns = list(range(top - width + 1, top + 1))
        nus = _nus(ns)
        step_batch = best_of(repeats, _kernels.hermite_tail_sums,
                             ns, nus) / top
        step_loop = best_of(repeats, _scalar_sums, ns, nus) / sum(ns)
        print("%-8d %14.3f %14.3f %8.1f"
              % (width, 1e6 * step_batch, 1e6 * step_loop,
                 step_batch / step_loop))


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
    cost_table(args.repeats)
    cli_table(args.repeats)
    cell_row(args.repeats)


if __name__ == "__main__":
    main()
