"""Command-line front end emitting CSV tables and optional gnuplot scripts.

Numbers print with 12 significant digits (exact integers bare), comma
delimiter, dot decimal separator, LF line endings; identical invocations
produce byte-identical output.  Exit codes: 0 success, 2 usage error,
3 numerical failure.  Output goes to a temporary file beside --out that
replaces it only on success, so a failed run leaves no partial file and
leaves an existing file untouched.
"""

import argparse
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import analysis
from .asymptotics import F_INFINITY, big_f_n_values, leading_term, second_order
from .quadrature import QuadratureConfig, tunneling_exact, tunneling_exact_values

__all__ = ["main", "entry"]

# A range lists at most this many levels.
_MAX_RANGE_LEVELS = 10 ** 6
# exact and compare sum O(n) terms per level, so they refuse larger levels.
_MAX_EXACT_LEVEL = 10 ** 6


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    if 1e-4 <= abs(v) < 1e16:
        return np.format_float_positional(v, precision=12, unique=False,
                                          fractional=False)
    return np.format_float_scientific(v, precision=11, unique=False)


def _csv(columns, rows):
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _fits_double(n):
    # Every level-taking route works with nu^2 = 2n + 1 as a double.
    try:
        float(2 * n + 1)
    except OverflowError:
        return False
    return True


def _parse_range(text):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("range must be a:b or a:b:step")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("range parts must be integers")
    a, b = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1
    if a < 0 or b < a or step < 1:
        raise argparse.ArgumentTypeError("range requires 0 <= a <= b, step >= 1")
    last = b - (b - a) % step
    if not _fits_double(last):
        raise argparse.ArgumentTypeError(
            "levels too large: 2n+1 must fit a double")
    if (last - a) // step + 1 > _MAX_RANGE_LEVELS:
        raise argparse.ArgumentTypeError(
            "range lists more than %d levels" % _MAX_RANGE_LEVELS)
    return list(range(a, b + 1, step))


def _config(args):
    try:
        return QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    except ValueError as exc:
        raise _UsageError(str(exc))


class _UsageError(Exception):
    pass


def _collect_n(args):
    if args.n is not None:
        if args.n < 0:
            raise _UsageError("--n must be nonnegative")
        if not _fits_double(args.n):
            raise _UsageError("--n is too large: 2n+1 must fit a double")
        return [args.n]
    return args.n_range


def _check_exact_levels(ns, command):
    if ns[-1] > _MAX_EXACT_LEVEL:
        raise _UsageError("%s supports n <= %d (P_n costs O(n) steps)"
                          % (command, _MAX_EXACT_LEVEL))


def _cmd_exact(args):
    ns = _collect_n(args)
    _check_exact_levels(ns, "exact")
    if args.n is not None:
        results = [tunneling_exact(ns[0])]
    else:
        results = tunneling_exact_values(ns)
    rows = [(r.n, r.value, r.err_estimate) for r in results]
    return _csv(("n", "p_exact", "err_estimate"), rows)


def _cmd_asympt(args):
    ns = _collect_n(args)
    if any(n < 1 for n in ns):
        raise _UsageError("asympt requires n >= 1 (the formula diverges at 0)")
    term = leading_term if args.order == 1 else second_order
    rows = [(n, term(n).value) for n in ns]
    return _csv(("n", "p_asympt"), rows)


def _cmd_compare(args):
    if any(n < 1 for n in args.n_range):
        raise _UsageError("compare requires n >= 1")
    _check_exact_levels(args.n_range, "compare")
    cols = ("n", "p_exact", "p_leading", "p_second",
            "err_leading", "err_second", "scaled_err_second")
    rows = [(r.n, r.p_exact, r.p_leading, r.p_second,
             r.err_leading, r.err_second, r.scaled_err_second)
            for r in analysis.compare_sweep(args.n_range, args.config)]
    return _csv(cols, rows)


def _cmd_fn(args):
    ns = args.n_range
    if ns[0] < 1:
        raise _UsageError("fn requires n >= 1")
    rows = [(n, F_INFINITY / fn) for n, fn in zip(ns, big_f_n_values(ns))]
    return _csv(("n", "ratio"), rows)


def _cmd_lemma(args):
    if not args.x_max > 1.0:
        raise _UsageError("--x-max must exceed 1")
    if args.grid < 100:
        raise _UsageError("--grid must be at least 100")
    rep = analysis.lemma_check(args.x_max, args.grid)
    text = ("monotonicity check of zeta(x)/(x^2-1) on (1, %s]\n"
            "grid_size: %d\n"
            "max_violation: %s\n"
            "endpoint_left: %s\n"
            "endpoint_decay: %s\n"
            "passed: %s\n"
            % (_fmt(args.x_max), rep.grid_size, _fmt(rep.max_violation),
               _fmt(rep.endpoint_left), _fmt(rep.endpoint_decay),
               "true" if rep.passed else "false"))
    return text, (0 if rep.passed else 3)


_FIG_PLOTS = {
    1: ("plot '{csv}' using 2:(strcol(1) eq 'density' ? $3 : 1/0) "
        "with lines title 'nu psi_n(nu u)^2', \\\n"
        "     '{csv}' using 2:(strcol(1) eq 'classical' ? $3 : 1/0) "
        "with lines title '1/(pi sqrt(1-u^2))', \\\n"
        "     '{csv}' using 2:(strcol(1) eq 'tunneling' ? $3 : 1/0) "
        "with linespoints title 'P_n'\n"),
    2: ("plot '{csv}' using 1:2 with points title 'exact', \\\n"
        "     '{csv}' using 1:3 with lines title 'leading order'\n"),
    3: "plot '{csv}' using 1:2 with lines title 'zeta(x)'\n",
    4: "plot '{csv}' using 1:2 with points title 'F_inf/F_n'\n",
    5: ("plot '{csv}' using 1:2 with points title 'exact', \\\n"
        "     '{csv}' using 1:3 with lines title 'leading order', \\\n"
        "     '{csv}' using 1:4 with lines title 'second order'\n"),
}


def _plot_script(figure_id, csv_name):
    head = ("set datafile separator ','\n"
            "set key top right\n"
            "set xlabel 'x'\n"
            "set ylabel 'value'\n")
    return head + _FIG_PLOTS[figure_id].format(csv=csv_name)


def _cmd_fig(args):
    if args.id not in (1, 2, 3, 4, 5):
        raise _UsageError("unknown figure id %d" % args.id)
    if args.emit_plot_script and args.out == "-":
        raise _UsageError("--emit-plot-script needs --out FILE for the "
                          "script to reference")
    data = analysis.figure_dataset(args.id, config=args.config)
    return _csv(data.columns, data.rows)


def _script_path(out):
    root, ext = os.path.splitext(out)
    return (root if ext.lower() == ".csv" else out) + ".gnuplot"


def _open_temp(target):
    """A new file beside target, with the mode open(target, "w") gives.

    Output goes there first and replaces target only on success, so a
    failed run leaves an existing target as it was.
    """
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(prefix="." + os.path.basename(target) + ".",
                               suffix=".tmp", dir=os.path.dirname(target))
    os.fchmod(fd, mode)
    return os.fdopen(fd, "w", newline=""), tmp


def _run(args):
    fh = tmp = None
    if args.out != "-":
        # Replace the file a symlink points to, not the link itself.
        target = os.path.realpath(args.out)
        try:
            fh, tmp = _open_temp(target)
        except OSError as exc:
            print("cannot open %s: %s" % (args.out, exc), file=sys.stderr)
            return 2
    try:
        try:
            # Every subcommand validates the tolerance flags, whether or
            # not it uses them.
            args.config = _config(args)
            result = args.handler(args)
        except _UsageError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except ValueError as exc:
            print("numerical failure: %s" % exc, file=sys.stderr)
            return 3
        text, code = result if isinstance(result, tuple) else (result, 0)
        if fh is None:
            sys.stdout.write(text)
            return code
        fh.write(text)
        fh.close()
        try:
            os.replace(tmp, target)
        except OSError as exc:
            print("cannot write %s: %s" % (args.out, exc), file=sys.stderr)
            return 2
        tmp = None
    finally:
        if tmp is not None:
            fh.close()
            os.unlink(tmp)
    if getattr(args, "emit_plot_script", False):
        spath = _script_path(args.out)
        with open(spath, "w", newline="") as sf:
            sf.write(_plot_script(args.id, os.path.basename(args.out)))
    return code


def _add_common(sub):
    sub.add_argument("--rel-tol", type=float, default=1e-11,
                     help="relative quadrature tolerance, validated but "
                          "unused: no subcommand runs quadrature "
                          "(default 1e-11)")
    sub.add_argument("--abs-tol", type=float, default=1e-15,
                     help="absolute quadrature tolerance, validated but "
                          "unused: no subcommand runs quadrature "
                          "(default 1e-15)")
    sub.add_argument("--out", default="-",
                     help="output path, or - for stdout (default)")


def _add_n_group(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--n", type=int, help="single level")
    grp.add_argument("--n-range", type=_parse_range, metavar="A:B[:STEP]",
                     help="inclusive level range")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="osctun",
        description="Tunneling probabilities of the quantum harmonic "
                    "oscillator: exact tail integrals, asymptotic formulas, "
                    "and the datasets behind the validation figures.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("exact", help="exact tail-integral probabilities")
    _add_n_group(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_exact)

    p = subs.add_parser("asympt", help="asymptotic formula values")
    p.add_argument("--order", type=int, choices=(1, 2), required=True,
                   help="1 = leading term, 2 = with second-order correction")
    _add_n_group(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_asympt)

    p = subs.add_parser("compare", help="exact vs asymptotic table")
    p.add_argument("--n-range", type=_parse_range, metavar="A:B[:STEP]",
                   required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_compare)

    p = subs.add_parser("fn", help="Airy-weighted integral ratios F_inf/F_n")
    p.add_argument("--n-range", type=_parse_range, metavar="A:B[:STEP]",
                   required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_fn)

    p = subs.add_parser("lemma", help="monotonicity report for zeta/(x^2-1)")
    p.add_argument("--x-max", type=float, default=50.0)
    p.add_argument("--grid", type=int, default=10000)
    _add_common(p)
    p.set_defaults(handler=_cmd_lemma)

    p = subs.add_parser("fig", help="figure dataset as CSV")
    p.add_argument("--id", type=int, required=True, help="figure number 1-5")
    p.add_argument("--emit-plot-script", action="store_true",
                   help="also write a gnuplot script next to the CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_fig)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return _run(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
