"""Command-line front end emitting CSV tables and optional gnuplot scripts.

Numbers print with 12 significant digits (exact integers bare, other
floats from 1e11 up in scientific form), comma delimiter, dot decimal
separator, LF line endings; identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 usage error, 3 numerical failure.
Output is computed first, then staged in a temporary file beside --out
(and the gnuplot script's); the targets are replaced only once every file
is staged, so a failed run leaves no partial file and leaves existing
files untouched.
"""

import argparse
import functools
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import analysis
from .asymptotics import leading_term, second_order
from .quadrature import QuadratureConfig, tunneling_exact_values

__all__ = ["main", "entry"]

# A range lists at most this many levels.
_MAX_RANGE_LEVELS = 10 ** 6
# exact and compare sum O(n) terms per level, so they refuse a level above
# _MAX_EXACT_LEVEL and levels that sum above _MAX_EXACT_STEPS.  On a 2-CPU
# Xeon the batched pass took 23 ns a level-step over 1..20000, and 37 s
# over 1..44700, the largest accepted sweep.
_MAX_EXACT_LEVEL = 10 ** 6
_MAX_EXACT_STEPS = 10 ** 9
# lemma holds about ten float arrays of --grid points; at 10^6 the process
# peaked at 92 MB.  Above --x-max 1.3e154 e(2+e) overflows; 1e30 keeps
# every step finite with room to spare.
_MAX_LEMMA_GRID = 10 ** 6
_MAX_LEMMA_X = 1e30


def _fmt(v):
    if isinstance(v, float):
        # %#.12g follows C's %g and rounds correctly, as Dragon4 does; it
        # prints Dragon4's bytes whenever its 12th digit is not 0 and it has
        # no e+ exponent.  Every other cell takes the Dragon4 route.
        s = "%#.12g" % v
        if "e" not in s:
            if s[-1] not in "0.":
                return s
        else:
            e = s.find("e")
            if s[e + 1] == "-" and s[e - 1] != "0":
                return s
    elif isinstance(v, str):
        return v
    elif isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return _dragon4(v)


def _dragon4(v):
    # When Dragon4's digits end before the 12th (an exact short value, or a
    # carry), it pads with zeros until 12 digits are printed, counting the
    # zeros before the first significant one: 0.25 prints 0.25000000000 and
    # 0.0012 prints 0.00120000000, where %#.12g prints 0.250000000000 and
    # 0.00120000000000.  The CSV bytes depend on that padding.
    if 1e-4 <= abs(v) < 1e11:
        s = np.format_float_positional(v, precision=12, unique=False,
                                       fractional=False)
        # A carry to 1e11 leaves no fraction digit and a trailing dot.
        if s[-1] != ".":
            return s
    return np.format_float_scientific(v, precision=11, unique=False)


def _csv(columns, rows):
    lines = [",".join(columns)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _check_fits_double(n):
    # Every level-taking route works with nu^2 = 2n + 1 as a double.
    try:
        float(2 * n + 1)
    except OverflowError:
        raise argparse.ArgumentTypeError(
            "level too large: 2n+1 must fit a double")


def _parse_level(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if n < 0:
        raise argparse.ArgumentTypeError("level must be nonnegative")
    _check_fits_double(n)
    return [n]


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
    _check_fits_double(last)
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


def _check_exact_levels(ns, command):
    if ns[-1] > _MAX_EXACT_LEVEL:
        raise _UsageError("%s supports n <= %d (P_n costs O(n) steps)"
                          % (command, _MAX_EXACT_LEVEL))
    if sum(ns) > _MAX_EXACT_STEPS:
        raise _UsageError("%s supports levels summing to at most %d "
                          "(P_n costs O(n) steps)" % (command, _MAX_EXACT_STEPS))


def _cmd_exact(args):
    _check_exact_levels(args.levels, "exact")
    rows = [(r.n, r.value, r.err_estimate)
            for r in tunneling_exact_values(args.levels)]
    return _csv(("n", "p_exact", "err_estimate"), rows)


def _cmd_asympt(args):
    if args.levels[0] < 1:
        raise _UsageError("asympt requires n >= 1 (the formula diverges at 0)")
    term = leading_term if args.order == 1 else second_order
    rows = [(n, term(n).value) for n in args.levels]
    return _csv(("n", "p_asympt"), rows)


def _cmd_compare(args):
    if args.levels[0] < 1:
        raise _UsageError("compare requires n >= 1")
    _check_exact_levels(args.levels, "compare")
    return _csv(*analysis.comparison_table(args.levels))


def _cmd_fn(args):
    ns = args.levels
    if ns[0] < 1:
        raise _UsageError("fn requires n >= 1")
    return _csv(*analysis.ratio_table(ns))


def _cmd_lemma(args):
    if not 1.0 < args.x_max <= _MAX_LEMMA_X:
        raise _UsageError("--x-max must exceed 1 and be at most %g"
                          % _MAX_LEMMA_X)
    if not 100 <= args.grid <= _MAX_LEMMA_GRID:
        raise _UsageError("--grid must be between 100 and %d"
                          % _MAX_LEMMA_GRID)
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


def _plot_script(figure_id, out):
    """(path, text) of the gnuplot script that plots the CSV at out."""
    root, ext = os.path.splitext(out)
    head = ("set datafile separator ','\n"
            "set key top right\n"
            "set xlabel 'x'\n"
            "set ylabel 'value'\n")
    return ((root if ext.lower() == ".csv" else out) + ".gnuplot",
            head + _FIG_PLOTS[figure_id].format(csv=os.path.basename(out)))


def _cmd_fig(args):
    if args.emit_plot_script and args.out == "-":
        raise _UsageError("--emit-plot-script needs --out FILE for the "
                          "script to reference")
    data = analysis.figure_dataset(args.id)
    return _csv(data.columns, data.rows)


def _open_temp(target):
    """A new file beside target, with the mode open(target, "w") gives.

    Raises IsADirectoryError, as open would, when target is a directory.
    """
    try:
        st = os.stat(target)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError("is a directory")
        mode = stat.S_IMODE(st.st_mode)
    fd, tmp = tempfile.mkstemp(prefix="." + os.path.basename(target) + ".",
                               suffix=".tmp", dir=os.path.dirname(target))
    os.fchmod(fd, mode)
    return os.fdopen(fd, "w", newline=""), tmp


def _run(args):
    try:
        # Every subcommand validates the tolerance flags; none uses them.
        _config(args)
        result = args.handler(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    text, code = result if isinstance(result, tuple) else (result, 0)
    if args.out == "-":
        sys.stdout.write(text)
        return code
    files = [(args.out, text)]
    if getattr(args, "emit_plot_script", False):
        files.append(_plot_script(args.id, args.out))
    staged = []
    try:
        for path, body in files:
            # Replace the file a symlink points to, not the link itself.
            target = os.path.realpath(path)
            try:
                fh, tmp = _open_temp(target)
            except OSError as exc:
                print("cannot open %s: %s" % (path, exc), file=sys.stderr)
                return 2
            staged.append((tmp, target, path))
            with fh:
                fh.write(body)
        while staged:
            tmp, target, path = staged[0]
            try:
                os.replace(tmp, target)
            except OSError as exc:
                print("cannot write %s: %s" % (path, exc), file=sys.stderr)
                return 2
            staged.pop(0)
    finally:
        for tmp, _, _ in staged:
            os.unlink(tmp)
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
    grp.add_argument("--n", dest="levels", type=_parse_level, metavar="N",
                     help="single level")
    grp.add_argument("--n-range", dest="levels", type=_parse_range,
                     metavar="A:B[:STEP]", help="inclusive level range")


# Building the parser costs about ten times an fn sweep of 99 levels, so a
# process builds it once, on its first main() call.  parse_args returns a
# fresh Namespace every call, so no call sees another's flags; handlers look
# their library functions up when they run, so patching those still works.
@functools.lru_cache(maxsize=None)
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
    p.add_argument("--n-range", dest="levels", type=_parse_range,
                   metavar="A:B[:STEP]", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_compare)

    p = subs.add_parser("fn", help="Airy-weighted integral ratios F_inf/F_n")
    p.add_argument("--n-range", dest="levels", type=_parse_range,
                   metavar="A:B[:STEP]", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_fn)

    p = subs.add_parser("lemma", help="monotonicity report for zeta/(x^2-1)")
    p.add_argument("--x-max", type=float, default=50.0,
                   help="right end of the grid, in (1, 1e30] (default 50)")
    p.add_argument("--grid", type=int, default=10000,
                   help="grid points, 100 to 10^6 (default 10000)")
    _add_common(p)
    p.set_defaults(handler=_cmd_lemma)

    p = subs.add_parser("fig", help="figure dataset as CSV")
    p.add_argument("--id", type=int, choices=(1, 2, 3, 4, 5), required=True,
                   help="figure number")
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
