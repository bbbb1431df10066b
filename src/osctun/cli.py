"""Command-line front end emitting CSV tables and optional gnuplot scripts.

A float prints as C's %#.12g, 12 significant digits with trailing zeros
kept; an exact integer below 1e15 prints bare, and a float that rounds to
12 or more integer digits (from 1e11 up) prints %.11e.  Comma delimiter,
dot decimal separator, LF line endings; identical invocations produce
byte-identical output.  Exit codes: 0 success, 2 usage error or failed
write, 3 numerical failure, 143 stopped by SIGTERM.  Every level is
checked before any is computed; a sweep is then computed and written in
blocks of levels.  A file is staged beside its target, which is replaced
only once every file is written, so a failed run leaves no partial file
and leaves existing files untouched.  Stdout, and a target that is not a
regular file (a device, FIFO or socket), is written in place after that.
"""

import argparse
import functools
import itertools
import math
import os
import stat
import sys

import numpy as np

from . import analysis, asymptotics, quadrature, specfun

__all__ = ["main", "entry"]

# A range lists at most this many levels, which bounds a sweep's work.
_MAX_RANGE_LEVELS = 10 ** 6
# lemma holds about ten float arrays of --grid points; at 10^6 the process
# peaked at 92 MB.  The map stops at asymptotics.X_MAX = 1e153; 1e30 keeps
# every step finite with room to spare.
_MAX_LEMMA_GRID = 10 ** 6
_MAX_LEMMA_X = 1e30


def _fmt(v):
    """One cell: an int bare, a str as is, a float by the 12-digit rule.

    A float prints as C's %#.12g: 12 significant digits, correctly rounded,
    trailing zeros kept.  An exact integer below 1e15 prints bare.  Where
    %#.12g would end in a bare dot, because the value rounds to 12 or more
    integer digits (from 1e11 up), it prints %.11e instead.
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
    s = "%#.12g" % v
    return "%.11e" % v if s[-1] == "." else s


# Below this magnitude a non-integral finite float rounds to at most 11
# integer digits, so %#.12g prints it exactly as _fmt does; 12-digit
# rounding reaches 1e11 only from 99999999999.95 up.
_TEMPLATE_BELOW = 99999999999.9
# A sweep is computed and written this many levels at a time.
_BLOCK_LEVELS = 2 ** 15


def _csv_columns(header, data, head=True):
    """The CSV text of one block of rows given as columns, headed by the
    header line if head.

    Each column gets one conversion of the block's %-template: %#.12g for
    a float array whose every cell is finite, not integral and below
    _TEMPLATE_BELOW, where it prints what _fmt does; %d for ints; any other
    column is mapped through _fmt and printed %s.  So the text is _fmt's
    by construction.
    """
    out = ",".join(header) + "\n" if head else ""
    m = len(data[0]) if data else 0
    if not m:
        return out
    k = len(data)
    cells = [None] * (k * m)
    spec = []
    for j, col in enumerate(data):
        if (isinstance(col, np.ndarray) and col.dtype.kind == "f"
                and (np.abs(col) < _TEMPLATE_BELOW).all()
                and not (col == np.trunc(col)).any()):
            col = col.tolist()
            spec.append("%#.12g")
        elif all(issubclass(t, (int, np.integer)) for t in set(map(type, col))):
            spec.append("%d")
        else:
            col = list(map(_fmt, col))
            spec.append("%s")
        cells[j::k] = col
    return out + (",".join(spec) + "\n") * m % tuple(cells)


def _stream(levels, table):
    """The CSV text of a sweep over levels, in blocks of _BLOCK_LEVELS
    levels: table(block) computes one block's (header, columns), and the
    header line heads the first block only.  A range's block is a range,
    which the entries check by its ends.  A block's columns are freed once
    its text is formatted, before the next block computes its own."""
    for start in range(0, len(levels), _BLOCK_LEVELS):
        yield _csv_columns(*table(levels[start:start + _BLOCK_LEVELS]),
                           head=start == 0)


def _parse_tol(text):
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return tol


def _check_fits_double(n):
    if n > specfun._MAX_LEVEL:
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
    return range(a, b + 1, step)


class _UsageError(Exception):
    pass


def _cmd_exact(args):
    return _stream(args.levels, lambda block: (
        ("n", "p_exact", "err_estimate"),
        [block, *quadrature.tunneling_exact(block)[1::2]]))


def _cmd_asympt(args):
    if args.levels[0] < 1:
        raise _UsageError("asympt requires n >= 1 (the formula diverges at 0)")
    name = ("leading_term", "second_order")[args.order - 1]
    return _stream(args.levels, lambda block: (
        ("n", "p_asympt"), [block, getattr(asymptotics, name)(block).value]))


def _cmd_compare(args):
    if args.levels[0] < 1 or args.levels[-1] >= analysis._COMPARE_LEVEL_LIMIT:
        raise _UsageError("compare requires 1 <= n < 2^768 (about 1.55e231)")
    return _stream(args.levels, analysis.comparison_table)


def _cmd_fn(args):
    if args.levels[0] < 1:
        raise _UsageError("fn requires n >= 1")
    return _stream(args.levels, analysis.ratio_table)


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
    return [text], (0 if rep.passed else 3)


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
    return [_csv_columns(data.columns, data.values)]


def _stage(path):
    """(temp path, target, mode) for the text of path; makes no file.

    target is path with a symlink resolved, and mode its permission bits,
    or None if it is new (then the umask sets them).  The temp path is a
    hidden name beside target, or None for stdout ("-") and an existing
    device, FIFO or socket, which are written in place, since replacing
    them would destroy them.  Raises IsADirectoryError, as open would.
    """
    if path == "-":
        return None, path, None
    target = path
    try:
        st = os.lstat(path)
        if stat.S_ISLNK(st.st_mode):
            # Replace the file a symlink points to, not the link itself.
            target = os.path.realpath(path)
            st = os.stat(target)
    except FileNotFoundError:
        mode = None
    else:
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError("is a directory")
        if not stat.S_ISREG(st.st_mode):
            return None, target, None
        mode = stat.S_IMODE(st.st_mode)
    head, name = os.path.split(target)
    tmp = os.path.join(head, ".%s.%s.tmp" % (name, os.urandom(8).hex()))
    return tmp, target, mode


def _run(args):
    """Runs the handler and writes its text; returns the exit code.

    A handler checks its input and returns the output as an iterable of
    text blocks (and an exit code, if not 0), which may compute as they
    are iterated.  The first block is computed before any file is made.
    A temp path is listed before its file is made and removed at the end,
    so no failure or signal leaves one.  Targets are replaced once every
    staged file is written; stdout and non-regular ones are written then.
    """
    staged, writes, path = [], [], args.out
    try:
        result = args.handler(args)
        blocks, code = result if isinstance(result, tuple) else (result, 0)
        blocks = iter(blocks)
        files = [(args.out, itertools.chain([next(blocks, "")], blocks))]
        if getattr(args, "emit_plot_script", False):
            script, text = _plot_script(args.id, args.out)
            files.append((script, [text]))
        for path, body in files:
            try:
                tmp, target, mode = _stage(path)
                if tmp is not None:
                    staged.append(tmp)
                    try:
                        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                                     0o666 if mode is None else mode)
                    except OSError:
                        staged.pop()  # no file was made, or not by this run
                        raise
            except OSError as exc:
                print("cannot open %s: %s" % (path, exc), file=sys.stderr)
                return 2
            if tmp is not None:
                with os.fdopen(fd, "w", newline="") as fh:
                    if mode is not None:
                        os.fchmod(fd, mode)
                    fh.writelines(body)
            writes.append((path, tmp, target, body))
        for path, tmp, target, body in writes:
            if tmp is not None:
                os.replace(tmp, target)
                staged.remove(tmp)
            elif target == "-":
                sys.stdout.writelines(body)
                sys.stdout.flush()
            else:
                with open(target, "w", newline="") as fh:
                    fh.writelines(body)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("cannot write %s: %s" % (path, exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    finally:
        for tmp in staged:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
    return code


def _add_common(sub):
    sub.add_argument("--rel-tol", type=_parse_tol, default=1e-11,
                     help="relative quadrature tolerance, validated but "
                          "unused: no subcommand runs quadrature "
                          "(default 1e-11)")
    sub.add_argument("--abs-tol", type=_parse_tol, default=1e-15,
                     help="absolute quadrature tolerance, validated but "
                          "unused: no subcommand runs quadrature "
                          "(default 1e-15)")
    sub.add_argument("--out", default="-",
                     help="output path, or - for stdout (default)")


def _add_n_group(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--n", dest="levels", type=_parse_level, metavar="N",
                     help="single level, any n >= 0 with 2n+1 below 9e307")
    grp.add_argument("--n-range", dest="levels", type=_parse_range,
                     metavar="A:B[:STEP]",
                     help="inclusive level range of at most 10^6 levels")


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
                   metavar="A:B[:STEP]", required=True,
                   help="inclusive level range of at most 10^6 levels, "
                        "1 <= n < 2^768 (about 1.55e231)")
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
    # SIGTERM's default action runs no Python code, so it would leave a
    # staged temp file; as SystemExit(143) it unwinds through _run's
    # cleanup.  main() runs in callers' processes and installs no handler,
    # and importing signal here spares them its 1 ms import.
    import signal
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # stdout's reader is gone: let the interpreter's last flush pass.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
