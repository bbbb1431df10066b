"""Validation sweeps: formula comparisons, the monotonicity lemma, figures.

Everything here is deterministic: the same inputs produce bit-identical
tables, so CSV output downstream is reproducible.  A table is its column
names and one column per name: the levels as a list of ints, the values as
float64 arrays.  The comparison and ratio tables take each quantity from one
call of its checked entry, looked up at call time, and build no object per
level; compare_sweep and ratio_sweep zip their columns into rows.
"""

import math
from collections import namedtuple

import numpy as np

from . import _kernels, asymptotics, quadrature, specfun
from .asymptotics import F_INFINITY, X_MAX, f_of_x, zeta_of_x

__all__ = [
    "ComparisonRow", "LemmaReport", "FigureData",
    "compare_sweep", "comparison_table", "lemma_check", "ratio_sweep",
    "ratio_table", "figure_dataset",
]


class ComparisonRow(namedtuple("ComparisonRow", "n p_exact p_leading "
                               "p_second err_leading err_second "
                               "scaled_err_second")):
    """Exact vs asymptotic tunneling probabilities at one n."""
    __slots__ = ()


class LemmaReport(namedtuple("LemmaReport", "grid_size max_violation "
                             "endpoint_left endpoint_decay passed")):
    """Numerical check that f is monotone decreasing from 2^(-2/3) toward 0."""
    __slots__ = ()


class FigureData(namedtuple("FigureData", "figure_id columns values")):
    """Tabular dataset behind one figure: column names plus one list or
    array of values per column."""
    __slots__ = ()


# n^(4/3) stays finite to about 1.5525e231, 2^768 too, as 4/3 rounds down.
_COMPARE_LEVEL_LIMIT = 2 ** 768


def compare_sweep(n_values):
    """One ComparisonRow per n, in input order: comparison_table's columns,
    zipped."""
    ns, *cols = comparison_table(n_values)[1]
    return [ComparisonRow(*row)
            for row in zip(ns, *(c.tolist() for c in cols))]


def comparison_table(n_values):
    """The ComparisonRow field names, and the table as one column per
    field: the levels as a list of ints, then one float64 array per other
    field, in input order.

    n_values is a list, range, tuple or 1-d integer array.  Every n is
    checked first: 1 <= n < 2^768, past which n^(4/3) overflows; then each
    entry takes n_values as it is, so a range is checked by its ends.
    scaled_err_second = err_second * n^(4/3) exposes the remainder order.
    """
    ns = specfun._check_levels(n_values, 1)
    if ns and max(ns) >= _COMPARE_LEVEL_LIMIT:
        raise ValueError("comparison requires n < 2^768 (about 1.55e231)")
    p = quadrature.tunneling_exact(n_values).value
    lead = asymptotics.leading_term(n_values).value
    sec = asymptotics.second_order(n_values).value
    err_sec = np.abs(p - sec)
    # Python's pow, as in the asymptotic entries, and one rounding per product.
    n43 = np.array([float(n) ** (4.0 / 3.0) for n in ns], dtype=np.float64)
    return ComparisonRow._fields, [ns, p, lead, sec, np.abs(p - lead),
                                   err_sec, err_sec * n43]


def lemma_check(x_max, grid_size):
    """Check f for monotone decrease on a geometric grid over (1, x_max].

    max_violation is the largest forward difference f(x_{i+1}) - f(x_i)
    including the seam from f(1) to the first grid point; negative means
    strictly decreasing everywhere.  passed demands no violation beyond a
    2 ulp slack and the exact 2^(-2/3) left endpoint.
    """
    x_max = float(x_max)
    if not 1.0 < x_max <= X_MAX:
        raise ValueError("x_max must exceed 1 and be at most X_MAX = %g"
                         % X_MAX)
    grid_size = int(grid_size)
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")

    # The grid starts at x - 1 = 1e-9, or at (x_max - 1)/2 when x_max is
    # closer to 1 than 2e-9, so it lies inside (1, x_max] and increases.
    e_max = x_max - 1.0
    e_min = min(1e-9, 0.5 * e_max)
    ratio = np.arange(grid_size) / (grid_size - 1.0)
    e = e_min * (e_max / e_min) ** ratio
    e[-1] = e_max
    fv = _kernels.f_from_e(e)
    endpoint_left = f_of_x(1.0)
    seq = np.concatenate([[endpoint_left], fv])
    max_violation = float(np.diff(seq).max())
    slack = 2.0 * float(np.spacing(endpoint_left))
    passed = (max_violation <= slack
              and abs(endpoint_left - _kernels.TWO_M23) <= 1e-8)
    return LemmaReport(grid_size=grid_size, max_violation=max_violation,
                       endpoint_left=endpoint_left,
                       endpoint_decay=float(fv[-1]), passed=bool(passed))


def ratio_table(n_values):
    """The ratios F_infinity / F_n as ("n", "ratio") and two columns: the
    levels as a list, in input order, and the ratios as a float64 array
    from one big_f_n call, which takes n_values as it is."""
    ratios = F_INFINITY / asymptotics.big_f_n(n_values)
    return ("n", "ratio"), [list(n_values), ratios]


def ratio_sweep(n_min, n_max):
    """Pairs (n, F_infinity / F_n) for n_min <= n <= n_max: ratio_table's
    columns, zipped."""
    specfun._check_levels([n_min, n_max], 1)
    if n_min > n_max:
        raise ValueError("need n_min <= n_max")
    ns, ratios = ratio_table(range(n_min, n_max + 1))[1]
    return list(zip(ns, ratios.tolist()))


def _figure_one():
    n, u_max, points = 40, 1.6, 1601
    nu = math.sqrt(2.0 * n + 1.0)
    u = np.linspace(-u_max, u_max, points)
    dens = nu * specfun.hermite_psi_squared(n, nu * u)
    inside = u[np.abs(u) < 1.0]
    classical = 1.0 / (math.pi * np.sqrt(1.0 - inside * inside))
    p = quadrature.tunneling_exact(range(n + 1)).value
    labels = (["density"] * points + ["classical"] * len(inside)
              + ["tunneling"] * (n + 1))
    x = np.concatenate([u, inside, np.arange(n + 1, dtype=np.float64)])
    return ("series", "x", "y"), [labels, x,
                                  np.concatenate([dens, classical, p])]


def _figure_three():
    x_max, points = 5.0, 400
    ratio = np.arange(points) / (points - 1.0)
    e = 1e-4 * ((x_max - 1.0) / 1e-4) ** ratio
    x = 1.0 + e
    return ("x", "zeta"), [np.concatenate([[1.0], x]),
                           np.concatenate([[0.0], zeta_of_x(x)])]


def figure_dataset(figure_id):
    """Dataset behind one of the five figures.

    1: rescaled density of level 40 with the classical density and the
       tunneling-probability curve; 2: comparison table n=5..612;
    3: the (x, zeta) map; 4: ratio sweep n=6..500; 5: comparison n=513..612.
    """
    if type(figure_id) is bool or not isinstance(figure_id, (int, np.integer)):
        raise TypeError("figure id must be an integer, got %r" % (figure_id,))
    figure_id = int(figure_id)
    build = {1: _figure_one, 3: _figure_three,
             2: lambda: comparison_table(range(5, 613)),
             4: lambda: ratio_table(range(6, 501)),
             5: lambda: comparison_table(range(513, 613))}.get(figure_id)
    if build is None:
        raise ValueError("unknown figure id %d" % figure_id)
    return FigureData(figure_id, *build())
