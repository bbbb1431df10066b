"""Validation sweeps: formula comparisons, the monotonicity lemma, figures.

Everything here is deterministic: the same inputs produce bit-identical
tables, so CSV output downstream is reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import specfun
from .quadrature import tunneling_exact_values
from .asymptotics import (F_INFINITY, big_f_n_values, f_of_x, leading_term,
                          second_order, zeta_of_x_values)

__all__ = [
    "ComparisonRow", "LemmaReport", "FigureData",
    "compare_sweep", "comparison_table", "lemma_check", "ratio_sweep",
    "ratio_table", "figure_dataset",
]


@dataclass(frozen=True)
class ComparisonRow:
    """Exact vs asymptotic tunneling probabilities at one n."""
    n: int
    p_exact: float
    p_leading: float
    p_second: float
    err_leading: float
    err_second: float
    scaled_err_second: float


@dataclass(frozen=True)
class LemmaReport:
    """Numerical check that f is monotone decreasing from 2^(-2/3) toward 0."""
    grid_size: int
    max_violation: float
    endpoint_left: float
    endpoint_decay: float
    passed: bool


@dataclass(frozen=True)
class FigureData:
    """Tabular dataset behind one figure: column names plus row tuples."""
    figure_id: int
    columns: tuple
    rows: list


def compare_sweep(n_values):
    """One ComparisonRow per n, in input order.

    Each row combines the exact tail integral with both asymptotic formulas;
    scaled_err_second = err_second * n^(4/3) exposes the remainder order.
    Every n is checked before any is computed, and the exact values come
    from one tunneling_exact_values call.
    """
    ns = [int(n) for n in n_values]
    for n in ns:
        if n < 1:
            raise ValueError("comparison requires n >= 1, got %d" % n)
    rows = []
    for n, exact in zip(ns, tunneling_exact_values(ns)):
        p_exact = exact.value
        p_lead = leading_term(n).value
        p_sec = second_order(n).value
        err_lead = abs(p_exact - p_lead)
        err_sec = abs(p_exact - p_sec)
        rows.append(ComparisonRow(
            n=n, p_exact=p_exact, p_leading=p_lead, p_second=p_sec,
            err_leading=err_lead, err_second=err_sec,
            scaled_err_second=err_sec * float(n) ** (4.0 / 3.0)))
    return rows


def comparison_table(n_values):
    """compare_sweep(n_values) as (columns, rows): the seven ComparisonRow
    field names, and one tuple of those fields per n."""
    columns = ("n", "p_exact", "p_leading", "p_second",
               "err_leading", "err_second", "scaled_err_second")
    rows = [(r.n, r.p_exact, r.p_leading, r.p_second,
             r.err_leading, r.err_second, r.scaled_err_second)
            for r in compare_sweep(n_values)]
    return columns, rows


def lemma_check(x_max, grid_size):
    """Check f for monotone decrease on a geometric grid over (1, x_max].

    max_violation is the largest forward difference f(x_{i+1}) - f(x_i)
    including the seam from f(1) to the first grid point; negative means
    strictly decreasing everywhere.  passed demands no violation beyond a
    2 ulp slack and the exact 2^(-2/3) left endpoint.
    """
    x_max = float(x_max)
    if not (x_max > 1.0 and math.isfinite(x_max)):
        raise ValueError("x_max must be finite and exceed 1")
    grid_size = int(grid_size)
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")

    e_min, e_max = 1e-9, x_max - 1.0
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
    """The ratios F_infinity / F_n as (columns, rows): ("n", "ratio") and one
    (n, ratio) pair per n, in input order, from one big_f_n_values call."""
    ns = list(n_values)
    ratios = F_INFINITY / big_f_n_values(ns)
    return ("n", "ratio"), list(zip(ns, ratios.tolist()))


def ratio_sweep(n_min, n_max):
    """Pairs (n, F_infinity / F_n) for n_min <= n <= n_max: the rows of
    ratio_table."""
    n_min, n_max = int(n_min), int(n_max)
    if not (1 <= n_min <= n_max):
        raise ValueError("need 1 <= n_min <= n_max")
    return ratio_table(range(n_min, n_max + 1))[1]


def _figure_one():
    n, u_max, points = 40, 1.6, 1601
    nu = math.sqrt(2.0 * n + 1.0)
    u = np.linspace(-u_max, u_max, points)
    dens = nu * specfun.hermite_psi_squared(n, nu * u)
    rows = [("density", float(ui), float(di)) for ui, di in zip(u, dens)]
    inside = np.abs(u) < 1.0
    for ui in u[inside]:
        rows.append(("classical", float(ui),
                     1.0 / (math.pi * math.sqrt(1.0 - ui * ui))))
    for r in tunneling_exact_values(range(0, n + 1)):
        rows.append(("tunneling", float(r.n), r.value))
    return ("series", "x", "y"), rows


def _figure_three():
    x_max, points = 5.0, 400
    ratio = np.arange(points) / (points - 1.0)
    e = 1e-4 * ((x_max - 1.0) / 1e-4) ** ratio
    x = 1.0 + e
    zeta = zeta_of_x_values(x)
    rows = [(1.0, 0.0)]
    rows.extend((float(xi), float(zi)) for xi, zi in zip(x, zeta))
    return ("x", "zeta"), rows


def figure_dataset(figure_id):
    """Dataset behind one of the five figures.

    1: rescaled density of level 40 with the classical density and the
       tunneling-probability curve; 2: comparison table n=5..612;
    3: the (x, zeta) map; 4: ratio sweep n=6..500; 5: comparison n=513..612.
    """
    figure_id = int(figure_id)
    if figure_id == 1:
        cols, rows = _figure_one()
    elif figure_id == 2:
        cols, rows = comparison_table(range(5, 613))
    elif figure_id == 3:
        cols, rows = _figure_three()
    elif figure_id == 4:
        cols, rows = ratio_table(range(6, 501))
    elif figure_id == 5:
        cols, rows = comparison_table(range(513, 613))
    else:
        raise ValueError("unknown figure id %d" % figure_id)
    return FigureData(figure_id=figure_id, columns=cols, rows=rows)
