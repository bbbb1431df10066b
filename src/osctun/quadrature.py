"""Adaptive Gauss-Kronrod quadrature and the exact tunneling probability.

The engine is a 7-point Gauss / 15-point Kronrod pair driven in waves: every
pending panel contributes its 15 nodes to one batched integrand call, then
panels whose error exceeds their length-proportional share of the tolerance
are bisected.  Semi-infinite integrals are handled by tail truncation with a
geometric remainder bound, or by the substitution x = a + u/(1-u) onto (0, 1).

The tunneling probability of oscillator level n is

    P_n = 2 * integral of psi_n(x)^2 from nu = sqrt(2n+1) to infinity,

and tunneling_exact evaluates it with no quadrature at all.  The ladder
relation psi_n' = sqrt(n/2) psi_{n-1} - sqrt((n+1)/2) psi_{n+1} and the
three-term recurrence (DLMF 18.9) give

    d/dx [psi_n psi_{n-1}] = sqrt(2n) (psi_{n-1}^2 - psi_n^2),

so I_n(a) = int_a^inf psi_n^2 obeys
I_n(a) = I_{n-1}(a) + psi_n(a) psi_{n-1}(a) / sqrt(2n), I_0(a) = erfc(a)/2,
and

    P_n = erfc(nu) + 2 * sum_{k=1..n} psi_k(nu) psi_{k-1}(nu) / sqrt(2k).

The sum is one pass of the normalized recurrence at x = nu
(_kernels.hermite_tail_sum); tunneling_exact_values runs a sweep of levels
as one batched pass (_kernels.hermite_tail_sums) when that is cheaper.  nu
lies beyond the largest zero of every psi_k with k <= n, so every term is
positive and nothing cancels, and at a fixed x beyond the turning point the
forward recurrence in k follows its growing solution, which makes it stable
(Gil, Segura and Temme, Numerical Methods for Special Functions, ch. 4).
The adaptive engine stays in the tests as the independent check of this
route and of the F_n series in asymptotics.big_f_n; no production route
runs it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, specfun

__all__ = [
    "QuadratureConfig", "TunnelingResult",
    "NonConvergenceError", "TruncationFailureError",
    "integrate_finite", "integrate_semi_infinite", "tunneling_exact",
    "tunneling_exact_values",
]

_EPS = float(np.finfo(np.float64).eps)

# One step of the batched tail-sum pass costs about as much as this many
# steps of the scalar loop (numpy call overhead against one CPython step),
# measured with benchmarks/bench_kernels.py; see tunneling_exact_values.
_BATCH_STEP_COST = 36

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive engine.

    rel_tol and abs_tol must be positive, max_subdivisions at least 10,
    tail_cutoff_decades positive.  semi_infinite_strategy selects the
    default route for unbounded integrals.  It stays as the tests' oracle
    config, and because perfbench passes one to tunneling_exact.
    """
    rel_tol: float = 1e-11
    abs_tol: float = 1e-15
    max_subdivisions: int = 2000
    tail_cutoff_decades: float = 20.0
    semi_infinite_strategy: str = "truncation"

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite")
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")
        if not (self.tail_cutoff_decades > 0.0
                and math.isfinite(self.tail_cutoff_decades)):
            raise ValueError("tail_cutoff_decades must be positive")
        if self.semi_infinite_strategy not in ("truncation", "substitution"):
            raise ValueError("unknown semi_infinite_strategy %r"
                             % (self.semi_infinite_strategy,))


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class TunnelingResult:
    """Tunneling probability for level n with its method tag and error estimate."""
    n: int
    value: float
    method: str
    err_estimate: float


class NonConvergenceError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message, value, err_estimate):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class TruncationFailureError(RuntimeError):
    """No tail cutoff point found within the probe horizon."""


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

    Raises
    ------
    NonConvergenceError
        If the panel budget is exhausted before the tolerance is met; the
        exception carries the best value and its error estimate.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
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


def _truncation_route(f, a, cfg, breakpoints):
    # Locate the integrand scale over [a, a+5], then march outward for the
    # first probe point below the cutoff tau = peak * 10^(-decades).
    head = np.linspace(a, a + 5.0, 81)
    hv = np.abs(np.asarray(f(head), dtype=np.float64))
    if not np.all(np.isfinite(hv)):
        raise ValueError("integrand returned a non-finite value")
    peak = float(hv.max())
    probe = a + 5.0 + 2.5 * np.arange(1, 39)  # a+7.5 .. a+100
    pv = np.abs(np.asarray(f(probe), dtype=np.float64))
    if not np.all(np.isfinite(pv)):
        raise ValueError("integrand returned a non-finite value")
    peak = max(peak, float(pv.max()))
    if peak == 0.0:
        return 0.0, 0.0
    tau = peak * 10.0 ** (-cfg.tail_cutoff_decades)

    xs = np.concatenate([head[-1:], probe])
    vs = np.concatenate([hv[-1:], pv])
    below = np.nonzero(vs <= tau)[0]
    if len(below) == 0:
        raise TruncationFailureError(
            "integrand stays above %.3e out to %g; tail not negligible"
            % (tau, a + 100.0))
    i = int(below[0])
    b_cut = float(xs[i])
    g1 = float(vs[i])
    if i > 0:
        g0, dist = float(vs[i - 1]), float(xs[i] - xs[i - 1])
    else:
        g0, dist = float(hv[40]), 2.5  # slope from inside the head grid
    # Geometric tail bound: decay rate from the last two probes.
    if g1 <= 0.0:
        remainder = 0.0
    elif g0 > g1:
        lam = math.log(g0 / g1) / dist
        remainder = g1 / lam
    else:
        remainder = g1 * dist
    bps = [a + 5.0] if b_cut > a + 5.0 else []
    if breakpoints is not None:
        bps.extend(p for p in breakpoints if a < p < b_cut)
    value, err = integrate_finite(f, a, b_cut, cfg, breakpoints=bps)
    return value, err + remainder


def _substitution_route(f, a, cfg, breakpoints):
    def g(u):
        om = 1.0 - u
        return f(a + u / om) / (om * om)

    bps = [0.5, 0.9, 0.99]
    if breakpoints is not None:
        for p in breakpoints:
            d = p - a
            if d > 0.0:
                bps.append(d / (1.0 + d))
    return integrate_finite(g, 0.0, 1.0, cfg, breakpoints=bps)


def integrate_semi_infinite(f, a, config=None, breakpoints=None):
    """Integrate f over [a, infinity).

    The truncation strategy (default) finds a cutoff where the integrand has
    fallen tail_cutoff_decades below its peak, integrates up to it, and adds
    a geometric bound on the remainder to the error estimate.  The
    substitution strategy maps the tail onto (0, 1) via x = a + u/(1-u).

    Raises TruncationFailureError if no cutoff exists within a + 100.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    a = float(a)
    if not math.isfinite(a):
        raise ValueError("lower endpoint must be finite")
    if cfg.semi_infinite_strategy == "substitution":
        return _substitution_route(f, a, cfg, breakpoints)
    return _truncation_route(f, a, cfg, breakpoints)


def tunneling_exact(n, config=None):
    """Exact tunneling probability P_n = 2 * int_nu^inf psi_n^2, nu = sqrt(2n+1).

    Parameters
    ----------
    n : int
        Quantum number, n >= 0.
    config : QuadratureConfig, optional
        Unused: the value comes from a closed-form sum, not from quadrature.
        It is still accepted because perfbench's pn_points workload passes
        one positionally.

    Returns
    -------
    TunnelingResult
        method "exact"; value in (0, 1).

    Notes
    -----
    The sum in the module docstring is evaluated at the double nu that
    rounds sqrt(2n+1), with psi_0 taken at that same double so that every
    term belongs to one function of a.  The rounding of nu alone moves P by
    up to psi_n^2 ulp(nu), which is 3e-14 of P_n at n = 1000 and grows like
    n^(2/3) eps: the double-precision limit of any method that takes nu as
    a double.  To first order the shift is
    -dP/da * (nu - sqrt(2n+1)) = 2 psi_n^2 * r / (2 nu), where
    r = nu^2 - (2n+1) is formed exactly with two_prod, and that term is
    added back.  What remains is rounding in the n recurrence steps and the
    sum, which grows about linearly in n, so err_estimate = 2 (n + 4) eps P_n.
    Against 50-digit references at n = 0..1000 the true error stays below
    a quarter of that.
    """
    state = specfun.OscillatorState.from_n(n)
    tail, psi_n = _kernels.hermite_tail_sum(state.n, state.nu)
    return _exact_result(state, tail, psi_n)


def _exact_result(state, tail, psi_n):
    """P_n from the tail sum at nu, with the nu-rounding correction and
    err_estimate of tunneling_exact."""
    n, nu = state.n, state.nu
    nu2, nu2_err = _kernels.two_prod(nu, nu)
    r = (nu2 - (2.0 * n + 1.0)) + nu2_err
    value = math.erfc(nu) + 2.0 * tail + psi_n * psi_n * r / nu
    return TunnelingResult(n=n, value=value, method="exact",
                           err_estimate=2.0 * (n + 4) * _EPS * value)


def tunneling_exact_values(ns):
    """tunneling_exact(n) for every n in ns, in input order, bit for bit.

    Every n is checked before any is computed, and a repeated n is
    computed once.  The levels share one batched pass of the recurrence
    (_kernels.hermite_tail_sums), of max n steps, when that is cheaper
    than one scalar pass per level, of n steps each: that is, when the
    sum of the levels exceeds _BATCH_STEP_COST times the largest.
    """
    states = [specfun.OscillatorState.from_n(n) for n in ns]
    levels = {st.n: st for st in states}
    if sum(levels) > _BATCH_STEP_COST * max(levels, default=0):
        tails, psis = _kernels.hermite_tail_sums(
            list(levels), [st.nu for st in levels.values()])
        by_n = {n: _exact_result(st, float(tail), float(psi))
                for (n, st), tail, psi in zip(levels.items(), tails, psis)}
    else:
        by_n = {n: tunneling_exact(n) for n in levels}
    return [by_n[st.n] for st in states]
