"""Exact and asymptotic tunneling probabilities of the harmonic oscillator.

The probability that the n-th oscillator eigenstate is found beyond its
classical turning points is P_n = 2 int_nu^inf psi_n(x)^2 dx, nu = sqrt(2n+1).
This package evaluates P_n exactly, through Airy-type asymptotic formulas
with computed coefficients, and through a uniform turning-point
approximation with an explicit error bound, plus the sweeps that validate
them against each other.

The exact P_n needs no quadrature.  From d/dx [psi_n psi_{n-1}] =
sqrt(2n) (psi_{n-1}^2 - psi_n^2) the tail integral telescopes to

    P_n = erfc(nu) + 2 sum_{k=1..n} psi_k(nu) psi_{k-1}(nu) / sqrt(2k),

and the identity holds at real order too, so P_n / sqrt(s) is a smooth
function of s = (2n+1)^(-2/3).  So are the Airy-weighted integrals F_n.
osctun.series is the one home of both: a record per series, with its
frozen Chebyshev coefficients (tools/gen_series.py) and its err_estimate
claim, one evaluator, and the one cube root of 2n+1.  Each quantity has one
route and one public entry, O(1) at any level, taking one level or a sequence
with the bits of one call per level: tunneling_exact (P_n), leading_term and
second_order (its asymptotic formulas) and big_f_n (F_n).
Adaptive Gauss-Kronrod quadrature checks both in the tests; no production
route runs it.
"""

from .specfun import (GAMMA, AiryValue, GammaConstants, airy_ai,
                      airy_ai_prime, hermite_psi, hermite_psi_squared)
from .quadrature import (NonConvergenceError, QuadratureConfig,
                         TunnelingResult, integrate_finite,
                         integrate_semi_infinite, tunneling_exact)
from .asymptotics import (C1, C2, F_INFINITY, OlverApprox, big_f_n, f_n,
                          f_of_x, leading_term, olver_approx, second_order,
                          x_of_zeta, zeta_of_x)
from .analysis import (ComparisonRow, FigureData, LemmaReport, compare_sweep,
                       figure_dataset, lemma_check, ratio_sweep)

__version__ = "0.1.0"

__all__ = [
    "GAMMA", "AiryValue", "GammaConstants",
    "airy_ai", "airy_ai_prime", "hermite_psi", "hermite_psi_squared",
    "NonConvergenceError", "QuadratureConfig", "TunnelingResult",
    "integrate_finite", "integrate_semi_infinite", "tunneling_exact",
    "C1", "C2", "F_INFINITY", "OlverApprox", "big_f_n",
    "f_n", "f_of_x", "leading_term", "olver_approx", "second_order",
    "x_of_zeta", "zeta_of_x",
    "ComparisonRow", "FigureData", "LemmaReport", "compare_sweep",
    "figure_dataset", "lemma_check", "ratio_sweep",
    "__version__",
]
