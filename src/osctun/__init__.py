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

a sum of positive terms from one stable pass of the Hermite recurrence at
x = nu; its err_estimate, 2 (n + 4) eps P_n, covers the recurrence
rounding, and the rounding of nu to double is corrected to first order
(see osctun.quadrature).  The Airy-weighted integrals F_n depend on n
only through s = (2n+1)^(-2/3) and come from an 18-term Chebyshev series
in s with frozen coefficients (see osctun.asymptotics.big_f_n).  Sweeps
over n (tunneling_exact_values, big_f_n_values) run in one pass across
levels and return the bits of one call per level.  Adaptive Gauss-Kronrod
quadrature checks both in the tests; no production route runs it.
"""

from .specfun import (GAMMA, AiryValue, GammaConstants, OscillatorState,
                      airy_ai, airy_ai_prime, hermite_psi, hermite_psi_squared)
from .quadrature import (DEFAULT_CONFIG, NonConvergenceError, QuadratureConfig,
                         TruncationFailureError, TunnelingResult,
                         integrate_finite, integrate_semi_infinite,
                         tunneling_exact, tunneling_exact_values)
from .asymptotics import (C1, C2, F_INFINITY, IterationLimitError, OlverApprox,
                          ZetaPoint, big_f_n, big_f_n_values, f_n, f_of_x,
                          leading_term,
                          olver_approx, second_order, x_of_zeta, zeta_of_x)
from .analysis import (ComparisonRow, FigureData, LemmaReport, compare_sweep,
                       figure_dataset, lemma_check, ratio_sweep)

__version__ = "0.1.0"

__all__ = [
    "GAMMA", "AiryValue", "GammaConstants", "OscillatorState",
    "airy_ai", "airy_ai_prime", "hermite_psi", "hermite_psi_squared",
    "DEFAULT_CONFIG", "NonConvergenceError", "QuadratureConfig",
    "TruncationFailureError", "TunnelingResult",
    "integrate_finite", "integrate_semi_infinite", "tunneling_exact",
    "tunneling_exact_values",
    "C1", "C2", "F_INFINITY", "IterationLimitError", "OlverApprox",
    "ZetaPoint", "big_f_n", "big_f_n_values", "f_n", "f_of_x", "leading_term", "olver_approx",
    "second_order", "x_of_zeta", "zeta_of_x",
    "ComparisonRow", "FigureData", "LemmaReport", "compare_sweep",
    "figure_dataset", "lemma_check", "ratio_sweep",
    "__version__",
]
