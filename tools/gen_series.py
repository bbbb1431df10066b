"""Chebyshev coefficients of the six records of osctun.series: the P_n and
F_n series in s = (2n+1)^(-2/3), the two records of the turning-point map
near x = 1, and the two records of the Airy function on t in [0, 9].

Usage:
    python3 tools/gen_series.py            # print the six coefficient tuples
    python3 tools/gen_series.py --check    # compare them with osctun.series

Each record has a row in SERIES: its sampler from tools/oracle.py, which
names the sampler's method and precision, the number of first-kind
Chebyshev points sampled on [0, s_hi], the degree kept, the digits of the
discrete cosine transform, and s_hi.  The transform gives c_k in
sum_k c_k T_k(2s/s_hi - 1).  The first coefficient dropped is about
1.2e-19 for P, 2e-20 for F, 1e-19 for PHI, 5e-20 for PSI, 7e-19 for AI and
5e-19 for AIP.

- P and F: G(s) = s^(-1/2) P at the real level N with (2N+1)^(-2/3) = s,
  and F(s) = int_0^inf f(x(s t)) Ai(t)^2 dt, on [0, 3^(-2/3)], where
  s = 3^(-2/3) is n = 1 and s -> 0 is n -> infinity.  n = 0 lies outside,
  at s = 1, and is erfc(1) in osctun.  P's end is 3^(-2/3) rounded to 53
  bits (the double osctun.series.S_MAX, which both records are summed on),
  F's is 3^(-2/3) at 40 digits; one end for both moves 18 of P's 21
  coefficients.
- PHI: Phi(e) = zeta(1+e) / (2^(1/3) e) on e = x - 1 in [0, 1], and PSI:
  Psi(zeta) = (x - 1) / zeta on [0, zeta(2)], with zeta(2) rounded to a
  double.
- AI and AIP: A(u) = Ai(u^2) exp((2/3) u^3) and A1(u) = -Ai'(u^2)
  exp((2/3) u^3) on u = sqrt(t) in [0, 3], so that Ai(t) = A(u) exp(-z)
  and Ai'(t) = -A1(u) exp(-z), z = (2/3) u^3 (DLMF 9.7.5).

The script first checks the real-order sum against the 50-digit
integer-level sum (oracle.p_n), a second method, at REFERENCE_LEVELS; then
it prints each record's tuple as osctun.series holds it, and the dropped
coefficients on stderr.  --check compares them with the records instead
and exits 1 on any difference.  It needs mpmath only and takes 70 to 80 s
on a 2-CPU x86 machine, most of it in P's sample nearest s = 0
(n = 2e5); the map and Airy records take a tenth of a second each.
"""

import argparse
import os
import sys
import time
from collections import namedtuple

import mpmath

import oracle

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
REFERENCE_LEVELS = (0, 1, 5, 37, 200)


def map_end():
    """zeta(2) rounded to a double, the end of PSI's interval."""
    with mpmath.workdps(oracle.MAP_DPS):
        return mpmath.mpf(float(oracle.zeta(2)))


def interval_end(precision):
    """3^(-2/3) in the mpmath precision context given."""
    with precision:
        return mpmath.mpf(3) ** (-mpmath.mpf(2) / 3)


# record name in osctun.series, sampler, samples, kept degree, DCT digits,
# sampled interval end
Series = namedtuple("Series", "name sample samples degree dps s_hi")
SERIES = (
    Series("P", oracle.g_of_s, 40, 20, oracle.P_DPS,
           interval_end(mpmath.workprec(53))),
    Series("F", oracle.big_f_of_s, 24, 17, 40,
           interval_end(mpmath.workdps(40))),
    Series("PHI", oracle.phi_of_e, 24, 15, oracle.MAP_DPS, mpmath.mpf(1)),
    Series("PSI", oracle.psi_of_zeta, 28, 19, oracle.MAP_DPS, map_end()),
    Series("AI", oracle.airy_a, 48, 34, oracle.AIRY_DPS, mpmath.mpf(3)),
    Series("AIP", oracle.airy_a1, 48, 35, oracle.AIRY_DPS, mpmath.mpf(3)),
)


def chebyshev_coefficients(series):
    """All series.samples coefficients c_k, with c_0 already halved."""
    n = series.samples
    with mpmath.workdps(series.dps):
        theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
        values = [series.sample(series.s_hi * (1 + mpmath.cos(th)) / 2)
                  for th in theta]
        coeffs = []
        for k in range(n):
            c = 2 * mpmath.fsum(v * mpmath.cos(k * th)
                                for v, th in zip(values, theta)) / n
            coeffs.append(c / 2 if k == 0 else c)
        return coeffs


def reference_gap():
    """Largest |p_of_level(n) - p_n(n)| over the REFERENCE_LEVELS."""
    with mpmath.workdps(oracle.P_DPS):
        return max(abs(oracle.p_of_level(n) - oracle.p_n(n))
                   for n in REFERENCE_LEVELS)


def literal(series, coeffs):
    """The coefficient tuple osctun.series holds, from c_0..c_degree of
    coeffs."""
    lines = ["("]
    lines.extend("    %r," % float(c) for c in coeffs[:series.degree + 1])
    lines.append(")")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the records in osctun.series")
    args = parser.parse_args()
    gap = reference_gap()
    print("max |real-order sum - integer sum| at n = %s: %s"
          % (", ".join(map(str, REFERENCE_LEVELS)), mpmath.nstr(gap, 2)),
          file=sys.stderr)
    if gap > mpmath.mpf(10) ** -40:
        print("the real-order and integer sums disagree", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from osctun import series as records
    status = 0
    for series in SERIES:
        start = time.perf_counter()
        coeffs = chebyshev_coefficients(series)
        print("%s: %d samples in %.1f s; dropped |c_k|, k = %d..%d: %s"
              % (series.name, series.samples, time.perf_counter() - start,
                 series.degree + 1, series.samples - 1,
                 " ".join(mpmath.nstr(abs(c), 2)
                          for c in coeffs[series.degree + 1:])),
              file=sys.stderr)
        where = "osctun.series.%s.coeffs" % series.name
        if not args.check:
            print("%s = %s" % (where, literal(series, coeffs)))
            continue
        frozen = getattr(records, series.name).coeffs
        if frozen == tuple(float(c) for c in coeffs[:series.degree + 1]):
            print(where + " matches, bit for bit")
        else:
            print(where + " differs from the generated coefficients:\n"
                  + literal(series, coeffs))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
