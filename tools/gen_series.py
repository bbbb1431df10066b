"""Chebyshev coefficients of the P_n and F_n series in s = (2n+1)^(-2/3),
of the two records of the turning-point map near x = 1, and of the two
records of the Airy function on t in [0, 9].

Usage:
    python3 tools/gen_series.py            # print the six coefficient tuples
    python3 tools/gen_series.py --check    # compare them with osctun.series

The P_n and F_n series are functions of s = nu^(-4/3) = (2n+1)^(-2/3) on
[0, 3^(-2/3)], where s = 3^(-2/3) is n = 1 and s -> 0 is n -> infinity.
Each series is sampled at first-kind Chebyshev points of its interval, and
the discrete cosine transform of the samples gives c_k in
sum_k c_k T_k(2s/s_hi - 1), s_hi the interval's end.

- P: G(s) = s^(-1/2) P at the real level N, 40 samples at 50 digits,
  c_0..c_20 kept (c_21 is about 1.2e-19), frozen as osctun.series.P.
  P_n = 2 int_nu^inf psi_n^2 holds at real order with psi_N(x) = D_N(sqrt(2) x) / sqrt(Gamma(N+1) sqrt(pi)), D_N =
  mpmath.pcfd (DLMF 12.2), and so does the telescoping identity of
  osctun.series, started from the fractional part N0 = N - floor(N):

      P(N) = 2 I_N0(a) + 2 sum_{j=1..floor(N)} psi_{N0+j}(a) psi_{N0+j-1}(a)
                                                / sqrt(2 (N0+j)),

  a = sqrt(2N+1), I_N0(a) = int_a^inf psi_N0^2 by one mpmath quadrature,
  and the forward recurrence, which follows its growing solution beyond the
  turning point.  n = 0 lies outside the interval, at s = 1, and is
  erfc(1) in osctun.
- F: F(s) = int_0^inf f(x(s t)) Ai(t)^2 dt, 24 samples by 30-digit mpmath
  quadrature in x, DCT at 40 digits, c_0..c_17 kept (c_18 is about 2e-20),
  frozen as osctun.series.F.  With t = zeta(x)/s and
  zeta'(x) = f(x)^(-1/2), F(s) = (1/s) int_1^inf sqrt(f(x)) Ai(zeta(x)/s)^2 dx
  needs no inversion of the map.

The sampled interval ends differ: P's is 3^(-2/3) rounded to 53 bits (the
double osctun.series.S_MAX, which both records are summed on), F's is
3^(-2/3) at 40 digits.  One end for both moves 18 of P's 21 coefficients.

The map zeta(x) = ((3/4)(x sqrt(x^2-1) - arccosh x))^(2/3) has one record
per direction on [1, 2], each sampled at 40 digits with the DCT at 40:

- PHI: Phi(e) = zeta(1+e) / (2^(1/3) e) on e = x - 1 in [0, 1], 24
  samples, c_0..c_15 kept (c_16 is about 1e-19), frozen as
  osctun.series.PHI.  Phi(0) = 1.
- PSI: Psi(zeta) = (x - 1) / zeta on [0, zeta(2)], with the end zeta(2)
  rounded to a double, 28 samples, c_0..c_19 kept (c_20 is about 5e-20),
  frozen as osctun.series.PSI.  Psi(0) = 2^(-1/3).  Each sample's x - 1 is
  an mpmath root of zeta(1 + e) = zeta.

The Airy function is Ai(t) = A(u) exp(-z) with u = sqrt(t) and
z = (2/3) u^3 (DLMF 9.7.5), and Ai'(t) = -A1(u) exp(-z).  A and A1 are
entire in u and vary by under a factor of three on [0, 3], t in [0, 9];
each is sampled with mpmath.airyai at 48 points and 40 digits, DCT at 40:

- AI: A(u) = Ai(u^2) exp((2/3) u^3), c_0..c_34 kept (c_35 is about
  7e-19), frozen as osctun.series.AI.  A(0) = Ai(0), and A falls to 0.162.
- AIP: A1(u) = -Ai'(u^2) exp((2/3) u^3), c_0..c_35 kept (c_36 is about
  5e-19), frozen as osctun.series.AIP.  A1(0) = -Ai'(0), and A1 rises to
  0.49.

The script checks the real-order sum against the independent 50-digit
perfbench/references.PnReference, then prints each record's coefficient
tuple as osctun.series holds it, and the dropped coefficients on stderr;
--check compares them with the records instead and exits 1 on any
difference.  It needs mpmath only and takes 70 to 80 s on a 2-CPU x86
machine, most of it in P's sample nearest s = 0 (n = 2e5); the two map
records and the two Airy records take a tenth of a second each.
"""

import argparse
import os
import sys
import time
from collections import namedtuple

import mpmath

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
P_DPS = 50
F_DPS = 30
MAP_DPS = 40
AIRY_DPS = 40
REFERENCE_LEVELS = (0, 1, 5, 37, 200)


def psi(order, x):
    """Real-order oscillator eigenfunction psi_order(x)."""
    return mpmath.pcfd(order, mpmath.sqrt(2) * x) / mpmath.sqrt(
        mpmath.gamma(order + 1) * mpmath.sqrt(mpmath.pi))


def p_of_level(level):
    """P at the real level N >= 0 by the real-order telescoping sum."""
    with mpmath.workdps(P_DPS):
        level = mpmath.mpf(level)
        steps = int(mpmath.floor(level))
        order0 = level - steps
        a = mpmath.sqrt(2 * level + 1)
        # psi_N0^2 falls like exp(-x^2) from a, over a width of about 1/a.
        w = 1 / a
        total = 2 * mpmath.quad(lambda x: psi(order0, x) ** 2,
                                [a, a + w, a + 4 * w, a + 16 * w, mpmath.inf])
        if steps == 0:
            return total
        x2 = mpmath.sqrt(2) * a
        prev, cur = psi(order0, a), psi(order0 + 1, a)
        root = mpmath.sqrt(order0 + 1)
        total += mpmath.sqrt(2) * cur * prev / root
        for j in range(2, steps + 1):
            root_prev, root = root, mpmath.sqrt(order0 + j)
            prev, cur = cur, (x2 * cur - root_prev * prev) / root
            total += mpmath.sqrt(2) * cur * prev / root
        return total


def g_of_s(s):
    """G(s) = s^(-1/2) P at the level N with (2N+1)^(-2/3) = s."""
    with mpmath.workdps(P_DPS):
        s = mpmath.mpf(s)
        return p_of_level((s ** (-mpmath.mpf(3) / 2) - 1) / 2) / mpmath.sqrt(s)


def zeta_of_x(x):
    """zeta(x) at the working precision."""
    # x sqrt(x^2 - 1) - arccosh x cancels like (x - 1)^(3/2) near the
    # turning point, where F's tanh-sinh nodes crowd; 70 more digits keep
    # zeta at full precision there.
    with mpmath.extradps(70):
        r = mpmath.sqrt(x * x - 1)
        z = (mpmath.mpf(3) / 4 * (x * r - mpmath.acosh(x))) ** (
            mpmath.mpf(2) / 3)
    return +z


def big_f_of_s(s):
    """F(s) at 30 digits by quadrature in x, as in the tests' mp_big_f_n."""
    with mpmath.workdps(F_DPS):
        nu43 = 1 / mpmath.mpf(s)

        def integrand(x):
            if x == 1:
                # sqrt(f(1)) = 2^(-1/3), the limit where zeta/(x^2 - 1)
                # is 0/0
                return mpmath.cbrt(0.5) * mpmath.airyai(0) ** 2
            z = zeta_of_x(x)
            return mpmath.sqrt(z / (x * x - 1)) * mpmath.airyai(nu43 * z) ** 2

        # Panel edges where t = 0.5 .. 80 follow the decay of Ai(t)^2.
        edges = [mpmath.mpf(1)]
        for t in (0.5, 2, 5, 10, 20, 40, 80):
            guess = 1 + t / nu43 / mpmath.mpf(2) ** (mpmath.mpf(1) / 3)
            edges.append(mpmath.findroot(lambda x: nu43 * zeta_of_x(x) - t,
                                        guess))
        return nu43 * mpmath.quad(integrand, edges)


def phi_of_e(e):
    """Phi(e) = zeta(1+e) / (2^(1/3) e) at MAP_DPS digits."""
    with mpmath.workdps(MAP_DPS):
        e = mpmath.mpf(e)
        # x = 1 + e exactly, however small e is
        with mpmath.extradps(70):
            zeta = zeta_of_x(1 + e)
        return zeta / (mpmath.cbrt(2) * e)


def psi_of_zeta(zeta):
    """Psi(zeta) = (x - 1) / zeta with zeta(x) = zeta, at MAP_DPS digits."""
    with mpmath.workdps(MAP_DPS):
        zeta = mpmath.mpf(zeta)
        with mpmath.extradps(10):
            e = mpmath.findroot(lambda e: zeta_of_x(1 + e) - zeta,
                                zeta / mpmath.cbrt(2))
        return e / zeta


def map_end():
    """zeta(2) rounded to a double, the end of PSI's interval."""
    with mpmath.workdps(MAP_DPS):
        return mpmath.mpf(float(zeta_of_x(mpmath.mpf(2))))


def a_of_u(u):
    """A(u) = Ai(u^2) exp((2/3) u^3) at AIRY_DPS digits."""
    with mpmath.workdps(AIRY_DPS):
        u = mpmath.mpf(u)
        return mpmath.airyai(u * u) * mpmath.exp(2 * u ** 3 / 3)


def a1_of_u(u):
    """A1(u) = -Ai'(u^2) exp((2/3) u^3) at AIRY_DPS digits."""
    with mpmath.workdps(AIRY_DPS):
        u = mpmath.mpf(u)
        return -mpmath.airyai(u * u, derivative=1) * mpmath.exp(2 * u ** 3 / 3)


def interval_end(precision):
    """3^(-2/3) in the mpmath precision context given."""
    with precision:
        return mpmath.mpf(3) ** (-mpmath.mpf(2) / 3)


# record name in osctun.series, sampler, samples, kept degree, DCT digits,
# sampled interval end
Series = namedtuple("Series", "name sample samples degree dps s_hi")
SERIES = (
    Series("P", g_of_s, 40, 20, P_DPS, interval_end(mpmath.workprec(53))),
    Series("F", big_f_of_s, 24, 17, 40, interval_end(mpmath.workdps(40))),
    Series("PHI", phi_of_e, 24, 15, MAP_DPS, mpmath.mpf(1)),
    Series("PSI", psi_of_zeta, 28, 19, MAP_DPS, map_end()),
    Series("AI", a_of_u, 48, 34, AIRY_DPS, mpmath.mpf(3)),
    Series("AIP", a1_of_u, 48, 35, AIRY_DPS, mpmath.mpf(3)),
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
    """Largest |P(N) - PnReference(N)| over the integer REFERENCE_LEVELS."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import references
    ref = references.PnReference(max(REFERENCE_LEVELS))
    with mpmath.workdps(P_DPS):
        return max(abs(p_of_level(n) - ref(n)) for n in REFERENCE_LEVELS)


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
    print("max |P - PnReference| at n = %s: %s"
          % (", ".join(map(str, REFERENCE_LEVELS)), mpmath.nstr(gap, 2)),
          file=sys.stderr)
    if gap > mpmath.mpf(10) ** -40:
        print("the real-order sum disagrees with PnReference", file=sys.stderr)
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
