"""Chebyshev coefficients of the Airy-weighted integral F_n as a function of s.

Usage:
    python3 tools/gen_f_series.py            # print the coefficients
    python3 tools/gen_f_series.py --check    # compare with osctun

F_n = int_0^inf f(x(s t)) Ai(t)^2 dt depends on n only through
s = nu^(-4/3) = (2n+1)^(-2/3), which lies in [0, 3^(-2/3)] for n >= 1.
The script samples F(s) at 24 first-kind Chebyshev points of that interval.
Each sample is a 30-digit mpmath quadrature in the x variable, which needs
no inversion of the map: with t = zeta(x)/s and zeta'(x) = f(x)^(-1/2),

    F(s) = (1/s) int_1^inf sqrt(f(x)) Ai(zeta(x)/s)^2 dx.

The discrete cosine transform of the samples, taken at 40 digits, gives the
coefficients c_k of F(s) = sum_k c_k T_k(2s/3^(-2/3) - 1).  The series is
cut after c_17; the first dropped coefficient is about 2e-20, under 1e-18
of F.  The script prints c_0..c_17 as the Python literal that
osctun.asymptotics holds (_BIG_F_CHEBYSHEV), and the dropped coefficients on
stderr.  With --check it compares its output with that literal instead and
exits 1 on any difference.  It needs mpmath only and takes about 20 s.
"""

import argparse
import sys
import time

import mpmath

SAMPLES = 24
DEGREE = 17
SAMPLE_DPS = 30
DCT_DPS = 40


def big_f_of_s(s):
    """F(s) at 30 digits by quadrature in x, as in the tests' mp_big_f_n."""
    with mpmath.workdps(SAMPLE_DPS):
        nu43 = 1 / mpmath.mpf(s)

        def zeta(x):
            # x sqrt(x^2 - 1) - arccosh x cancels like (x - 1)^(3/2) near
            # the turning point, where the tanh-sinh nodes crowd; 70 more
            # digits keep zeta at full precision there.
            with mpmath.extradps(70):
                r = mpmath.sqrt(x * x - 1)
                z = (mpmath.mpf(3) / 4 * (x * r - mpmath.acosh(x))) ** (
                    mpmath.mpf(2) / 3)
            return +z

        def integrand(x):
            if x == 1:
                # sqrt(f(1)) = 2^(-1/3), the limit where zeta/(x^2 - 1)
                # is 0/0
                return mpmath.cbrt(0.5) * mpmath.airyai(0) ** 2
            z = zeta(x)
            return mpmath.sqrt(z / (x * x - 1)) * mpmath.airyai(nu43 * z) ** 2

        # Panel edges where t = 0.5 .. 80 follow the decay of Ai(t)^2.
        edges = [mpmath.mpf(1)]
        for t in (0.5, 2, 5, 10, 20, 40, 80):
            guess = 1 + t / nu43 / mpmath.mpf(2) ** (mpmath.mpf(1) / 3)
            edges.append(mpmath.findroot(lambda x: nu43 * zeta(x) - t, guess))
        return nu43 * mpmath.quad(integrand, edges)


def chebyshev_coefficients():
    """All SAMPLES coefficients c_k, with c_0 already halved."""
    with mpmath.workdps(DCT_DPS):
        s_max = mpmath.mpf(3) ** (-mpmath.mpf(2) / 3)
        theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / SAMPLES
                 for j in range(SAMPLES)]
        values = [big_f_of_s(s_max * (1 + mpmath.cos(th)) / 2)
                  for th in theta]
        coeffs = []
        for k in range(SAMPLES):
            c = 2 * mpmath.fsum(v * mpmath.cos(k * th)
                                for v, th in zip(values, theta)) / SAMPLES
            coeffs.append(c / 2 if k == 0 else c)
        return coeffs


def literal(coeffs):
    lines = ["_BIG_F_CHEBYSHEV = ("]
    lines.extend("    %r," % float(c) for c in coeffs[:DEGREE + 1])
    lines.append(")")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the coefficients in "
                             "osctun.asymptotics")
    args = parser.parse_args()
    start = time.perf_counter()
    coeffs = chebyshev_coefficients()
    print("%d samples in %.1f s; dropped |c_k|, k = %d..%d: %s"
          % (SAMPLES, time.perf_counter() - start, DEGREE + 1, SAMPLES - 1,
             " ".join(mpmath.nstr(abs(c), 2) for c in coeffs[DEGREE + 1:])),
          file=sys.stderr)
    if not args.check:
        print(literal(coeffs))
        return 0
    from osctun import asymptotics
    want = tuple(float(c) for c in coeffs[:DEGREE + 1])
    if asymptotics._BIG_F_CHEBYSHEV == want:
        print("osctun.asymptotics._BIG_F_CHEBYSHEV matches, bit for bit")
        return 0
    print("osctun.asymptotics._BIG_F_CHEBYSHEV differs from the generated "
          "coefficients:\n" + literal(coeffs))
    return 1


if __name__ == "__main__":
    sys.exit(main())
