"""Chebyshev coefficients of the tunneling probability P as a function of s.

Usage:
    python3 tools/gen_p_series.py            # print the coefficients
    python3 tools/gen_p_series.py --check    # compare with osctun

P_n = 2 int_nu^inf psi_n(x)^2 dx, nu = sqrt(2n+1), is defined at every real
level N >= 0 when psi_N is the real-order eigenfunction

    psi_N(x) = D_N(sqrt(2) x) / sqrt(Gamma(N+1) sqrt(pi)),

with D_N = mpmath.pcfd (DLMF 12.2).  The ladder relations of D_N hold for
real order, so the telescoping identity of osctun.quadrature holds too,
starting from the fractional part N0 = N - floor(N):

    P(N) = 2 I_N0(a) + 2 sum_{j=1..floor(N)} psi_{N0+j}(a) psi_{N0+j-1}(a)
                                              / sqrt(2 (N0+j)),

a = sqrt(2N+1), I_N0(a) = int_a^inf psi_N0^2 by one mpmath quadrature.
psi_N0(a) and psi_{N0+1}(a) come from pcfd, the rest from the forward
recurrence psi_k = (sqrt(2) a psi_{k-1} - sqrt(k-1) psi_{k-2}) / sqrt(k),
which follows its growing solution beyond the turning point.

G(s) = s^(-1/2) P with s = (2N+1)^(-2/3) is analytic in s on [0, 3^(-2/3)],
where s = 3^(-2/3) is n = 1 and s -> 0 is n -> infinity.  The script samples
G at 40 first-kind Chebyshev points of that interval at 50 digits, and the
discrete cosine transform of the samples, at 50 digits, gives c_k in
G(s) = sum_k c_k T_k(2s/3^(-2/3) - 1).  The series is cut after c_20; the
first dropped coefficient is about 1.2e-19, under 1e-18 of G.  n = 0 lies
outside the interval, at s = 1, and is erfc(1) in osctun.  On [0, 1],
which holds n = 0 too, the coefficients fall more slowly: reaching the
same size takes 31 terms, where [0, 3^(-2/3)] takes 21.

The script first checks the sum against the independent 50-digit
perfbench/references.PnReference at integer levels, then prints c_0..c_20
as the Python literal that osctun.quadrature holds (_P_CHEBYSHEV), and the
dropped coefficients on stderr.  With --check it compares its output with
that literal instead and exits 1 on any difference.  It needs mpmath only
and takes a few minutes, most of it in the recurrence at the sample
nearest s = 0, which is level 2e5.
"""

import argparse
import os
import sys
import time

import mpmath

SAMPLES = 40
DEGREE = 20
DPS = 50
S_HI = mpmath.mpf(3) ** (-mpmath.mpf(2) / 3)
REFERENCE_LEVELS = (0, 1, 5, 37, 200)


def psi(order, x):
    """Real-order oscillator eigenfunction psi_order(x)."""
    return mpmath.pcfd(order, mpmath.sqrt(2) * x) / mpmath.sqrt(
        mpmath.gamma(order + 1) * mpmath.sqrt(mpmath.pi))


def p_of_level(level):
    """P at the real level N >= 0 by the real-order telescoping sum."""
    with mpmath.workdps(DPS):
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
    with mpmath.workdps(DPS):
        s = mpmath.mpf(s)
        return p_of_level((s ** (-mpmath.mpf(3) / 2) - 1) / 2) / mpmath.sqrt(s)


def chebyshev_coefficients(s_hi=S_HI, samples=SAMPLES):
    """All `samples` coefficients c_k on [0, s_hi], with c_0 already halved."""
    with mpmath.workdps(DPS):
        theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / samples
                 for j in range(samples)]
        values = [g_of_s(s_hi * (1 + mpmath.cos(th)) / 2) for th in theta]
        coeffs = []
        for k in range(samples):
            c = 2 * mpmath.fsum(v * mpmath.cos(k * th)
                                for v, th in zip(values, theta)) / samples
            coeffs.append(c / 2 if k == 0 else c)
        return coeffs


def reference_gap():
    """Largest |P(N) - PnReference(N)| over the integer REFERENCE_LEVELS."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(
        __file__)), os.pardir, "perfbench"))
    import references
    ref = references.PnReference(max(REFERENCE_LEVELS))
    with mpmath.workdps(DPS):
        return max(abs(p_of_level(n) - ref(n)) for n in REFERENCE_LEVELS)


def literal(coeffs):
    lines = ["_P_CHEBYSHEV = ("]
    lines.extend("    %r," % float(c) for c in coeffs[:DEGREE + 1])
    lines.append(")")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the coefficients in "
                             "osctun.quadrature")
    args = parser.parse_args()
    gap = reference_gap()
    print("max |P - PnReference| at n = %s: %s"
          % (", ".join(map(str, REFERENCE_LEVELS)), mpmath.nstr(gap, 2)),
          file=sys.stderr)
    if gap > mpmath.mpf(10) ** -40:
        print("the real-order sum disagrees with PnReference", file=sys.stderr)
        return 1
    start = time.perf_counter()
    coeffs = chebyshev_coefficients()
    print("%d samples in %.1f s; dropped |c_k|, k = %d..%d: %s"
          % (SAMPLES, time.perf_counter() - start, DEGREE + 1, SAMPLES - 1,
             " ".join(mpmath.nstr(abs(c), 2) for c in coeffs[DEGREE + 1:])),
          file=sys.stderr)
    if not args.check:
        print(literal(coeffs))
        return 0
    from osctun import quadrature
    want = tuple(float(c) for c in coeffs[:DEGREE + 1])
    if quadrature._P_CHEBYSHEV == want:
        print("osctun.quadrature._P_CHEBYSHEV matches, bit for bit")
        return 0
    print("osctun.quadrature._P_CHEBYSHEV differs from the generated "
          "coefficients:\n" + literal(coeffs))
    return 1


if __name__ == "__main__":
    sys.exit(main())
