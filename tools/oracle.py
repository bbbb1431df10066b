"""High-precision truths for the tests and the series generator, each
written once, in mpmath alone; the tests import it as ``oracle``.

Nothing here imports osctun or numpy, so no truth shares a code path with
the program it checks.  Each function names its method and sets its own
precision with mpmath.workdps; zeta alone works at its caller's precision,
with guard digits.  Independent methods for one quantity all stay, as
checks on each other: P_n by the integer-level sum (p_n), the real-order
sum (p_of_level) and quadrature of psi_hermite^2 (p_by_quadrature), and
psi_n by the recurrence (psi_n) and by mpmath.hermite (psi_hermite).
"""

import functools
from collections import namedtuple

import mpmath

P_DPS = 50      # either telescoping sum, the expansion and the constants
QUAD_DPS = 30   # F by quadrature in x, P_n by quadrature of psi_n^2
PSI_DPS = 40    # psi_n at one point, by either method
MAP_DPS = 40    # the map samplers Phi and Psi
AIRY_DPS = 40   # the Airy samplers A and A1

Constants = namedtuple("Constants",
                       "ai0 aip0 gamma13 c1 c2 f_infinity a0 a1 a2")


@functools.cache
def constants():
    """The paper's constants at P_DPS digits, from mpmath.airyai at 0 and
    mpmath.gamma(1/3).

    C1 = 2 / (3^(2/3) Gamma(1/3)^2), C2 = -(2/15) Ai(0) Ai'(0) and
    F_inf = 2^(-2/3) Ai'(0)^2 give P_n ~ C1 n^(-1/3) - C2/n and F_n -> F_inf.
    a0 = 2^(4/3) Ai'(0)^2, a1 = (4/15) Ai(0) Ai'(0) and
    a2 = (11/100) 2^(2/3) Ai(0)^2 are the first Taylor coefficients of
    G(s) = s^(-1/2) P at s = (2n+1)^(-2/3) = 0.
    """
    with mpmath.workdps(P_DPS):
        ai0, aip0 = mpmath.airyai(0), mpmath.airyai(0, derivative=1)
        gamma13 = mpmath.gamma(mpmath.mpf(1) / 3)
        return Constants(
            ai0, aip0, gamma13,
            c1=2 / (mpmath.cbrt(9) * gamma13 ** 2),
            c2=-2 * ai0 * aip0 / 15,
            f_infinity=aip0 ** 2 / mpmath.cbrt(4),
            a0=mpmath.cbrt(16) * aip0 ** 2,
            a1=mpmath.mpf(4) / 15 * ai0 * aip0,
            a2=mpmath.mpf(11) / 100 * mpmath.cbrt(4) * ai0 ** 2)


@functools.cache
def _step(k):
    """(a_k, b_k) = (sqrt(2/k), sqrt((k-1)/k)) at P_DPS digits, shared by
    every level and point."""
    with mpmath.workdps(P_DPS):
        return (mpmath.sqrt(mpmath.mpf(2) / k),
                mpmath.sqrt(mpmath.mpf(k - 1) / k))


def _ladder(n, x):
    """(a_k, psi_k(x), psi_(k-1)(x)) for k = 0..n at the caller's precision,
    with a_0 = psi_(-1) = 0, by the normalized three-term recurrence
    psi_k = a_k x psi_(k-1) - b_k psi_(k-2) from pi^(-1/4) exp(-x^2/2)."""
    prev, cur = 0, mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)
    yield 0, cur, prev
    for k in range(1, n + 1):
        a, b = _step(k)
        prev, cur = cur, a * x * cur - b * prev
        yield a, cur, prev


def psi_n(n, x):
    """psi_n(x) at PSI_DPS digits by the normalized three-term recurrence."""
    with mpmath.workdps(PSI_DPS):
        for _, psi, _ in _ladder(n, mpmath.mpf(x)):
            pass
        return psi


def psi_hermite(n, x):
    """psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(sqrt(pi) 2^n n!) at PSI_DPS
    digits, by mpmath.hermite."""
    with mpmath.workdps(PSI_DPS):
        x = mpmath.mpf(x)
        norm = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * 2 ** n
                           * mpmath.factorial(n))
        return mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm


@functools.cache
def p_n(n):
    """P_n at P_DPS digits by the telescoping sum at the exact nu,
    P_n = erfc(nu) + sum_{k=1..n} a_k psi_k(nu) psi_(k-1)(nu) with the
    recurrence of psi_n; each level is summed once."""
    with mpmath.workdps(P_DPS):
        nu = mpmath.sqrt(2 * n + 1)
        total = mpmath.erfc(nu)
        for a, cur, prev in _ladder(n, nu):
            total += a * cur * prev
        return total


def p_by_quadrature(n):
    """P_n = 2 int_nu^inf psi_n^2 at QUAD_DPS digits, by mpmath.quad of
    psi_hermite squared."""
    with mpmath.workdps(QUAD_DPS):
        nu = mpmath.sqrt(2 * n + 1)
        return 2 * mpmath.quad(lambda x: psi_hermite(n, x) ** 2,
                               [nu, nu + 2, nu + 10, mpmath.inf])


def p_expansion(n):
    """sqrt(s) (a0 + a1 s + a2 s^2), s = (2n+1)^(-2/3), at P_DPS digits:
    P_n to below 1e-19 of itself from n = 10^9, where a3 s^3 drops out."""
    c = constants()
    with mpmath.workdps(P_DPS):
        s = mpmath.mpf(2 * n + 1) ** (-mpmath.mpf(2) / 3)
        return mpmath.sqrt(s) * (c.a0 + c.a1 * s + c.a2 * s * s)


def _psi_real(order, x):
    """psi_order(x) = D_order(sqrt(2) x) / sqrt(Gamma(order+1) sqrt(pi)) at
    the caller's precision, by mpmath.pcfd (DLMF 12.2)."""
    return mpmath.pcfd(order, mpmath.sqrt(2) * x) / mpmath.sqrt(
        mpmath.gamma(order + 1) * mpmath.sqrt(mpmath.pi))


def p_of_level(level):
    """P = 2 int_nu^inf psi_N^2 at the real level N >= 0, at P_DPS digits.

    The telescoping identity holds at real order too, started from the
    fractional part N0 = N - floor(N):

        P(N) = 2 I_N0(a) + 2 sum_{j=1..floor(N)} psi_{N0+j}(a) psi_{N0+j-1}(a)
                                                  / sqrt(2 (N0+j)),

    a = sqrt(2N+1), I_N0(a) = int_a^inf psi_N0^2 by one mpmath.quad, and
    the forward recurrence from two mpmath.pcfd seeds, which follows its
    growing solution beyond the turning point.
    """
    with mpmath.workdps(P_DPS):
        level = mpmath.mpf(level)
        steps = int(mpmath.floor(level))
        order0 = level - steps
        a = mpmath.sqrt(2 * level + 1)
        # psi_N0^2 falls like exp(-x^2) from a, over a width of about 1/a.
        w = 1 / a
        total = 2 * mpmath.quad(lambda x: _psi_real(order0, x) ** 2,
                                [a, a + w, a + 4 * w, a + 16 * w, mpmath.inf])
        if steps == 0:
            return total
        x2 = mpmath.sqrt(2) * a
        prev, cur = _psi_real(order0, a), _psi_real(order0 + 1, a)
        root = mpmath.sqrt(order0 + 1)
        total += mpmath.sqrt(2) * cur * prev / root
        for j in range(2, steps + 1):
            root_prev, root = root, mpmath.sqrt(order0 + j)
            prev, cur = cur, (x2 * cur - root_prev * prev) / root
            total += mpmath.sqrt(2) * cur * prev / root
        return total


def g_of_s(s):
    """G(s) = s^(-1/2) P at the real level N with (2N+1)^(-2/3) = s, at
    P_DPS digits, by p_of_level."""
    with mpmath.workdps(P_DPS):
        s = mpmath.mpf(s)
        return p_of_level((s ** (-mpmath.mpf(3) / 2) - 1) / 2) / mpmath.sqrt(s)


def zeta(x):
    """zeta(x) = ((3/4)(x sqrt(x^2 - 1) - arccosh x))^(2/3), x >= 1, at the
    caller's precision."""
    # x sqrt(x^2 - 1) - arccosh x cancels like (x - 1)^(3/2) near the
    # turning point, where F's tanh-sinh nodes crowd; 70 more digits keep
    # zeta at full precision there.
    with mpmath.extradps(70):
        x = mpmath.mpf(x)
        r = mpmath.sqrt(x * x - 1)
        z = (mpmath.mpf(3) / 4 * (x * r - mpmath.acosh(x))) ** (
            mpmath.mpf(2) / 3)
    return +z


def phi_of_e(e):
    """Phi(e) = zeta(1+e) / (2^(1/3) e) at MAP_DPS digits; Phi(0) = 1."""
    with mpmath.workdps(MAP_DPS):
        e = mpmath.mpf(e)
        # x = 1 + e exactly, however small e is
        with mpmath.extradps(70):
            z = zeta(1 + e)
        return z / (mpmath.cbrt(2) * e)


def psi_of_zeta(z):
    """Psi(zeta) = (x - 1) / zeta with zeta(x) = zeta, at MAP_DPS digits;
    x - 1 is an mpmath.findroot root of zeta(1 + e) = zeta."""
    with mpmath.workdps(MAP_DPS):
        z = mpmath.mpf(z)
        with mpmath.extradps(10):
            e = mpmath.findroot(lambda e: zeta(1 + e) - z, z / mpmath.cbrt(2))
        return e / z


def big_f(nu43):
    """F = nu^(4/3) int_1^inf sqrt(f(x)) Ai(nu^(4/3) zeta(x))^2 dx at QUAD_DPS
    digits, with nu^(4/3) rounded to QUAD_DPS digits, by mpmath.quad in x.

    With t = nu^(4/3) zeta(x) and zeta'(x) = f(x)^(-1/2) for
    f = zeta/(x^2 - 1), this is int_0^inf f(x(t/nu^(4/3))) Ai(t)^2 dt, and
    needs no inversion of the map.
    """
    ai0 = constants().ai0
    with mpmath.workdps(QUAD_DPS):
        nu43 = mpmath.mpf(nu43)

        def integrand(x):
            if x == 1:
                # sqrt(f(1)) = 2^(-1/3), the limit where zeta/(x^2 - 1)
                # is 0/0
                return mpmath.cbrt(0.5) * ai0 ** 2
            z = zeta(x)
            return mpmath.sqrt(z / (x * x - 1)) * mpmath.airyai(nu43 * z) ** 2

        # Panel edges where t = 0.5 .. 80 follow the decay of Ai(t)^2.
        edges = [mpmath.mpf(1)]
        for t in (0.5, 2, 5, 10, 20, 40, 80):
            guess = 1 + t / nu43 / mpmath.mpf(2) ** (mpmath.mpf(1) / 3)
            edges.append(mpmath.findroot(lambda x: nu43 * zeta(x) - t, guess))
        return nu43 * mpmath.quad(integrand, edges)


def big_f_n(n):
    """F_n: big_f at nu^(4/3) = (2n+1)^(2/3), taken at QUAD_DPS digits."""
    with mpmath.workdps(QUAD_DPS):
        return big_f(mpmath.mpf(2 * n + 1) ** (mpmath.mpf(2) / 3))


def big_f_of_s(s):
    """F(s): big_f at nu^(4/3) = 1/s, taken at QUAD_DPS digits."""
    with mpmath.workdps(QUAD_DPS):
        return big_f(1 / mpmath.mpf(s))


def airy_a(u, derivative=0):
    """Ai(u^2) exp((2/3) u^3), or Ai'(u^2) exp((2/3) u^3) for derivative=1,
    at AIRY_DPS digits, by mpmath.airyai.  The first is A(u) in
    Ai(t) = A(u) exp(-z), u = sqrt(t), z = (2/3) u^3 (DLMF 9.7.5)."""
    with mpmath.workdps(AIRY_DPS):
        u = mpmath.mpf(u)
        return mpmath.airyai(u * u, derivative) * mpmath.exp(2 * u ** 3 / 3)


def airy_a1(u):
    """A1(u) = -Ai'(u^2) exp((2/3) u^3) at AIRY_DPS digits."""
    return -airy_a(u, 1)
