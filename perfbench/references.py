"""Independent mpmath references for the benchmark's correctness checks.

Nothing here imports osctun, so no reference shares a code path with the
program it checks.

- P_n at 50 digits from the telescoping identity
  P_n = erfc(nu) + 2 sum_{k=1..n} psi_k(nu) psi_{k-1}(nu) / sqrt(2k),
  nu = sqrt(2n+1) taken exactly, with psi_k from the normalized three-term
  recurrence.  Every term is positive because nu lies beyond the largest
  zero of each psi_k with k <= n, so nothing cancels.
- C1, C2 and F_inf from Gamma(1/3), Ai(0) and Ai'(0).
- F_n by quadrature in the x variable,
  F_n = nu^(4/3) int_1^inf sqrt(f(x)) Ai(nu^(4/3) zeta(x))^2 dx,
  which needs no inversion of the turning-point map.

``python3 perfbench/references.py`` prints the cross-checks that tie the
P_n sum to direct quadrature of psi_n^2 and to erfc(1) at n = 0.
"""

import mpmath as mp

P_DPS = 50
F_DPS = 30


class PnReference:
    """50-digit P_n for 0 <= n <= n_max, with the recurrence coefficients cached."""

    def __init__(self, n_max):
        with mp.workdps(P_DPS):
            self._a = [None, mp.sqrt(2)] + [mp.sqrt(mp.mpf(2) / k)
                                            for k in range(2, n_max + 1)]
            self._b = [None, None] + [mp.sqrt(mp.mpf(k - 1) / k)
                                      for k in range(2, n_max + 1)]
            self._c = [None] + [2 / mp.sqrt(2 * k) for k in range(1, n_max + 1)]
            self._pi_m14 = mp.pi ** mp.mpf(-0.25)
        self.n_max = n_max
        self._memo = {}

    def __call__(self, n):
        if not 0 <= n <= self.n_max:
            raise ValueError("n=%d outside 0..%d" % (n, self.n_max))
        if n not in self._memo:
            self._memo[n] = self._compute(n)
        return self._memo[n]

    def _compute(self, n):
        with mp.workdps(P_DPS):
            nu = mp.sqrt(2 * n + 1)
            psi_prev = self._pi_m14 * mp.exp(-nu * nu / 2)
            total = mp.erfc(nu)
            if n == 0:
                return total
            psi = self._a[1] * nu * psi_prev
            total += self._c[1] * psi * psi_prev
            for k in range(2, n + 1):
                psi, psi_prev = self._a[k] * nu * psi - self._b[k] * psi_prev, psi
                total += self._c[k] * psi * psi_prev
            return total


def constants():
    """C1, C2 and F_inf as mpf at P_DPS digits."""
    with mp.workdps(P_DPS):
        ai0 = mp.airyai(0)
        aip0 = mp.airyai(0, derivative=1)
        c1 = 2 / (mp.mpf(3) ** (mp.mpf(2) / 3) * mp.gamma(mp.mpf(1) / 3) ** 2)
        c2 = mp.mpf(2) / 5 * (-ai0 * aip0 / 3)
        f_inf = mp.mpf(2) ** (-mp.mpf(2) / 3) * aip0 ** 2
        return c1, c2, f_inf


def _zeta(x):
    r = mp.sqrt(x * x - 1)
    return (mp.mpf(3) / 4 * (x * r - mp.acosh(x))) ** (mp.mpf(2) / 3)


def big_f_n(n):
    """F_n at F_DPS digits by tanh-sinh quadrature over x in [1, inf)."""
    with mp.workdps(F_DPS):
        nu43 = mp.mpf(2 * n + 1) ** (mp.mpf(2) / 3)

        def integrand(x):
            z = _zeta(x)
            return mp.sqrt(z / (x * x - 1)) * mp.airyai(nu43 * z) ** 2

        # Panel edges at t = nu^(4/3) zeta(x) = 0.5 .. 80 follow the decay of
        # Ai(t)^2, which is below 1e-300 past t = 80.
        edges = [mp.mpf(1)]
        for t in (0.5, 2, 5, 10, 20, 40, 80):
            guess = 1 + (t / nu43) / mp.mpf(2) ** (mp.mpf(1) / 3)
            edges.append(mp.findroot(lambda x: nu43 * _zeta(x) - t, guess))
        return nu43 * mp.quad(integrand, edges)


def psi_squared_tail(n):
    """2 int_nu^inf psi_n^2 by direct mpmath quadrature (small n only)."""
    with mp.workdps(P_DPS):
        nu = mp.sqrt(2 * n + 1)
        norm = mp.sqrt(mp.pi) * mp.mpf(2) ** n * mp.factorial(n)

        def density(x):
            return mp.hermite(n, x) ** 2 * mp.exp(-x * x) / norm

        return 2 * mp.quad(density, [nu, nu + 2, mp.inf])


def cross_check(pn_ref, small_n=(1, 2, 5)):
    """Largest |P_n(sum) - P_n(quad)| over small_n and the n = 0 erfc(1) gap."""
    with mp.workdps(P_DPS):
        gap0 = abs(pn_ref(0) - mp.erfc(1))
        gap = max(abs(pn_ref(n) - psi_squared_tail(n)) for n in small_n)
        return gap0, gap


if __name__ == "__main__":
    ref = PnReference(1000)
    gap0, gap = cross_check(ref)
    print("P_0 - erfc(1):              %s" % mp.nstr(gap0, 3))
    print("max |sum - quad|, n=1,2,5:  %s" % mp.nstr(gap, 3))
    c1, c2, f_inf = constants()
    print("C1 = %s\nC2 = %s\nF_inf = %s" % (mp.nstr(c1, 20), mp.nstr(c2, 20),
                                          mp.nstr(f_inf, 20)))
    for n in (0, 100, 612, 1000):
        print("P_%d = %s" % (n, mp.nstr(ref(n), 30)))
    for n in (6, 500):
        print("F_%d = %s" % (n, mp.nstr(big_f_n(n), 25)))
