"""The frozen Chebyshev series: P_n and F_n in s = (2n+1)^(-2/3), and the
turning-point map near x = 1.

P_n and F_n depend on the level n only through s = nu^(-4/3) =
(2n+1)^(-2/3), and each is a smooth function of s on [0, S_MAX],
S_MAX = 3^(-2/3): n = 1 is the right end and s = 0 the limit n -> infinity.
Each is a record here, G(s) = sum_k c_k T_k(2s/S_MAX - 1) with the
coefficients of tools/gen_series.py, and one evaluator serves both at one
multiply-add per coefficient a level, at any level, for their entries:

- P, the tunneling probability P_n = G(s) / nu^(2/3), of tunneling_exact.
  The package docstring's telescoping identity holds at real order, so
  G(s) = s^(-1/2) P is analytic; its O(n) sum is kept only in the tests.
- F, the Airy-weighted integral F_n = G(s) of asymptotics.big_f_n.

nu23_of_levels is every level route's one cube root of 2n+1, so a level's
bits depend neither on the route nor on the sweep around it.

PHI and PSI carry the map zeta(x) over [1, 2] for osctun._kernels, one
record per direction, and AI and AIP the Airy function and its derivative
on t = u^2 in [0, 9], Ai(t) = AI(u) exp(-(2/3) u^3) and
Ai'(t) = -AIP(u) exp(-(2/3) u^3).  They are summed by chebyshev_of_s on
their own intervals; they are not level series, so evaluate does not take
them.
"""

import math
from collections import namedtuple

import numpy as np

__all__ = ["Series", "S_MAX", "P", "F", "PHI", "PSI", "AI", "AIP",
           "nu23_of_levels", "chebyshev_of_s"]

_EPS = float(np.finfo(np.float64).eps)

# The interval end as the double both series are summed on.  It is 3^(-2/3)
# with the exponent rounded first, one ulp above the correctly rounded end.
S_MAX = 3.0 ** (-2.0 / 3.0)

# One frozen series, G(s) = sum_k coeffs[k] T_k(2s/s_max - 1).  A level's
# value is G(s) / nu^(2/3) if over_nu23, else G(s), and at_zero at n = 0
# (s = 1); err_eps is the error claimed, in units of eps times the value.
Series = namedtuple("Series", "coeffs s_max err_eps over_nu23 at_zero")

# G(0) = 2^(4/3) Ai'(0)^2; the first dropped coefficient, c_21, is 1.2e-19.
# Written by tools/gen_series.py from 50-digit real-order telescoping sums
# at 40 Chebyshev points of [0, S_MAX]; do not edit by hand.  The bits of
# nu^(2/3), and so of every P_n and F_n, are np.cbrt's, which takes numpy's
# AVX-512 loop on CPUs that have it and libm's elsewhere; the two differ in
# the last bit at 41% of the levels to 2*10^6.  Against 50-digit references
# the worst error is 1.51 eps with the one and 2.09 eps with the other
# (README "Numerical notes"); the claim is 4 eps.
P = Series(coeffs=(
    0.1644542340415734,
    -0.003883299830501597,
    0.0004288048165263236,
    -3.065501094194424e-05,
    7.730328680520645e-07,
    -8.399062099792459e-08,
    2.8748148128091622e-08,
    -2.4820082378290043e-09,
    -1.6364844381372958e-10,
    1.4629592581404117e-11,
    1.0580779861103058e-11,
    -1.7289452128746065e-12,
    -1.8143497993029948e-13,
    6.683379440479609e-14,
    4.194009817867361e-15,
    -3.719701682281342e-15,
    2.293192450691417e-16,
    1.5826693601017849e-16,
    -3.1604521272068135e-17,
    -4.80997672045123e-18,
    2.6229135198875533e-18,
), s_max=S_MAX, err_eps=4.0, over_nu23=True, at_zero=math.erfc(1.0))

# G(0) = F_INFINITY; |c_k| falls about tenfold per degree, and c_18 is
# 2e-20.  Written by tools/gen_series.py from 30-digit mpmath samples at 24
# Chebyshev points of [0, 3^(-2/3)] at 40 digits, an end within one ulp of
# S_MAX; do not edit by hand.  Against 30-digit mpmath from n = 1 to 10^6
# the error is within 4 eps.  F_0 is not defined: asymptotics refuses it.
F = Series(coeffs=(
    0.04089054596539395,
    -0.0012593471775208536,
    4.688956440528202e-05,
    -2.5065549140734746e-06,
    1.669470790929729e-07,
    -1.2980146991378194e-08,
    1.1353849355342954e-09,
    -1.0913036754151984e-10,
    1.1340963462031505e-11,
    -1.2593406663856906e-12,
    1.4810095820323638e-13,
    -1.8317893134789058e-14,
    2.3696334034970385e-15,
    -3.1915582572687045e-16,
    4.458641683126328e-17,
    -6.440220320953348e-18,
    9.592247901234408e-19,
    -1.4697624216915427e-19,
), s_max=S_MAX, err_eps=4.0, over_nu23=False, at_zero=math.nan)

# PHI(e) = zeta(1+e) / (2^(1/3) e) on [0, 1]; c_16 is 1e-19.  Written by
# tools/gen_series.py from 40-digit samples; do not edit by hand.  zeta and
# f from it are within 3 eps of 40-digit mpmath, the claim.
PHI = Series(coeffs=(
    1.0463161085670156,
    0.04517712737508947,
    -0.0010896452043523974,
    4.666913648694221e-05,
    -2.5035481318324687e-06,
    1.5245095263619155e-07,
    -1.0087473677488035e-08,
    7.082415164473668e-10,
    -5.199760798290147e-11,
    3.953421316830683e-12,
    -3.0916411780187494e-13,
    2.4743604623683505e-14,
    -2.019090927262027e-15,
    1.6749331104578946e-16,
    -1.409232289337498e-17,
    1.2003341045403897e-18,
), s_max=1.0, err_eps=3.0, over_nu23=False, at_zero=math.nan)

# PSI(zeta) = (x - 1) / zeta on [0, zeta(2)], zeta(2) rounded to a double;
# c_20 is 5e-20.  Written by tools/gen_series.py from 40-digit samples; do
# not edit by hand.  x - 1 from it is within 2 eps of 40-digit mpmath.
PSI = Series(coeffs=(
    0.7586250843417176,
    -0.03273266596874165,
    0.002140576513339177,
    -0.00018246612377698746,
    1.7660722207562393e-05,
    -1.8437406721522652e-06,
    2.0245741036932807e-07,
    -2.305176003279607e-08,
    2.697318415690785e-09,
    -3.224229075680337e-10,
    3.920707373504773e-11,
    -4.835248166886908e-12,
    6.0337645509108e-13,
    -7.605026583677296e-14,
    9.668227380384696e-15,
    -1.2383342509595824e-15,
    1.5965239220533534e-16,
    -2.0702865489451754e-17,
    2.6985349611202266e-18,
    -3.533752264618369e-19,
), s_max=1.3738782622040782, err_eps=2.0, over_nu23=False, at_zero=math.nan)

# AI(u) = Ai(u^2) exp((2/3) u^3) on u = sqrt(t) in [0, 3]; c_35 is 7e-19.
# Written by tools/gen_series.py from 40-digit samples; do not edit by
# hand.  A falls from Ai(0) = 0.355 to 0.162; at 40,001 u it is within
# 1.20 eps of 40-digit mpmath, and the claim is 2 eps.
AI = Series(coeffs=(
    0.24540526334223897,
    -0.10071365595847216,
    0.017928238629105673,
    0.0019461722088510392,
    -0.003851722910280746,
    0.002188705648967261,
    -0.0008327357709576289,
    0.00021336819156073225,
    -1.88096718734326e-05,
    -1.5793598275449384e-05,
    1.1213773480493111e-05,
    -4.35592180214514e-06,
    1.084967271375558e-06,
    -9.418372793289813e-08,
    -6.81975963544861e-08,
    4.5087131952892317e-08,
    -1.5823546484056953e-08,
    3.3546040229703474e-09,
    -8.986086128963357e-11,
    -2.8034480792423896e-10,
    1.4269357325653648e-10,
    -4.141187730327463e-11,
    6.3336937562966e-12,
    7.813559333938671e-13,
    -9.121682061930495e-13,
    3.4354585152448444e-13,
    -7.567879240920253e-14,
    4.678970050295474e-15,
    4.180019663916995e-15,
    -2.185202014119988e-15,
    6.017173414875142e-16,
    -8.326995148136605e-17,
    -1.16726376415316e-17,
    1.1227771528020277e-17,
    -3.753243794393178e-18,
), s_max=3.0, err_eps=2.0, over_nu23=False, at_zero=math.nan)

# AIP(u) = -Ai'(u^2) exp((2/3) u^3) on [0, 3]; c_36 is 5e-19.  Written by
# tools/gen_series.py from 40-digit samples; do not edit by hand.  It rises
# from -Ai'(0) = 0.259 to 0.49; at 40,001 u it is within 1.77 eps of
# 40-digit mpmath, and the claim is 2 eps.
AIP = Series(coeffs=(
    0.3640872936252761,
    0.12417812599404973,
    0.008685819305811132,
    -0.00803165471754865,
    0.002630950952035602,
    -0.00022256253342057782,
    -0.0003055345417837353,
    0.0002314004270231768,
    -9.848251935667122e-05,
    2.6885367428384885e-05,
    -2.5663458980415916e-06,
    -1.9995724373348674e-06,
    1.4437696108569266e-06,
    -5.547729219974157e-07,
    1.3165790259428045e-07,
    -7.233543293952636e-09,
    -1.0639770009096473e-08,
    6.209016285314685e-09,
    -2.0194469180628564e-09,
    3.7171289760014824e-10,
    1.8317169137544324e-11,
    -4.478263860827572e-11,
    1.9533944714442885e-11,
    -5.001899955195975e-12,
    5.382575356592288e-13,
    2.0047178925144693e-13,
    -1.378754213709103e-13,
    4.438732414815651e-14,
    -7.956493771281692e-15,
    -2.1595743143125796e-16,
    7.462296604037785e-16,
    -3.0278852052221907e-16,
    6.932580104427425e-17,
    -5.4522324388854316e-18,
    -3.0835602099692222e-18,
    1.6910426966470394e-18,
), s_max=3.0, err_eps=2.0, over_nu23=False, at_zero=math.nan)


def nu23_of_levels(levels):
    """nu^(2/3) = cbrt(2n+1) of one checked level or a sequence, in float64,
    from the exact double 2n+1: every level route's one map to s."""
    return np.cbrt(2.0 * np.asarray(levels, dtype=np.float64) + 1.0)


def chebyshev_of_s(series, s):
    """G(s) of series at one s or an array, by Clenshaw's recurrence from
    the top coefficient: the exact first step from b1 = b2 = 0."""
    x = 2.0 * s / series.s_max - 1.0
    x2 = 2.0 * x
    b1, b2 = series.coeffs[-1], 0.0
    for c in series.coeffs[-2:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return series.coeffs[0] + x * b1 - b2


def evaluate(series, levels):
    """series and its err_estimates in float64 of the levels' shape, at one
    level or a sequence that the calling entry has already checked."""
    nu23 = nu23_of_levels(levels)
    values = chebyshev_of_s(series, 1.0 / (nu23 * nu23))
    if series.over_nu23:
        values = values / nu23
    values = np.where(nu23 == 1.0, series.at_zero, values)
    return values, (series.err_eps * _EPS) * values
