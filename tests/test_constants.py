"""The package's float constants against their 50-digit values.

Every float that a module of osctun holds at module level, every field of
specfun.GAMMA and every record's at_zero is either a mathematical constant
in TRUTH, checked here, or a setting in SETTINGS, a number chosen rather
than computed.  A new float constant fails the walk until it is listed, so
no new offset can slip in.

A constant is correctly rounded if it lies within half an ulp of its
50-digit value.  OFFSETS lists the ones that are not, with the offset
measured in ulp of the stored double; fixing them moves CLI cells, so they
are pinned here until the cube root of ROADMAP item 2 lands.  series.S_MAX
is the documented exception: it is 3^(-2/3) with the exponent rounded
first, the double both level records are summed on (see osctun.series).
"""

import importlib
import math

import mpmath
import pytest

import oracle
import osctun
from osctun import series, specfun

_MODULES = ["osctun", "osctun._kernels", "osctun.analysis",
            "osctun.asymptotics", "osctun.cli", "osctun.quadrature",
            "osctun.series", "osctun.specfun"]

# The 50-digit value of each constant, by the name the walk finds.  A
# double-double's low part is checked against the remainder of its high
# part.
_K = oracle.constants()
TRUTH = {
    "C1": lambda: _K.c1,
    "C2": lambda: _K.c2,
    "F_INFINITY": lambda: _K.f_infinity,
    "_AIRY_SQ_INTEGRAL": lambda: _K.aip0 ** 2,
    "_T_AIRY_SQ_INTEGRAL": lambda: -_K.ai0 * _K.aip0 / 3,
    "ZETA_MAX": lambda: oracle.zeta(osctun.asymptotics.X_MAX),
    "ZETA_2": lambda: oracle.zeta(2),
    "SQRT2": lambda: mpmath.sqrt(2),
    "SQRT_PI": lambda: mpmath.sqrt(mpmath.pi),
    "INV_LN2": lambda: 1 / mpmath.log(2),
    "TWO_13": lambda: mpmath.cbrt(2),
    "TWO_M23": lambda: 1 / mpmath.cbrt(4),
    "PI_M14": lambda: mpmath.pi ** (-mpmath.mpf(1) / 4),
    "LN2_HI": lambda: mpmath.log(2),
    "LN2_LO": lambda: mpmath.log(2) - osctun._kernels.LN2_HI,
    "TWO_THIRDS_HI": lambda: mpmath.mpf(2) / 3,
    "TWO_THIRDS_LO": lambda: mpmath.mpf(2) / 3 - osctun._kernels.TWO_THIRDS_HI,
    "_G13": lambda: _K.gamma13,
    "_G23": lambda: mpmath.gamma(mpmath.mpf(2) / 3),
    "GAMMA.gamma_one_third": lambda: _K.gamma13,
    "GAMMA.gamma_two_thirds": lambda: mpmath.gamma(mpmath.mpf(2) / 3),
    "GAMMA.ai_zero": lambda: _K.ai0,
    "GAMMA.ai_prime_zero": lambda: _K.aip0,
    "S_MAX": lambda: mpmath.cbrt(3) ** -2,
    "P.at_zero": lambda: mpmath.erfc(1),
}

# The known offsets, in ulp of the stored double, as measured.
# _AIRY_SQ_INTEGRAL and _T_AIRY_SQ_INTEGRAL are the intermediates of
# F_INFINITY and C2 in osctun.asymptotics.
OFFSETS = {
    "GAMMA.ai_zero": 0.63,
    "SQRT_PI": -0.65,
    "C1": 0.90,
    "C2": 2.03,
    "F_INFINITY": 1.21,
    "_AIRY_SQ_INTEGRAL": 0.90,
    "_T_AIRY_SQ_INTEGRAL": 2.04,
    "S_MAX": 0.85,
}

# Numbers chosen, not computed: branch switches, domain limits, scaling
# powers of two, error-claim factors and machine constants.
SETTINGS = {
    "T_SWITCH", "X_MAX", "_MAX_LEMMA_X", "_TEMPLATE_BELOW", "_RESCALE_HI",
    "_RESCALE_LO", "_SPLITTER", "_EPS", "_TINY", "_AIRY_EXP_EPS",
    "_AIRY_ASY_EPS",
}


def _walk():
    """{name: value} over every float constant the package holds; a name
    held by several modules must hold one value."""
    found = {}

    def add(name, value):
        assert found.setdefault(name, value) == value, name

    for module in map(importlib.import_module, _MODULES):
        for name, value in vars(module).items():
            if type(value) is float:
                add(name, value)
    for field, value in specfun.GAMMA._asdict().items():
        add("GAMMA." + field, value)
    for name, value in vars(series).items():
        if isinstance(value, series.Series) and not math.isnan(value.at_zero):
            add(name + ".at_zero", value.at_zero)
    return found


def test_every_constant_is_listed():
    found = _walk()
    assert set(found) - SETTINGS == set(TRUTH)
    assert SETTINGS <= set(found)
    assert set(OFFSETS) <= set(TRUTH)


@pytest.mark.parametrize("name", sorted(TRUTH))
def test_constant_against_50_digits(name):
    value = _walk()[name]
    with mpmath.workdps(50):
        offset = float((mpmath.mpf(value) - TRUTH[name]())
                       / math.ulp(value))
    if name in OFFSETS:
        assert abs(offset - OFFSETS[name]) < 0.01, offset
    else:
        assert abs(offset) <= 0.5, offset
