import math
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from perigee.precision import decimal_from_floors


def floors_of(x):
    """floor(x * 10**j) for a Fraction x, exactly."""
    return lambda j: math.floor(x * Fraction(10) ** j)


def nstr_bits(dps):
    """Bits mp.nstr keeps when it prints dps digits: it truncates a wider
    mantissa to this many bits before it rounds, so only up to this width is
    its output the rounding of the exact value."""
    return int((dps + 3) * math.log(10, 2)) + 10


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**400 - 1), st.integers(-300, 200), st.integers(1, 80))
@example(1, 1, 38)  # 2.0, the ratio printed at n = 1
@example(2**10 - 1, -10, 2)  # 0.999... rounds up to 1.0
@example(5, -1, 1)  # 2.5: a tie rounds up
@example(3, 96, 5)  # 2.3768e+29: scientific from dps digits up
@example(1, -40, 5)  # 9.0949e-13: scientific below 10**-5
def test_decimal_from_floors_rounds_like_nstr(m, e, dps):
    # the value: m * 2**e rounded half up by the decimal module
    exact = Decimal("%de%d" % (m * 5**-e, e)) if e < 0 else Decimal(m * 2**e)
    text = decimal_from_floors(floors_of(Fraction(m) * Fraction(2) ** e), dps)
    assert Decimal(text) == Context(prec=dps, rounding=ROUND_HALF_UP).plus(exact)
    # the layout: mp.nstr's own, on a mantissa narrow enough that nstr sees all of it
    shift = max(0, m.bit_length() - nstr_bits(dps))
    m, e = m >> shift, e + shift
    with mp.workprec(m.bit_length()):
        value = mp.ldexp(m, e)
    assert decimal_from_floors(floors_of(Fraction(m) * Fraction(2) ** e), dps) == mp.nstr(
        value, dps
    )


def test_decimal_from_floors_rounds_where_nstr_truncates():
    # x lies within 2**-300 above 0.35, so it rounds to 0.4; nstr truncates
    # x to a few dozen bits, which puts it below 0.35, and prints 0.3
    m = 35 * 2**300 // 100 + 1
    x = Fraction(m, 2**300)
    assert decimal_from_floors(floors_of(x), 1) == "0.4"
    with mp.workprec(m.bit_length()):
        assert mp.nstr(mp.ldexp(m, -300), 1) == "0.3"
