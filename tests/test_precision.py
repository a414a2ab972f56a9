import math
from decimal import ROUND_CEILING, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import mpf_ceil, mpf_floor, mpf_shift, to_int

from perigee.numtheory import FactoredNatural
from perigee.precision import (
    LogReal,
    ball_digits,
    decimal_from_floors,
    decimal_up,
    extreme_decimal,
    log_enclosure,
)


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


def dyadic(n, bits):
    """n / 2**bits as an exact Decimal, for bits >= 0."""
    return Decimal("%de-%d" % (n * 5**bits, bits))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**300), st.integers(0, 400), st.integers(1, 60))
@example(10**39 - 1, 0, 38)  # 99...9 rounds up to 1.0e+39: a carry into the exponent
@example(5**40, 40, 20)  # exactly 1e-40: nothing to round
def test_decimal_up_rounds_up(n, bits, dps):
    text = decimal_up(n, bits, dps)
    assert Decimal(text) == Context(prec=dps, rounding=ROUND_CEILING).plus(dyadic(n, bits))
    # laid out as decimal_from_floors lays out the same value
    assert text == decimal_from_floors(floors_of(Fraction(Decimal(text))), dps)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**200), st.integers(0, 2**40), st.integers(0, 300), st.integers(1, 40))
def test_ball_digits_decide_only_what_both_ends_print(lo, width, bits, dps):
    hi = lo + width
    text = ball_digits(lo, hi, bits, dps)
    ends = [decimal_from_floors(floors_of(Fraction(end, 2**bits)), dps) if end else "0.0"
            for end in (lo, hi)]
    assert text == (ends[0] if ends[0] == ends[1] else None)


def test_ball_digits_of_zero_and_decimal_up_of_zero():
    assert ball_digits(0, 0, 140, 38) == decimal_up(0, 140, 38) == "0.0"
    assert ball_digits(0, 1, 140, 38) is None  # 0 and 2**-140 print differently


def iv_log_ball(n, bits):
    """The former log_ball: one mpmath interval log at bits + 12, scaled by 2**bits."""
    saved = iv.prec
    iv.prec = bits + 12
    try:
        lo, hi = iv.log(iv.mpf(n))._mpi_
    finally:
        iv.prec = saved
    return (
        int(to_int(mpf_floor(mpf_shift(lo, bits), 0))),
        int(to_int(mpf_ceil(mpf_shift(hi, bits), 0))),
    )


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.integers(1, 2**200 - 1),
        st.integers(2000, 8000).flatmap(lambda k: st.integers(2 ** (k - 1), 2**k - 1)),
    ),
    st.integers(8, 2048),
)
@example(1, 8)  # log 1 = 0 exactly
@example(2**100, 64)  # a power of two: no atanh term
@example(2**100 - 1, 64)  # just below 2**k: the negative-z branch
@example(3, 2048)
@example(2**7999 + 1, 2048)  # the top-bits cut at the longest length
def test_log_enclosure_meets_the_interval_log(n, bits):
    lo, hi = log_enclosure(n, bits)
    iv_lo, iv_hi = iv_log_ball(n, bits)
    assert lo <= iv_hi and iv_lo <= hi
    assert 0 <= hi - lo <= 3
    # the ball holds log(n) itself: a 64-bit finer interval log lies inside it
    fine_lo, fine_hi = iv_log_ball(n, bits + 64)
    assert lo << 64 <= fine_lo and fine_hi <= hi << 64


def test_log_enclosure_is_exact_at_one_and_rejects_zero():
    assert log_enclosure(1, 128) == (0, 0)
    with pytest.raises(ValueError):
        log_enclosure(0, 128)


def test_log_real_balls_hold_their_value():
    # each derived real against mpmath at 400 bits: its ball at 64 bits must
    # hold the value, including after a negation
    with mp.workprec(400):
        for real, value in (
            (LogReal(10**40), 40 * mp.log(10)),
            (LogReal(10**40) / 7, 40 * mp.log(10) / 7),
            (LogReal(3) / 2 - Fraction(1, 3), mp.log(3) / 2 - mp.mpf(1) / 3),
            (-(LogReal(3) / 2 - 1), 1 - mp.log(3) / 2),
            (-(LogReal(5) - Fraction(7, 5)), mp.mpf(7) / 5 - mp.log(5)),
        ):
            lo, hi = real.ball(64)
            assert lo <= value * 2**64 <= hi and hi - lo <= 3


def test_log_real_ties_decide_exactly():
    # log(2**a)/a == log 2 for every a: equal reals never separate, so only
    # the exact test can stop the comparison
    rates = [LogReal(2**a) / a for a in (1, 6, 35, 210)]
    assert all(not x < y and not x > y for x in rates for y in rates)
    assert LogReal(8) / 3 < LogReal(3) / 1
    assert LogReal(4) - Fraction(1, 3) > LogReal(2) - Fraction(1, 2)
    # a rational point: log 1 = 0 leaves the offset, printed exactly
    assert (-(LogReal(1) - Fraction(3, 4))).decimal(5) == "0.75"
    assert LogReal(1).decimal(38) == "0.0"
    with mp.workprec(200):
        assert (LogReal(2**210) / 210).decimal(38) == mp.nstr(mp.log(2), 38)


def test_rational_log_reals_compare_as_fractions():
    # both counts are 1, so every real is a rational: 10**-6000 apart lies
    # below any ball that MAX_DECISION_BITS allows, yet the extremes print at
    # once, picked from exact Fraction floors.  |gap| = max(gap, -gap)
    tiny = Fraction(1, 10**6000)
    gaps = [LogReal(1) - tiny * k for k in (Fraction(3, 2), Fraction(4, 3), 1)]
    assert extreme_decimal(max, [x for gap in gaps for x in (gap, -gap)], 2) == "1.5e-6000"
    assert extreme_decimal(min, [-gap for gap in gaps], 2) == "1.0e-6000"
    assert extreme_decimal(max, [LogReal(1), -LogReal(1)], 2) == "0.0"
    assert (-gaps[0]).decimal(2) == "1.5e-6000"


PRIMES = (2, 3, 5, 7, 11, 13, 101, 7919, 2**61 - 1)
factored_naturals = st.dictionaries(st.sampled_from(PRIMES), st.integers(1, 80), max_size=4).map(
    lambda exponents: FactoredNatural.from_pairs(exponents.items())
)


def power(f, k):
    return FactoredNatural.from_pairs((p, e * k) for p, e in f.factors)


@settings(max_examples=150, deadline=None)
@given(factored_naturals, st.integers(1, 60), st.sampled_from((1, 5, 17, 38, 60)))
@example(FactoredNatural(()), 3, 38)  # the count 1: log 0, printed "0.0"
def test_log_real_of_factored_prints_as_its_value(f, n, dps):
    # the ball summed from the primes' balls gives the digits of the int's own ball
    log_f, log_value = LogReal(f), LogReal(int(f))
    assert log_f.decimal(dps) == log_value.decimal(dps)
    assert (log_f / n).decimal(dps) == (log_value / n).decimal(dps)


@settings(max_examples=150, deadline=None)
@given(factored_naturals, factored_naturals, st.integers(1, 40), st.integers(1, 40),
       st.integers(0, 4))
@example(FactoredNatural.from_pairs([(2, 6)]), FactoredNatural.from_pairs([(2, 8)]), 3, 4, 0)
@example(FactoredNatural.from_pairs([(2, 2), (3, 2)]), FactoredNatural(()), 2, 1, 3)
def test_log_real_of_factored_compares_as_its_value(f, g, a, b, tie):
    # tie > 0 takes g = f**tie at index b = a*tie, an exact tie of the rates,
    # decided from the exponents; rate(2**6, 3) = rate(4**4, 4) is the first example
    if tie:
        g, b = power(f, tie), a * tie
    x, y = LogReal(f) / a, LogReal(g) / b
    u, v = LogReal(int(f)) / a, LogReal(int(g)) / b
    assert (x < y, x > y) == (u < v, u > v)
    assert (x - Fraction(1, 3) < y, y > x) == (u - Fraction(1, 3) < v, v > u)
    if tie:
        assert not x < y and not x > y
