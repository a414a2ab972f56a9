"""Adaptive-precision integer balls and real helpers.

Every exact quantity in this package is an integer or a rational; logarithms
of integers are the only transcendental values that ever enter a comparison.
A ratio like (n*C)/log(p) with rational C > 0 and prime p is never an integer
(it would force log of an integer >= 2 to be rational), so floors and strict
inequalities involving such quantities are always decidable: compute an
enclosure, and if it straddles the decision boundary, double the precision
and try again.

Enclosures are integer balls at a binary scale b: a pair of Python integers
(lo, hi) with lo <= x * 2**b <= hi, the fixed-point analogue of Arb's
midpoint-radius balls (F. Johansson, IEEE Trans. Computers 66, 2017).  Sums,
integer multiples and floors of quotients of balls are exact integer
arithmetic, so a decision never touches a floating-point context.  The one
transcendental input, log(n), is enclosed once per (n, b) by log_ball from
an mpmath interval evaluation.

mpmath's contexts are process-global.  log_ball saves and restores the
interval precision around its evaluation; it is reentrant but not thread
safe, so run concurrent work in separate processes.

decimal_from_floors prints a positive real from its exact decimal floors,
correctly rounded, in the layout of mp.nstr; unlimited_int_digits lifts
Python's int<->str digit limit around conversions of long counts.
"""

import sys
from contextlib import contextmanager
from functools import lru_cache

DEFAULT_PRECISION_BITS = 128

# Hard ceiling for decision escalation.  Reaching it means a quantity sat on
# an integer / on the comparison boundary, which the irrationality argument
# rules out; treat it as a bug, not as bad luck.
MAX_DECISION_BITS = 1 << 14

_GUARD_BITS = 12


class PrecisionError(ArithmeticError):
    """An interval decision failed to resolve below MAX_DECISION_BITS."""


@lru_cache(maxsize=None)
def log_ball(n, bits):
    """Integers (lo, hi) with lo <= log(n) * 2**bits <= hi, for an integer n >= 1.

    The enclosure comes from one mpmath interval logarithm at bits plus
    guard bits of precision; scaling its ends by 2**bits is exact.
    """
    from mpmath import iv
    from mpmath.libmp import mpf_ceil, mpf_floor, mpf_shift, to_int

    saved = iv.prec
    iv.prec = bits + _GUARD_BITS
    try:
        lo, hi = iv.log(iv.mpf(n))._mpi_
    finally:
        iv.prec = saved
    return (
        int(to_int(mpf_floor(mpf_shift(lo, bits), 0))),
        int(to_int(mpf_ceil(mpf_shift(hi, bits), 0))),
    )


def adaptive_floor(build, start_bits=DEFAULT_PRECISION_BITS, max_bits=MAX_DECISION_BITS):
    """Floor of a value, escalating until its integer bounds agree.

    `build(bits)` must return integers (lo, hi) with lo <= floor(x) <= hi for
    the same mathematical value x at any requested precision.
    """
    bits = start_bits
    while True:
        lo, hi = build(bits)
        if lo == hi:
            return lo
        if bits >= max_bits:
            raise PrecisionError("floor still undecided at %d bits" % bits)
        bits *= 2


def adaptive_decide(predicate, start_bits=DEFAULT_PRECISION_BITS, max_bits=MAX_DECISION_BITS):
    """Escalate until predicate(bits) returns True or False instead of None."""
    bits = start_bits
    while True:
        verdict = predicate(bits)
        if verdict is not None:
            return verdict
        if bits >= max_bits:
            raise PrecisionError("comparison still undecided at %d bits" % bits)
        bits *= 2


def digits_for_bits(bits):
    """Decimal digits carried by a binary precision (used for printing)."""
    return max(1, int(bits * 0.3010299956639812))


def working_precision(bits):
    """mp.workprec context at bits plus the guard bits every printed value carries."""
    from mpmath import mp

    return mp.workprec(bits + _GUARD_BITS)


def decimal_from_floors(floor_at, dps):
    """mp.nstr's string for a real x > 0, rounded half up from exact floors.

    floor_at(j) must return floor(x * 10**j) exactly for every integer j.
    The leading decimal exponent e (10**e <= x < 10**(e+1)) is read off the
    first nonzero floor, tried from j = dps up; x is rounded half up at digit
    dps + 1 to dps significant digits, and the digits are laid out as
    mp.nstr(x, dps) lays out its own: fixed notation when
    min(-(dps // 3), -5) < e < dps, else d.ddde+E or d.ddde-E, with trailing
    zeros stripped down to one after the point.  For x >= 10**-dps this takes
    at most two calls of floor_at.
    """
    j = dps
    while (head := floor_at(j)) == 0:
        j = 2 * j + 1
    e = len(str(head)) - 1 - j
    # head has dps + 1 + cut digits; floor(floor(y) / 10**k) = floor(y / 10**k)
    cut = e + j - dps
    scaled = head // 10**cut if cut >= 0 else floor_at(dps - e)
    lead, rest = divmod(scaled, 10)
    if rest >= 5:
        lead += 1
        if lead == 10**dps:
            lead //= 10
            e += 1
    digits = str(lead)
    if min(-(dps // 3), -5) < e < dps:
        if e < 0:
            digits, split = "0" * -e + digits, 1
        else:
            split = e + 1
        exponent = ""
    else:
        split, exponent = 1, "e%+d" % e
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return text + exponent


@contextmanager
def unlimited_int_digits():
    """Lift Python's int<->str digit limit (3.10.7 and later) for the block.

    Counts, plan primes and Lehmer integers routinely pass the default 4300
    digits.  The previous limit comes back on exit; like mpmath's contexts the
    limit is process-global, so this is reentrant but not thread safe.  Also
    usable as a decorator.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
