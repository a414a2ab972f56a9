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
"""

from functools import lru_cache

from mpmath import iv, mp
from mpmath.libmp import mpf_ceil, mpf_floor, mpf_shift, to_int

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
    return mp.workprec(bits + _GUARD_BITS)

