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
transcendental input, log(n), is enclosed by log_enclosure from atanh series
summed in fixed-point integers (R. P. Brent, J. ACM 23, 1976); log_ball caches
it for the plan primes.  Neither touches a process-global numeric context, so
both are safe to call from any thread.

LogReal carries a log, a rate or a rate's distance to a rational as such a
ball, refined on demand, and prints it through decimal_from_floors, which
writes a positive real from its exact decimal floors, correctly rounded, in
the layout of mp.nstr (decimal_from_scaled), and extreme_decimal prints a
min or max of LogReals from those of their floors, ordering none of them.
ball_digits prints a ball whose ends round alike, escalate doubles its
precision until they do, decimal_up prints a radius rounded up, and
unlimited_int_digits lifts Python's int<->str digit limit.
"""

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial

from .numtheory import FactoredNatural, floor_root

DEFAULT_PRECISION_BITS = 128

# Hard ceiling for decision escalation.  Reaching it means a quantity sat on
# an integer / on the comparison boundary, which the irrationality argument
# rules out; treat it as a bug, not as bad luck.
MAX_DECISION_BITS = 1 << 14

GUARD_BITS = 12


class PrecisionError(ArithmeticError):
    """An interval decision failed to resolve below MAX_DECISION_BITS."""


def _atanh_ball(p, q, bits):
    """Integers (s, err) with s <= atanh(p/q) * 2**bits <= s + err, for 0 <= p/q <= 1/3.

    z and z**2 are floored to fixed point, and every power z**k is floored
    from the previous one times z**2, so it stays below its true value by
    less than 7/4 ulps; each term of the sum of z**k / k over odd k then loses
    less than 2 ulps, and so does the tail.
    """
    z = (p << bits) // q
    power, z2 = z, z * z >> bits
    total, k = 0, 1
    while power:
        total += power // k
        power = power * z2 >> bits
        k += 2
    return total, (k + 1 if p else 0)


@lru_cache(maxsize=None)
def _log2_ball(bits):
    """(lo, hi) of log(2) * 2**bits, from log 2 = 2*atanh(1/3)."""
    s, err = _atanh_ball(1, 3, bits)
    return 2 * s, 2 * (s + err)


def log_enclosure(n, bits):
    """Integers (lo, hi) with lo <= log(n) * 2**bits <= hi, for an integer n >= 1.

    log n = e*log 2 + 2*atanh(z), z = (m - 2**k)/(m + 2**k), where m is n cut
    to its top w + 1 bits and 2**k/sqrt(2) <= m < 2**k*sqrt(2), so |z| <= 0.172
    and e = k plus the bits cut.  Both series run at w = bits + guard bits +
    bit_length(bit_length(n)), so e*log 2 stays a few ulps wide, and the cut
    adds log(1 + 1/m) <= 2**-w.  Up to a few thousand bits the ball is at
    most 3 ulps wide.
    """
    if n < 1:
        raise ValueError("log needs an integer n >= 1")
    w = bits + GUARD_BITS + n.bit_length().bit_length()
    shift = max(0, n.bit_length() - w - 1)
    m = n >> shift
    k = m.bit_length()
    if 2 * m * m < 1 << 2 * k:  # m < 2**k / sqrt(2)
        k -= 1
    log2_lo, log2_hi = _log2_ball(w)
    s, err = _atanh_ball(abs(m - (1 << k)), m + (1 << k), w)
    if m < 1 << k:
        s = -s - err
    lo = (k + shift) * log2_lo + 2 * s
    hi = (k + shift) * log2_hi + 2 * (s + err) + (shift > 0)
    return lo >> w - bits, -(-hi >> w - bits)


# Plan primes recur in every decision and table row; counts and sequence
# values go to log_enclosure directly, so they never pile up in this cache.
log_ball = lru_cache(maxsize=None)(log_enclosure)


def _count_log_ball(count, bits):
    """log_enclosure of an int; of a FactoredNatural, the sum of e*log_ball(p)."""
    if not isinstance(count, FactoredNatural):
        return log_enclosure(count, bits)
    lo = hi = 0
    for p, e in count.factors:
        p_lo, p_hi = log_ball(p, bits)
        lo, hi = lo + e * p_lo, hi + e * p_hi
    return lo, hi


def _doubled(bits, what):
    if bits >= MAX_DECISION_BITS:
        raise PrecisionError("%s still undecided at %d bits" % (what, bits))
    return 2 * bits


def adaptive_floor(build):
    """Floor of a value, escalating until its integer bounds agree.

    `build(bits)` must return integers (lo, hi) with lo <= floor(x) <= hi for
    the same mathematical value x at any requested precision.  An exact floor
    takes no precision: tries start at DEFAULT_PRECISION_BITS, read at the
    call, and double up to MAX_DECISION_BITS.
    """
    bits = DEFAULT_PRECISION_BITS
    lo, hi = build(bits)
    while lo != hi:
        bits = _doubled(bits, "floor")
        lo, hi = build(bits)
    return lo


def adaptive_decide(predicate):
    """Escalate, as adaptive_floor does, until predicate(bits) returns True or False."""
    bits = DEFAULT_PRECISION_BITS
    while (verdict := predicate(bits)) is None:
        bits = _doubled(bits, "comparison")
    return verdict


def digits_for_bits(bits):
    """Decimal digits carried by a binary precision (used for printing)."""
    return max(1, int(bits * 0.3010299956639812))


def escalate(attempt, bits):
    """The first value of attempt(b) other than None for b = bits, 2 * bits, ...
    up to MAX_DECISION_BITS (Ziv's strategy)."""
    while (found := attempt(bits)) is None:
        bits = _doubled(bits, "digit")
    return found


def _head(floor_at, dps):
    """(floor(x * 10**(dps - e)), e) for the real x > 0 with 10**e <= x < 10**(e + 1).

    floor_at(j) must return floor(x * 10**j) exactly for every integer j.  e
    is read off the first nonzero floor, tried from j = dps up; for
    x >= 10**-dps this takes at most two calls of floor_at.
    """
    j = dps
    while (head := floor_at(j)) == 0:
        j = 2 * j + 1
    e = len(str(head)) - 1 - j
    # head has dps + 1 + cut digits; floor(floor(y) / 10**k) = floor(y / 10**k)
    cut = e + j - dps
    return (head // 10**cut if cut >= 0 else floor_at(dps - e)), e


def decimal_from_scaled(scaled, e, dps):
    """mp.nstr's string for a real x with 10**e <= x < 10**(e + 1), from
    scaled = floor(x * 10**(dps - e)), its dps + 1 leading digits.

    x is rounded half up at digit dps + 1 to dps significant digits, and the
    digits are laid out as mp.nstr(x, dps) lays out its own: fixed notation
    when min(-(dps // 3), -5) < e < dps, else d.ddde+E or d.ddde-E, with
    trailing zeros stripped down to one after the point.
    """
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


def decimal_from_floors(floor_at, dps):
    """decimal_from_scaled's string for a real x > 0 known by its exact
    decimal floors floor_at(j) = floor(x * 10**j)."""
    return decimal_from_scaled(*_head(floor_at, dps), dps)


def extreme_decimal(pick, reals, dps):
    """LogReal.decimal's string for x = pick(reals), pick min or max, with no
    real compared to another: floor is monotone, so floor(x * 10**j) is pick
    of the reals' floors, and decimal_from_floors prints from those (the
    lattice operations of R. E. Moore, Interval Analysis, 1966).  The reals
    must be >= 0, or come with their negatives under max (|y| = max(y, -y));
    then x is zero, printed 0.0, exactly when pick of their nonzero flags is."""
    reals = tuple(reals)
    if not pick(r.count != 1 or r.offset != 0 for r in reals):
        return "0.0"
    return decimal_from_floors(lambda j: pick(r.floor_at(j) for r in reals), dps)


def _dyadic_floor(n, bits, j):
    """floor(n / 2**bits * 10**j) for an integer n >= 0."""
    return n * 10**j >> bits if j >= 0 else (n >> bits) // 10**-j


def ball_digits(lo, hi, bits, dps):
    """The string decimal_from_floors prints at dps for every real x with
    0 <= lo <= x * 2**bits <= hi, or None if the ends print different ones.

    Rounding to dps digits is monotone, so ends that print alike decide the
    digits of every x between them; zero prints 0.0, as mp.nstr does.
    """
    low, high = (
        decimal_from_floors(partial(_dyadic_floor, end, bits), dps) if end else "0.0"
        for end in (lo, hi)
    )
    return low if low == high else None


def decimal_up(n, bits, dps):
    """n / 2**bits for an integer n >= 0, rounded up to dps significant digits
    and laid out as decimal_from_scaled lays out digits."""
    if not n:
        return "0.0"
    _, e = _head(partial(_dyadic_floor, n, bits), dps)
    k = dps - 1 - e
    up = -(-n * 10**k >> bits) if k >= 0 else -(-n // (10**-k << bits))
    return decimal_from_scaled(10 * up, e, dps)


class LogReal:
    """The real (scale * log(count) + offset) / den, for a count >= 1 (an int or a
    FactoredNatural over primes), scale != 0, offset and den >= 1, known through integer balls.

    The ball of log(count) is taken at precision_bits plus guard bits and
    refined only when a digit or a comparison needs it; -x and the reals
    derived by / and - share it, so a log and its rate cost one evaluation.
    Digits are floors of both ends of a ball, refined until they agree (Ziv).
    """

    __slots__ = ("count", "scale", "offset", "den", "_log")

    def __init__(self, count, precision_bits=DEFAULT_PRECISION_BITS, scale=1, offset=0, den=1,
                 log=None):
        if isinstance(count, FactoredNatural) and not count.factors:  # log 0 is read as count == 1
            count = 1
        self.count, self.scale, self.offset, self.den = count, scale, offset, den
        bits = precision_bits + GUARD_BITS
        # [b, lo, hi] with lo <= log(count) * 2**b <= hi
        self._log = log or [bits, *_count_log_ball(count, bits)]

    def _derive(self, scale, offset, den):
        return LogReal(self.count, scale=scale, offset=offset, den=den, log=self._log)

    def __truediv__(self, n):
        return self._derive(self.scale, self.offset, self.den * n)

    def __sub__(self, q):
        q = Fraction(q)
        d = q.denominator
        return self._derive(self.scale * d, self.offset * d - q.numerator * self.den, self.den * d)

    def __neg__(self):
        return self._derive(-self.scale, -self.offset, self.den)

    def ball(self, bits):
        """Integers (lo, hi) with lo <= x * 2**bits <= hi."""
        held, lo, hi = self._log
        if held < bits:
            self._log[:] = held, lo, hi = bits, *_count_log_ball(self.count, bits)
        lo, hi = lo >> held - bits, -(-hi >> held - bits)
        if self.scale < 0:
            lo, hi = hi, lo
        shift = self.offset << bits
        return (self.scale * lo + shift) // self.den, -((-self.scale * hi - shift) // self.den)

    def floor_at(self, j):
        """floor(x * 10**j), exactly; with log(1) = 0, x is rational."""
        if self.count == 1:
            return math.floor(Fraction(self.offset, self.den) * Fraction(10) ** j)
        up, down = (10**j, 1) if j >= 0 else (1, 10**-j)
        bits = self._log[0]
        while True:
            lo, hi = self.ball(bits)
            lo, hi = lo * up // down >> bits, hi * up // down >> bits
            if lo == hi:
                return lo
            bits = _doubled(bits, "digit")

    def decimal(self, dps):
        """decimal_from_floors's string for x >= 0; zero prints 0.0, as mp.nstr does."""
        if self.count == 1 and not self.offset:
            return "0.0"
        return decimal_from_floors(self.floor_at, dps)

    def _same(self, other):
        """x == other, exactly.  The difference of the log terms is the log of
        a positive algebraic number, transcendental unless that number is 1
        (Hermite-Lindemann), so equality needs equal offsets/den and
        count**v == other.count**u, u/v the ratio of the log coefficients:
        over primes, exponents in that ratio; else both must be powers of one
        integer r, r**u and r**v."""
        if self.offset * other.den != other.offset * self.den:
            return False
        ratio = Fraction(other.scale * self.den, other.den * self.scale)
        if 1 in (self.count, other.count) or ratio < 0:
            return self.count == other.count == 1
        u, v = ratio.numerator, ratio.denominator
        if isinstance(self.count, FactoredNatural) and isinstance(other.count, FactoredNatural):
            scaled = [(p, e * v) for p, e in self.count.factors]
            return scaled == [(p, e * u) for p, e in other.count.factors]
        root = floor_root(self.count, u)
        return root**u == self.count and root**v == other.count

    def _cmp(self, other):
        """-1, 0 or 1 as x <, == or > the LogReal other.  Balls that overlap
        at the first precision get the exact tie test, so a tie is decided
        without refining; any other pair refines until it separates."""
        bits = start = min(self._log[0], other._log[0])
        while True:
            (a_lo, a_hi), (b_lo, b_hi) = self.ball(bits), other.ball(bits)
            if a_hi < b_lo or b_hi < a_lo:
                return -1 if a_hi < b_lo else 1
            if bits == start and self._same(other):
                return 0
            bits = _doubled(bits, "comparison")

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __gt__(self, other):
        return self._cmp(other) > 0


@contextmanager
def unlimited_int_digits():
    """Lift Python's int<->str digit limit (3.10.7 and later) for the block.

    Counts, plan primes and Lehmer integers routinely pass the default 4300
    digits.  The previous limit comes back on exit; the limit is process-global,
    so this is reentrant but not thread safe.  Also usable as a decorator.
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
