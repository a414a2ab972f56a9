"""Truncated dynamical zeta functions with exact rational coefficients.

The zeta function of a map with period counts F_n is the formal power series
exp(sum over n >= 1 of F_n * z^n / n).  Its coefficients satisfy the exact
recurrence m*c_m = sum over k = 1..m of F_k * c_{m-k}, which is how they are
computed here, exactly, on the integers m! * c_m.  For realizable sequences
the same series is the truncated Euler product over orbits,
prod over n of (1 - z^n)^(-L_n/n), with nonnegative integer coefficients.

A minimal-linear-recurrence search over the coefficients probes whether the
truncation c_0..c_M is consistent with a rational function.  The verdict
"no-low-order-recurrence" is a proof that no linear recurrence of length
<= M//2 - 1 fits c_0..c_M, certified modulo a prime by the linear complexity
profile of one Berlekamp-Massey run; "consistent-with-rational" is only ever
"consistent with".  Both verdicts are statements about the truncation, never
about the full series.
"""

import math
import operator
from collections import namedtuple
from fractions import Fraction

from .orbits import KIND_FIXED, RealizabilityError, least_from_fixed

VERDICT_RATIONAL = "consistent-with-rational"
VERDICT_NO_RECURRENCE = "no-low-order-recurrence"

# The Mersenne prime 2**61 - 1: the field of residues in which one
# Berlekamp-Massey profile certifies the window matrix's full rank.
RANK_PRIME = 2**61 - 1


class ZetaSeries(namedtuple("ZetaSeries", "coefficients")):
    """Exact rational coefficients c_0..c_M of a truncated zeta function."""

    __slots__ = ()

    def __new__(cls, coefficients):
        if not coefficients or coefficients[0] != 1:
            raise ValueError("series must start with c_0 = 1")
        return super().__new__(cls, coefficients)

    # _replace builds through _make, which would skip __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def M(self):
        return len(self.coefficients) - 1


def _check_order(F, order, what):
    if F.kind != KIND_FIXED:
        raise ValueError("%s needs a fixed-count sequence" % what)
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if order > F.N:
        raise ValueError("truncation order %d beyond horizon %d" % (order, F.N))


def zeta_truncate(F, order):
    """Coefficients through z**order via the exact exponential recurrence."""
    _check_order(F, order, "zeta series")
    # a_m = m! * c_m is an integer:
    # a_m = sum over k of F_k * ((m-1)!/(m-k)!) * a_{m-k}, summed by Horner.
    values = F.values
    scaled = [1]
    coeffs = [Fraction(1)]
    factorial = 1
    for m in range(1, order + 1):
        acc = 0
        for k in range(m, 0, -1):
            acc = acc * (m - k) + values[k - 1] * scaled[m - k]
        scaled.append(acc)
        factorial *= m
        coeffs.append(Fraction(acc, factorial))
    return ZetaSeries(coefficients=tuple(coeffs))


def _mul_trunc(a, b, order):
    out = [0] * (order + 1)
    b_terms = [(j, y) for j, y in enumerate(b[: order + 1]) if y]
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in b_terms:
            if i + j > order:
                break
            out[i + j] += x * y
    return out


def orbit_product_form(F, order):
    """Truncated Euler product over orbits: prod of (1 - z^n)^(-L_n/n).

    Requires F to be realizable up to the truncation order; the orbit counts
    L_n/n are then nonnegative integers and so are all series coefficients.
    Must agree with zeta_truncate coefficient by coefficient.
    """
    _check_order(F, order, "orbit product")
    L = least_from_fixed(F)
    series = [1] + [0] * order
    for n in range(1, order + 1):
        ln = L.values[n - 1]
        if ln < 0:
            raise RealizabilityError(n, "least count L_%d = %d is negative" % (n, ln))
        if ln % n != 0:
            raise RealizabilityError(n, "%d does not divide L_%d = %d" % (n, n, ln))
        orbits = ln // n
        if orbits == 0:
            continue
        # (1 - z^n)^(-orbits): coefficient binom(orbits - 1 + j, j) at z^(n*j)
        factor = [0] * (order + 1)
        for j in range(order // n + 1):
            factor[n * j] = math.comb(orbits - 1 + j, j)
        series = _mul_trunc(series, factor, order)
    return ZetaSeries(coefficients=tuple(series))


# --- rationality probe ----------------------------------------------------------


def _lfsr(seq, inverse, reduce):
    """Berlekamp-Massey (Massey 1969) over a field given by inverse and reduce.

    Returns (L, C, profile): the minimal LFSR length L of seq, its connection
    polynomial C = (1, c_1, ..) with deg C <= L, and the linear complexity
    profile, profile[i] = the minimal length for the prefix s_0..s_i.
    """
    C, B = [1], [1]
    L, m, b = 0, 1, 1
    profile = []
    for i in range(len(seq)):
        past = seq[i + 1 - len(C) : i]
        d = reduce(sum(map(operator.mul, C[1:], reversed(past)), seq[i]))
        if d:
            coef = reduce(d * inverse(b))
            T = C
            C = C + [0] * (m + len(B) - len(C))
            for j, x in enumerate(B, start=m):
                C[j] = reduce(C[j] - coef * x)
            if 2 * L <= i:
                L, B, b, m = i + 1 - L, T, d, 0
        m += 1
        profile.append(L)
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    return L, tuple(C), profile


def berlekamp_massey(sequence):
    """Minimal LFSR over the rationals.

    Returns (L, C) where C = (1, c_1, ..) is the connection polynomial:
    sum over j of C_j * s_{i-j} = 0 for every i in [L, len(sequence)).
    """
    L, C, _ = _lfsr([Fraction(s) for s in sequence], lambda x: 1 / Fraction(x), lambda x: x)
    return L, tuple(map(Fraction, C))


class ProbeVerdict(
    namedtuple("ProbeVerdict", "verdict numerator denominator recurrence_length")
):
    """Outcome of rationality_probe.

    recurrence_length is the minimal recurrence length L found by
    Berlekamp-Massey over Q, except for a no-low-order-recurrence verdict
    certified by the rank check, where it is the lower bound M//2 (every
    recurrence that fits the truncation is at least that long) and
    Berlekamp-Massey runs only modulo RANK_PRIME.
    """

    __slots__ = ()

    def to_json(self):
        obj = {"verdict": self.verdict}
        if self.verdict == VERDICT_RATIONAL:
            obj["num_coeffs"] = [str(c) for c in self.numerator]
            obj["den_coeffs"] = [str(c) for c in self.denominator]
        return obj


def _normalize_pair(num, den):
    """Scale numerator and denominator together to primitive integers; den(0) keeps its sign."""
    terms = [*num, *den]
    scale = math.lcm(*(c.denominator for c in terms))
    ints = [int(c * scale) for c in terms]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    return tuple(ints[: len(num)]), tuple(ints[len(num) :])


def _window_has_full_rank(seq, cap):
    """Whether the window matrix W = [s_{i-j}], i = cap..M, j = 0..cap, has
    full column rank modulo RANK_PRIME, read off one Berlekamp-Massey profile.

    Lemma.  A nonzero kernel vector v of W factors uniquely as v = x^k * u with
    u(0) != 0 and deg u <= cap - k, and v is in the kernel exactly when u / u(0)
    is a recurrence of length cap - k for the prefix s_0..s_{M-k}.  So W has
    full column rank iff LC(s_0..s_{M-k}) > cap - k for every k = 0..cap, where
    LC is the linear complexity, and one pass of _lfsr gives it for every
    prefix (Jonckheere and Ma 1989 give the Hankel reading of the profile).

    Reduction mod a prime is a ring homomorphism on the rationals whose
    denominators it does not divide, so full rank mod RANK_PRIME implies full
    rank over Q.  False means "not certified": the rank is deficient mod the
    prime, or RANK_PRIME divides a denominator (impossible for zeta
    coefficients with M < RANK_PRIME, whose denominators divide M!).
    """
    try:
        residues = [c.numerator * pow(c.denominator, -1, RANK_PRIME) % RANK_PRIME for c in seq]
    except ValueError:  # RANK_PRIME divides a denominator
        return False
    _, _, profile = _lfsr(residues, lambda x: pow(x, -1, RANK_PRIME), lambda x: x % RANK_PRIME)
    # profile[-1 - k] is LC(s_0..s_{M-k})
    return all(profile[-1 - k] > cap - k for k in range(cap + 1))


def rationality_probe(S):
    """Search for a low-order linear recurrence among the coefficients.

    Any recurrence sum over j of C_j * c_{i-j} = 0 (C_0 = 1) of length
    L <= cap = M//2 - 1 that fits c_0..c_M, padded with zeros, is a nonzero
    kernel vector of the window matrix [c_{i-j}] (i = cap..M, j = 0..cap).
    So when that matrix has full column rank mod RANK_PRIME the verdict
    no-low-order-recurrence is proven, with recurrence_length = cap + 1 as a
    lower bound.  Otherwise Berlekamp-Massey over Q finds the minimal
    recurrence: if it has length L <= cap it leaves at least L + 1
    verification terms beyond the fitting window, and the candidate rational
    function is denominator = connection polynomial, numerator = (denominator
    * series) truncated, which must have no terms past the recurrence window.
    The verdict is inherently about the finite truncation: it never asserts
    anything about the full series.
    """
    if S.M < 8:
        raise ValueError("probe needs at least 8 coefficients beyond c_0")
    cap = S.M // 2 - 1
    if _window_has_full_rank(S.coefficients, cap):
        return ProbeVerdict(VERDICT_NO_RECURRENCE, None, None, cap + 1)
    L, C = berlekamp_massey(S.coefficients)
    if L > cap:
        return ProbeVerdict(VERDICT_NO_RECURRENCE, None, None, L)
    product = _mul_trunc(C, S.coefficients, S.M)
    if any(product[L:]):
        return ProbeVerdict(VERDICT_NO_RECURRENCE, None, None, L)
    numerator = product[: max(L, 1)]
    while len(numerator) > 1 and numerator[-1] == 0:
        numerator.pop()
    num, den = _normalize_pair(numerator, C)
    return ProbeVerdict(VERDICT_RATIONAL, num, den, L)
