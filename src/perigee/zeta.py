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
<= M//2 - 1 fits c_0..c_M, certified by a rank computation modulo a prime;
"consistent-with-rational" is only ever "consistent with".  Both verdicts are
statements about the truncation, never about the full series.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .orbits import (
    KIND_FIXED,
    CountSequence,
    RealizabilityError,
    least_from_fixed,
)

VERDICT_RATIONAL = "consistent-with-rational"
VERDICT_NO_RECURRENCE = "no-low-order-recurrence"

# The Mersenne prime 2**61 - 1: the rank check's field of residues.
RANK_PRIME = 2**61 - 1


@dataclass(frozen=True)
class ZetaSeries:
    """Exact rational coefficients c_0..c_M of a truncated zeta function."""

    coefficients: tuple[Fraction, ...]
    source: CountSequence | None = None

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("series must start with c_0 = 1")

    @property
    def M(self):
        return len(self.coefficients) - 1


def zeta_truncate(F, order):
    """Coefficients through z**order via the exact exponential recurrence."""
    if F.kind != KIND_FIXED:
        raise ValueError("zeta series needs a fixed-count sequence")
    if order > F.N:
        raise ValueError("truncation order %d beyond horizon %d" % (order, F.N))
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
    return ZetaSeries(coefficients=tuple(coeffs), source=F)


def sequence_from_series(S):
    """Invert the recurrence: recover F_1..F_M exactly from the coefficients."""
    c = S.coefficients
    values = []
    for m in range(1, S.M + 1):
        acc = m * c[m]
        for k in range(1, m):
            acc -= values[k - 1] * c[m - k]
        if acc.denominator != 1:
            raise ValueError("series does not come from an integer sequence")
        values.append(int(acc))
    return CountSequence(KIND_FIXED, tuple(values))


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
    if F.kind != KIND_FIXED:
        raise ValueError("orbit product needs a fixed-count sequence")
    if order > F.N:
        raise ValueError("truncation order %d beyond horizon %d" % (order, F.N))
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
    return ZetaSeries(coefficients=tuple(series), source=F)


# --- rationality probe ----------------------------------------------------------


def berlekamp_massey(sequence):
    """Minimal LFSR over the rationals.

    Returns (L, C) where C = (1, c_1, ..) is the connection polynomial:
    sum over j of C_j * s_{i-j} = 0 for every i in [L, len(sequence)).
    """
    seq = [Fraction(s) for s in sequence]
    C = [Fraction(1)]
    B = [Fraction(1)]
    L = 0
    m = 1
    b = Fraction(1)
    for i, s_i in enumerate(seq):
        d = s_i
        for j in range(1, len(C)):
            if j > i:
                break
            d += C[j] * seq[i - j]
        if d == 0:
            m += 1
            continue
        coef = d / b
        shifted = [Fraction(0)] * m + [coef * x for x in B]
        if 2 * L <= i:
            old_c = C[:]
            if len(shifted) > len(C):
                C = C + [Fraction(0)] * (len(shifted) - len(C))
            for j, x in enumerate(shifted):
                C[j] -= x
            B = old_c
            L = i + 1 - L
            b = d
            m = 1
        else:
            if len(shifted) > len(C):
                C = C + [Fraction(0)] * (len(shifted) - len(C))
            for j, x in enumerate(shifted):
                C[j] -= x
            m += 1
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    return L, tuple(C)


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of rationality_probe.

    recurrence_length is the minimal recurrence length L found by
    Berlekamp-Massey, except for a no-low-order-recurrence verdict certified
    by the rank check, where it is the lower bound M//2 (every recurrence
    that fits the truncation is at least that long) and BM never runs.
    """

    verdict: str
    numerator: tuple[int, ...] | None
    denominator: tuple[int, ...] | None
    recurrence_length: int

    def to_json(self):
        obj = {"verdict": self.verdict}
        if self.verdict == VERDICT_RATIONAL:
            obj["num_coeffs"] = [str(c) for c in self.numerator]
            obj["den_coeffs"] = [str(c) for c in self.denominator]
        return obj


def _normalize_pair(num, den):
    """Scale numerator and denominator together to primitive integers, den(0) > 0."""
    scale = 1
    for c in list(num) + list(den):
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    n_int = [int(c * scale) for c in num]
    d_int = [int(c * scale) for c in den]
    g = 0
    for c in n_int + d_int:
        g = math.gcd(g, abs(c))
    if g > 1:
        n_int = [c // g for c in n_int]
        d_int = [c // g for c in d_int]
    if d_int[0] < 0:
        n_int = [-c for c in n_int]
        d_int = [-c for c in d_int]
    return tuple(n_int), tuple(d_int)


def _window_has_full_rank(seq, cap):
    """Whether the window matrix [s_{i-j}], i = cap..M, j = 0..cap, has full
    column rank modulo RANK_PRIME, by Gaussian elimination on residues.

    Reduction mod a prime is a ring homomorphism on the rationals whose
    denominators it does not divide, so full rank mod RANK_PRIME implies full
    rank over Q.  False means "not certified": the rank is deficient mod the
    prime, or RANK_PRIME divides a denominator (impossible for zeta
    coefficients with M < RANK_PRIME, whose denominators divide M!).
    """
    residues = []
    for c in seq:
        den = c.denominator % RANK_PRIME
        if den == 0:
            return False
        residues.append(c.numerator * pow(den, -1, RANK_PRIME) % RANK_PRIME)
    rows = [[residues[i - j] for j in range(cap + 1)] for i in range(cap, len(seq))]
    # Eliminate column by column, dropping each pivot row and finished column.
    for _ in range(cap + 1):
        pivot = next((row for row in rows if row[0]), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        inv = pow(pivot[0], -1, RANK_PRIME)
        tail = [x * inv % RANK_PRIME for x in pivot[1:]]
        rows = [
            [(x - row[0] * y) % RANK_PRIME for x, y in zip(row[1:], tail)] if row[0] else row[1:]
            for row in rows
        ]
    return True


def rationality_probe(S):
    """Search for a low-order linear recurrence among the coefficients.

    Any recurrence sum over j of C_j * c_{i-j} = 0 (C_0 = 1) of length
    L <= cap = M//2 - 1 that fits c_0..c_M, padded with zeros, is a nonzero
    kernel vector of the window matrix [c_{i-j}] (i = cap..M, j = 0..cap).
    So when that matrix has full column rank mod RANK_PRIME the verdict
    no-low-order-recurrence is proven, with recurrence_length = cap + 1 as a
    lower bound.  Otherwise Berlekamp-Massey finds the minimal recurrence: if
    it has length L <= cap it leaves at least L + 1 verification terms beyond
    the fitting window, and the candidate rational function is denominator =
    connection polynomial, numerator = (denominator * series) truncated,
    which must have no terms past the recurrence window.  The verdict is
    inherently about the finite truncation: it never asserts anything about
    the full series.
    """
    if S.M < 8:
        raise ValueError("probe needs at least 8 coefficients beyond c_0")
    cap = S.M // 2 - 1
    if _window_has_full_rank(S.coefficients, cap):
        return ProbeVerdict(VERDICT_NO_RECURRENCE, None, None, cap + 1)
    seq = list(S.coefficients)
    L, C = berlekamp_massey(seq)
    if L > cap:
        return ProbeVerdict(VERDICT_NO_RECURRENCE, None, None, L)
    product = _mul_trunc(list(C), seq, S.M)
    if any(product[m] != 0 for m in range(L, S.M + 1)):
        return ProbeVerdict(VERDICT_NO_RECURRENCE, None, None, L)
    numerator = product[:L] if L > 0 else product[:1]
    while len(numerator) > 1 and numerator[-1] == 0:
        numerator.pop()
    num, den = _normalize_pair(numerator, list(C))
    return ProbeVerdict(VERDICT_RATIONAL, num, den, L)
