"""Independent oracles for the package's closed forms; only the tests run them.

Each recomputes what a command prints by a route that shares no code with
the one the command runs:

* delta_n: |det(M^n - I)| for the companion matrix M of a monic f, from
  x^n mod f stepped one multiplication by x at a time (residues_by_steps)
  and a fraction-free determinant, against toral_fix_sequence's ball
  products of the roots' powers;
* fixed_from_least: F_n = sum of L_d over d | n, the sum that
  orbits.least_from_fixed inverts;
* realizability_check: whether F is the period-count sequence of some map;
* sequence_from_series: F_1..F_M back from the zeta coefficients that
  zeta.zeta_truncate forms;
* square_free_parts_by_euclid: the square-free parts of f from gcds by a
  Euclid over the rationals, with its own Fraction division (divmod_over_q),
  against toral._square_free_parts' integer subresultant sequence;
* euler_phi: Euler's totient from the factorisation of n, against the
  totient sieve in toral.cyclotomic_factor_index;
* mahler_by_polyroots: m(f) from mp.polyroots' roots of each of those parts,
  against mahler_measure's float Aberth-Ehrlich start (both are certified by
  toral._certify, so this checks the roots, not the bound).

dyadic and mpf_of turn the integer balls the package certifies into exact
mpfs for the mpmath-based checks, and least_sequence builds the least-period
sequences the orbit-count oracles take.
"""

from collections import namedtuple
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp

from perigee import toral
from perigee.numtheory import factorize
from perigee.orbits import KIND_FIXED, KIND_LEAST, CountSequence, least_from_fixed
from perigee.precision import GUARD_BITS, escalate


def dyadic(n, scale):
    """n / 2**scale as an exact mpf, whatever mpmath's working precision."""
    return mp.make_mpf(from_man_exp(n, -scale))


def mpf_of(real, bits=256):
    """The midpoint of a LogReal's ball at bits, as an mpf for the mpmath oracle."""
    lo, hi = real.ball(bits)
    with mp.workprec(bits + 8):
        return mp.mpf(lo + hi) / 2 ** (bits + 1)


def measure_and_radius(result):
    """A MahlerResult's ball lo <= m(f) * 2**scale <= hi as its midpoint and
    radius, exact mpfs."""
    scale = result.scale + 1
    return dyadic(result.lo + result.hi, scale), dyadic(result.hi - result.lo, scale)


# --- the determinant route to delta_n -----------------------------------------


def residues_by_steps(coeffs, count):
    """x^k mod f for k = 0, ..., count - 1, one multiplication by x at a time."""
    residue, out = [1] + [0] * (len(coeffs) - 2), []
    for _ in range(count):
        out.append(residue)
        top = residue[-1]
        residue = [a - top * c for a, c in zip([0] + residue[:-1], coeffs)]
    return out


def det_bareiss(m):
    """Exact integer determinant by fraction-free elimination."""
    a = [row[:] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def delta_n(f, n):
    """|det(M^n - I)|: M is multiplication by x on Z[x]/(f), so column j of
    M^n is x^(n + j) mod f."""
    if n < 1:
        raise ValueError("n must be positive")
    columns = [list(r) for r in residues_by_steps(f.coefficients, n + f.degree)[n:]]
    for j, column in enumerate(columns):
        column[j] -= 1
    # the rows are the columns of M^n - I; transposing keeps the determinant
    return abs(det_bareiss(columns))


# --- the mp.polyroots route to the Mahler measure ------------------------------


def divmod_over_q(a, b):
    """Quotient and remainder of coefficient lists (low to high) over the
    rationals, b with a nonzero lead; the remainder has no leading zeros."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = a[i + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            a[i + j] -= q[i] * c
    r = a[:len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def square_free_parts_by_euclid(coeffs):
    """Monic P_1, P_2, ... with product f, P_i = g_(i-1) / g_i for g_0 = f and g_i
    the monic gcd(g_(i-1), g_(i-1)') by Euclid over the rationals."""
    parts, g = [], list(coeffs)
    while len(g) > 1:
        a, r = g, [i * c for i, c in enumerate(g)][1:]
        while r:
            a, r = r, divmod_over_q(a, r)[1]
        a = [Fraction(c) / a[-1] for c in a]
        parts.append(tuple(int(c) for c in divmod_over_q(g, a)[0]))
        g = a
    return parts


def euler_phi(n):
    """Euler's totient."""
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    out = n
    for q, _ in factorize(n):
        out -= out // q
    return out


def mahler_by_polyroots(f, precision_bits=128):
    """(lo, hi, scale) with lo <= m(f) * 2**scale <= hi, from mp.polyroots' roots
    of each square-free part of f at scale bits (and as many extra), certified
    by toral._certify; a root at 0 adds nothing.  The scale doubles from
    precision_bits + GUARD_BITS until every part certifies."""
    coeffs = f.coefficients[next(i for i, c in enumerate(f.coefficients) if c):]

    def attempt(bits):
        lo = hi = 0
        for part in square_free_parts_by_euclid(coeffs):
            with mp.workprec(bits):
                try:
                    roots = mp.polyroots(part[::-1], maxsteps=200, extraprec=bits)
                except mp.NoConvergence:
                    return None
                roots = [tuple(int(mp.nint(mp.ldexp(t, bits))) for t in (z.real, z.imag))
                         for z in roots]
            found = toral._certify(part, roots, bits, precision_bits)
            if found is None:
                return None
            lo, hi = lo + found[0], hi + found[1]
        return lo, hi, bits

    return escalate(attempt, precision_bits + GUARD_BITS)


# --- orbit counts --------------------------------------------------------------


def least_sequence(values):
    """The least-period CountSequence of the given integers."""
    return CountSequence(KIND_LEAST, tuple(int(v) for v in values))


def fixed_from_least(L):
    """F_n = sum of L_d over d | n."""
    if L.kind != KIND_LEAST:
        raise ValueError("expected a least-period sequence")
    out = [0] * L.N
    for d, value in enumerate(L.values, start=1):
        for m in range(d - 1, L.N, d):
            out[m] += value
    return CountSequence(KIND_FIXED, tuple(out))


class RealizabilityRow(namedtuple("RealizabilityRow", "n least nonnegative divisible")):
    __slots__ = ()

    @property
    def ok(self):
        return self.nonnegative and self.divisible


RealizabilityReport = namedtuple("RealizabilityReport", "rows ok")


def realizability_check(F):
    """Is F the period-count sequence of some map?

    Necessary and sufficient at finite horizon: every inverted least count
    must be nonnegative and divisible by n (points of least period n come in
    orbits of size n).
    """
    L = least_from_fixed(F)
    rows = tuple(
        RealizabilityRow(n, ln, ln >= 0, ln % n == 0)
        for n, ln in enumerate(L.values, start=1)
    )
    return RealizabilityReport(rows=rows, ok=all(r.ok for r in rows))


def sequence_from_series(S):
    """Invert the zeta recurrence: recover F_1..F_M exactly from the coefficients."""
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
