"""Sequence algebra relating points of period n to points of least period n.

For a map T, the count F_n of points with T^n(x) = x and the count L_n of
points of least period n determine each other:

    F_n = sum of L_d over d | n,      L_n = sum of mu(n/d) * F_d over d | n.

This module inverts F to L exactly, computes logarithmic growth diagnostics
(the rates, and a trailing window whose ends are printed with no rate
compared to another), and checks the two sandwich inequalities that pin the
least-period growth rate to the period growth rate at finite horizon.  The
forward sum and the realizability check (every L_n nonnegative and
divisible by n) are test oracles, in tests/oracles.py.
"""

import csv
from collections import namedtuple
from collections.abc import Sequence

from .precision import DEFAULT_PRECISION_BITS, LogReal, unlimited_int_digits

KIND_FIXED = "fixed"
KIND_LEAST = "least"


class RealizabilityError(ValueError):
    """A sequence cannot be the orbit counts of any map."""

    def __init__(self, n, message):
        super().__init__(message)
        self.n = n


class CountSequence(namedtuple("CountSequence", "kind values")):
    """A finite prefix of an integer sequence indexed from n = 1.

    kind is "fixed" (period counts) or "least" (least-period counts).
    Values are exact integers; Moebius inversion of a non-realizable fixed
    sequence may legitimately produce negative entries, so no sign constraint
    is enforced here.
    """

    __slots__ = ()

    def __new__(cls, kind, values):
        if kind not in (KIND_FIXED, KIND_LEAST):
            raise ValueError("kind must be 'fixed' or 'least'")
        if not all(isinstance(v, int) for v in values):
            raise ValueError("values must be exact integers")
        return super().__new__(cls, kind, values)

    # _replace builds through _make, which would skip __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def fixed(cls, values):
        return cls(KIND_FIXED, tuple(int(v) for v in values))

    @property
    def N(self):
        return len(self.values)


def least_from_fixed(F):
    """L_n = sum of mu(n/d) * F_d over d | n; negatives are preserved.

    Inverted in place by a sieve over multiples: once L_n is final (every
    proper divisor of n came before it), it is taken off F_m for m = 2n,
    3n, ..., so no n is factored.
    """
    if F.kind != KIND_FIXED:
        raise ValueError("expected a fixed-count sequence")
    out = list(F.values)
    for n in range(1, F.N + 1):
        for m in range(2 * n - 1, F.N, n):
            out[m] -= out[n - 1]
    return CountSequence(KIND_LEAST, tuple(out))


class Rows(Sequence):
    """A read-only sequence whose item i is row(i), rebuilt on every read; a
    slice is a tuple, and Rows compare equal to the tuple of their items."""

    def __init__(self, size, row):
        self.size, self.row = size, row

    def __len__(self):
        return self.size

    def __iter__(self):
        return map(self.row, range(self.size))

    def __getitem__(self, i):
        picked = range(self.size)[i]  # an index, or a range for a slice
        return self.row(picked) if isinstance(picked, int) else tuple(map(self.row, picked))

    def __eq__(self, other):
        return isinstance(other, (tuple, Rows)) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))


class GrowthDiagnostics(namedtuple("GrowthDiagnostics", "entries skipped window peaks")):
    """Per-n logarithmic rates of a count sequence, with a trailing window.

    entries holds (n, log value, log value / n), rebuilt on read, for every
    n with a positive count, each real a precision.LogReal; indices with
    value <= 0 are listed in skipped (log undefined).  window holds the rates
    of the last entries, at most as many as there are entries, rebuilt on
    read; precision.extreme_decimal prints its inf and sup.  peaks holds, in
    the form and order of entries, the entries whose rate may be the
    greatest, so max over peaks is max over entries, ties to the first.
    """

    __slots__ = ()


def growth_diagnostics(S, window_len=10, precision_bits=DEFAULT_PRECISION_BITS):
    """Rates (1/n) log S_n with a trailing inf/sup window.

    This is the one place the package turns exact counts (a CountSequence,
    or construct's FactoredNaturals) into logs and rates.  Each log is a
    certified ball of the exact count S_n at precision_bits plus guard bits,
    refined on demand, so precision_bits is purely an output resolution.
    One pass holds the first ball of each entry; entries and the window
    rebuild each LogReal from S_n and that ball when read, and nothing here
    compares two rates: peaks leaves out, by integer comparisons of the first
    balls, each entry whose rate ball lies below another's, and refines
    nothing.  Entries with S_n <= 0 are skipped and flagged; an all-zero
    sequence has no growth rate and raises ValueError, as does a window_len
    below 1.  A window longer than the entries is shortened to all of them.
    """
    if window_len < 1:
        raise ValueError("window length must be positive")
    counts = S.values if isinstance(S, CountSequence) else S
    kept = []  # (n, bits, lo, hi): n, then its log ball as first taken
    skipped = []
    for n, v in enumerate(counts, start=1):
        if isinstance(v, int) and v <= 0:  # a FactoredNatural is positive
            skipped.append(n)
            continue
        kept.append((n, *LogReal(v, precision_bits)._log))
    if not kept:
        raise ValueError("sequence has no positive entries; growth rate undefined")
    # the greatest lower end top_lo / top_n of a rate's first ball (one bits for all)
    top_n, top_lo = kept[0][0], kept[0][2]
    for n, _, lo, _ in kept:
        if lo * top_n > top_lo * n:
            top_n, top_lo = n, lo
    peaks = [i for i, (n, _, _, hi) in enumerate(kept) if hi * top_n >= top_lo * n]

    def entry(i):
        n, *ball = kept[i]
        lg = LogReal(counts[n - 1], log=ball)
        return n, lg, lg / n

    start = max(0, len(kept) - window_len)
    return GrowthDiagnostics(
        entries=Rows(len(kept), entry),
        skipped=tuple(skipped),
        window=Rows(len(kept) - start, lambda j: entry(start + j)[2]),
        peaks=Rows(len(peaks), lambda j: entry(peaks[j])),
    )


# inequality is "upper" (L_r <= F_r) or "lower" (L_r >= F_r - sum of proper F_d)
SandwichViolation = namedtuple("SandwichViolation", "r inequality least bound")


class SandwichReport(namedtuple("SandwichReport", "violations")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.violations


def lemma_sandwich_check(F, L):
    """Check L_r <= F_r and L_r >= F_r - sum of F_d over proper divisors d.

    Both inequalities are exact consequences of the divisor-sum relation when
    L is the inversion of F; a violation means the pair is inconsistent.
    """
    if F.kind != KIND_FIXED or L.kind != KIND_LEAST:
        raise ValueError("expected a (fixed, least) pair")
    if F.N != L.N:
        raise ValueError("horizon mismatch")
    proper = [0] * F.N  # the sums of F_d over proper divisors d, by a sieve
    for d, value in enumerate(F.values, start=1):
        for m in range(2 * d - 1, F.N, d):
            proper[m] += value
    violations = []
    for r, f_r, l_r, below in zip(range(1, F.N + 1), F.values, L.values, proper):
        if l_r > f_r:
            violations.append(SandwichViolation(r, "upper", l_r, f_r))
        if l_r < f_r - below:
            violations.append(SandwichViolation(r, "lower", l_r, f_r - below))
    return SandwichReport(violations=tuple(violations))


# --- shared sequence file format --------------------------------------------


@unlimited_int_digits()
def write_sequence_csv(S, fh):
    """Write the shared format: header n,value, then rows of ints or integral Decimals."""
    fh.write("n,value\n")
    fh.writelines("%d,%s\n" % (n, v) for n, v in enumerate(S.values, start=1))


@unlimited_int_digits()
def read_sequence_csv(fh):
    """Read the shared sequence format of counts F_n: rows from n = 1, no gaps, blanks skipped."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["n", "value"]:
        raise ValueError("expected header 'n,value'")
    values = []
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise ValueError("malformed row %r" % (row,))
        n = int(row[0])
        if n != len(values) + 1:
            raise ValueError("rows must be sorted from n = 1 with no gaps (saw %d)" % n)
        values.append(int(row[1]))
    if not values:
        raise ValueError("empty sequence file")
    return CountSequence(KIND_FIXED, tuple(values))
