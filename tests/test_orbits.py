import io
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from oracles import fixed_from_least, least_sequence, mpf_of, realizability_check
from perigee import precision
from perigee.numtheory import divisors, mobius
from perigee.orbits import (
    CountSequence,
    Rows,
    SandwichViolation,
    growth_diagnostics,
    least_from_fixed,
    lemma_sandwich_check,
    read_sequence_csv,
    write_sequence_csv,
)
from perigee.precision import LogReal, digits_for_bits, extreme_decimal


def test_fixed_from_least_examples():
    assert fixed_from_least(least_sequence([1, 2])).values == (1, 3)
    assert fixed_from_least(least_sequence([1, 2, 6, 12])).values == (1, 3, 7, 15)
    assert fixed_from_least(least_sequence([0, 0, 0])).values == (0, 0, 0)


def test_least_from_fixed_examples():
    doubling = CountSequence.fixed([2**n - 1 for n in range(1, 5)])
    assert least_from_fixed(doubling).values == (1, 2, 6, 12)
    assert least_from_fixed(CountSequence.fixed([1, 1, 1, 1])).values == (1, 0, 0, 0)
    golden = CountSequence.fixed([1, 1, 4, 5, 11])
    assert least_from_fixed(golden).values == (1, 0, 3, 4, 10)


def test_kind_checks():
    with pytest.raises(ValueError):
        fixed_from_least(CountSequence.fixed([1]))
    with pytest.raises(ValueError):
        least_from_fixed(least_sequence([1]))


@given(
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64)
)
@settings(max_examples=200, deadline=None)
def test_round_trip_from_least(values):
    L = least_sequence(values)
    assert least_from_fixed(fixed_from_least(L)).values == L.values


@given(
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64)
)
@settings(max_examples=200, deadline=None)
def test_round_trip_from_fixed(values):
    F = CountSequence.fixed(values)
    assert fixed_from_least(least_from_fixed(F)).values == F.values


def test_realizability_examples():
    doubling = CountSequence.fixed([2**n - 1 for n in range(1, 65)])
    assert realizability_check(doubling).ok
    report = realizability_check(CountSequence.fixed([1, 2]))
    assert not report.ok
    assert report.rows[1].least == 1 and not report.rows[1].divisible
    assert realizability_check(CountSequence.fixed([1, 1, 1])).ok


def test_sandwich_examples():
    doubling = CountSequence.fixed([2**n - 1 for n in range(1, 65)])
    assert lemma_sandwich_check(doubling, least_from_fixed(doubling)).ok
    flat = CountSequence.fixed([1, 1, 1])
    assert lemma_sandwich_check(flat, least_from_fixed(flat)).ok


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=48)
)
@settings(max_examples=200, deadline=None)
def test_sandwich_holds_for_derived_pairs(values):
    # any nonnegative least-count sequence induces a pair satisfying both bounds
    F = fixed_from_least(least_sequence(values))
    assert lemma_sandwich_check(F, least_from_fixed(F)).ok


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=80),
    st.lists(st.integers(-10**6, 10**6), min_size=80, max_size=80),
)
def test_sieves_match_the_divisor_sums(values, other):
    # the sieves over multiples against the divisor and Moebius sums they replaced
    N = len(values)
    F, L = CountSequence.fixed(values), least_sequence(other[:N])
    assert least_from_fixed(F).values == tuple(
        sum(mobius(n // d) * values[d - 1] for d in divisors(n)) for n in range(1, N + 1)
    )
    assert fixed_from_least(L).values == tuple(
        sum(other[d - 1] for d in divisors(n)) for n in range(1, N + 1)
    )
    expected = []
    for r in range(1, N + 1):
        f_r, l_r = values[r - 1], other[r - 1]
        if l_r > f_r:
            expected.append(SandwichViolation(r, "upper", l_r, f_r))
        bound = f_r - sum(values[d - 1] for d in divisors(r) if d != r)
        if l_r < bound:
            expected.append(SandwichViolation(r, "lower", l_r, bound))
    assert lemma_sandwich_check(F, L).violations == tuple(expected)


def test_sandwich_flags_violations():
    F = CountSequence.fixed([1, 5])
    bad = least_sequence((1, 7))  # exceeds F_2
    report = lemma_sandwich_check(F, bad)
    assert not report.ok
    assert any(v.inequality == "upper" and v.r == 2 for v in report.violations)


def test_growth_diagnostics_doubling():
    F = CountSequence.fixed([2**n - 1 for n in range(1, 201)])
    diag = growth_diagnostics(F, window_len=10)
    n, _, rate = diag.entries[-1]
    assert n == 200 and abs(mpf_of(rate) - mp.log(2)) < 1e-2
    # the rates at n = 191..200 lie within 2**-190 of log 2, below and rising
    with mp.workprec(200):
        log2 = mp.nstr(mp.log(2), 38)
    assert len(diag.window) == 10
    assert extreme_decimal(min, diag.window, 38) == extreme_decimal(max, diag.window, 38) == log2


def test_growth_diagnostics_rate_bound():
    # |rate(n) - log c| <= log(2)/n for F_n = c**n
    for c in (2, 3, 5):
        F = CountSequence.fixed([c**n for n in range(1, 51)])
        diag = growth_diagnostics(F, window_len=5)
        for n, _, rate in diag.entries:
            assert abs(mpf_of(rate) - mp.log(c)) <= mp.log(2) / n + mp.mpf(2) ** -100


def test_growth_diagnostics_constant_sequence():
    F = CountSequence.fixed([5] * 80)
    diag = growth_diagnostics(F, window_len=10)
    # the window is n = 71..80, so its greatest rate is log(5) / 71 < 0.03
    with mp.workprec(200):
        assert extreme_decimal(max, diag.window, 38) == mp.nstr(mp.log(5) / 71, 38)


def test_growth_diagnostics_zero_handling():
    F = CountSequence.fixed([0, 2, 0, 4])
    diag = growth_diagnostics(F, window_len=2)
    assert diag.skipped == (1, 3)
    with pytest.raises(ValueError):
        growth_diagnostics(CountSequence.fixed([0, 0]), window_len=2)


def test_rate_times_n_reproduces_log():
    F = CountSequence.fixed([3**n + 1 for n in range(1, 30)])
    diag = growth_diagnostics(F, window_len=4, precision_bits=128)
    with mp.workprec(160):
        for n, lg, rate in diag.entries:
            assert abs(mpf_of(rate) * n - mpf_of(lg)) <= abs(mpf_of(lg)) * mp.mpf(2) ** -120


def test_finite_horizon_rate_agreement():
    # the least-period rate tracks the period rate within max-term slack:
    # F_n <= d(n) * max L_d, so log F_N - log L_N <= log N at a horizon where
    # L is maximal at N itself
    N = 64
    F = CountSequence.fixed([2**n - 1 for n in range(1, N + 1)])
    L = least_from_fixed(F)
    diag_f = growth_diagnostics(F, window_len=4)
    diag_l = growth_diagnostics(L, window_len=4)
    tolerance = mp.log(N) / N
    (n_f, _, rate_f), (n_l, _, rate_l) = diag_f.entries[-1], diag_l.entries[-1]
    assert n_f == n_l == N
    assert abs(mpf_of(rate_f) - mpf_of(rate_l)) <= tolerance


def test_equal_rates_tie_exactly_and_the_first_n_wins():
    # F_n = 2**n at n = 1, 2, 4, 5, 7 gives the rate log 2 exactly there: the
    # maximum and the window's top are exact ties, decided without escalating
    F = CountSequence.fixed([2, 4, 3, 16, 32, 7, 128])
    diag = growth_diagnostics(F, window_len=3)
    # a tie keeps the first n, over the entries and over construct's peaks.
    # Entries are rebuilt on read, so a rate's count and denominator name it
    for top in (max(diag.entries, key=lambda e: e[2]), max(diag.peaks, key=lambda e: e[2])):
        assert top[0] == 1 and (top[2].count, top[2].den) == (2, 1)
    assert [n for n, _, _ in diag.peaks] == [1, 2, 4, 5, 7]  # log 3 / 3 < log 2 is left out
    # the window is n = 5, 6, 7: it prints log 7 / 6 < log 2 and the tied log 2
    assert [(r.count, r.den) for r in diag.window] == [(32, 5), (7, 6), (128, 7)]
    assert extreme_decimal(min, diag.window, 38) == (LogReal(7) / 6).decimal(38)
    assert extreme_decimal(max, diag.window, 38) == diag.entries[0][2].decimal(38)


def test_rates_rising_by_tiny_steps_refine_only_the_window(monkeypatch):
    # log(2**n - 1) / n rises toward log 2 by about 2**-n / n, so telling two
    # such rates apart takes about n bits.  The window's ends print from the
    # rates' floors and compare none, so printing them refines no ball past
    # its first; only an argmax refines, and only the peaks
    refined = set()
    first_ball = precision._count_log_ball

    def spy(count, bits):
        if bits > precision.DEFAULT_PRECISION_BITS + precision.GUARD_BITS:
            refined.add(count.bit_length())
        return first_ball(count, bits)

    monkeypatch.setattr(precision, "_count_log_ball", spy)
    diag = growth_diagnostics(CountSequence.fixed([2**n - 1 for n in range(1, 401)]), 4)
    assert [r.count for r in diag.window] == [2**n - 1 for n in range(397, 401)]
    with mp.workprec(200):
        log2 = mp.nstr(mp.log(2), 38)
    for pick in (min, max):
        assert extreme_decimal(pick, diag.window, 38) == log2
    assert not refined
    # construct's argmax over the peaks refines them on read, as a max over
    # every entry would
    assert max(diag.peaks, key=lambda entry: entry[2])[0] == 400


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 2**70), min_size=1, max_size=30).filter(any),
    st.sampled_from([8, 64, 128]),
)
@example([1, 0, 1], 128)  # every rate 0, each ball exactly [0, 0]
@example([2, 4, 3, 16, 32, 7, 128], 8)  # exact ties at log 2
def test_peaks_hold_the_first_top_rate(values, bits):
    # max over the peaks is the exact max over every entry, ties to the first
    # n, and every entry left out has a smaller rate
    diag = growth_diagnostics(CountSequence.fixed(values), precision_bits=bits)
    top_n, _, top_rate = max(diag.entries, key=lambda entry: entry[2])
    peak_n, _, peak_rate = max(diag.peaks, key=lambda entry: entry[2])
    assert peak_n == top_n and not peak_rate < top_rate and not peak_rate > top_rate
    peak_ns = [n for n, _, _ in diag.peaks]
    assert peak_ns == sorted(peak_ns)
    assert all(rate < top_rate for n, _, rate in diag.entries if n not in peak_ns)


# a count, or -b for b**n at its own n: runs of one b give exactly tied rates
# log b, and b = 1 the rate 0
counts_with_ties = st.lists(
    st.one_of(st.integers(0, 2**70), st.integers(-4, -1)), min_size=1, max_size=30
).map(lambda picks: [b if b >= 0 else (-b) ** n for n, b in enumerate(picks, 1)]).filter(any)


@settings(max_examples=200, deadline=None)
@given(counts_with_ties, st.integers(1, 30), st.sampled_from([8, 64, 128]))
@example([2, 4, 3, 16, 32, 7, 128], 3, 8)  # exact ties at log 2
@example([1, 0, 1], 2, 128)  # every rate 0
def test_window_ends_print_the_decided_extremes(values, window_len, bits):
    # extreme_decimal picks from the rates' floors and compares no two rates;
    # it must print what the window's min and max, decided here, print
    diag = growth_diagnostics(CountSequence.fixed(values), window_len, bits)
    window, dps = list(diag.window), digits_for_bits(bits)
    assert len(window) == min(window_len, len(diag.entries))
    for pick in (min, max):
        assert extreme_decimal(pick, diag.window, dps) == pick(window).decimal(dps)


def test_rows_is_a_sequence_rebuilt_on_read():
    reads = []
    rows = Rows(4, lambda i: reads.append(i) or [i * i])
    assert len(rows) == 4 and list(rows) == [[0], [1], [4], [9]]
    assert rows[-1] == [9] and rows[1:3] == ([1], [4]) and [4] in rows
    assert rows[2] is not rows[2]  # rebuilt, not held
    with pytest.raises(IndexError):
        rows[4]
    # equal to the tuple of its items, either way round, and to equal Rows
    assert rows == ([0], [1], [4], [9]) == rows and rows == Rows(4, lambda i: [i * i])
    assert rows != [[0], [1], [4], [9]] and rows != ([0], [1], [4])
    assert hash(Rows(2, str)) == hash(("0", "1"))
    reads.clear()
    rows[1:3]
    assert reads == [1, 2]  # a slice reads only its items


def test_sequence_csv_round_trip():
    F = CountSequence.fixed([1, 3, 7, 15, 31])
    buf = io.StringIO()
    write_sequence_csv(F, buf)
    assert buf.getvalue().splitlines()[0] == "n,value"
    back = read_sequence_csv(io.StringIO(buf.getvalue()))
    assert back.values == F.values and back.kind == "fixed"


def test_sequence_csv_writes_decimals_as_ints():
    values = [1, 3, 10**50 + 7, 0, -4]
    as_ints, as_decimals = io.StringIO(), io.StringIO()
    write_sequence_csv(CountSequence.fixed(values), as_ints)
    write_sequence_csv(SimpleNamespace(values=tuple(map(Decimal, values))), as_decimals)
    assert as_decimals.getvalue() == as_ints.getvalue()
    assert as_ints.getvalue() == "n,value\n1,1\n2,3\n3,%d\n4,0\n5,-4\n" % (10**50 + 7)


def test_sequence_csv_skips_blank_lines_anywhere():
    # a blank line uses up no index, inside the rows or after them
    assert read_sequence_csv(io.StringIO("n,value\n1,5\n\n2,7\n")).values == (5, 7)
    assert read_sequence_csv(io.StringIO("n,value\n1,5\n2,7\n\n")).values == (5, 7)
    assert read_sequence_csv(io.StringIO("n,value\n\n\n1,5\n\n\n2,7\n")).values == (5, 7)
    with pytest.raises(ValueError, match="saw 3"):
        read_sequence_csv(io.StringIO("n,value\n1,5\n\n3,7\n"))


def test_sequence_csv_rejects_gaps():
    with pytest.raises(ValueError):
        read_sequence_csv(io.StringIO("n,value\n1,5\n3,7\n"))
    with pytest.raises(ValueError):
        read_sequence_csv(io.StringIO("m,value\n1,5\n"))
