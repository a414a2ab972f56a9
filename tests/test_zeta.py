import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fixed_from_least, least_sequence, sequence_from_series
from perigee.orbits import CountSequence, RealizabilityError
from perigee.toral import IntegerPolynomial, toral_fix_sequence
from perigee import zeta
from perigee.zeta import (
    RANK_PRIME,
    VERDICT_NO_RECURRENCE,
    VERDICT_RATIONAL,
    ZetaSeries,
    berlekamp_massey,
    orbit_product_form,
    rationality_probe,
    zeta_truncate,
)


def doubling_sequence(top):
    return CountSequence.fixed([2**n - 1 for n in range(1, top + 1)])


def test_truncate_examples():
    series = zeta_truncate(doubling_sequence(8), 5)
    assert series.coefficients == (1, 1, 2, 4, 8, 16)
    ones = zeta_truncate(CountSequence.fixed([1] * 8), 4)
    assert ones.coefficients == (1, 1, 1, 1, 1)
    single = zeta_truncate(CountSequence.fixed([1, 0, 0]), 3)
    assert single.coefficients == (1, 1, Fraction(1, 2), Fraction(1, 6))


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_truncate_matches_rational_recurrence(values):
    # m * c_m = sum over k of F_k * c_{m-k}, in Fractions; no realizability needed
    reference = [Fraction(1)]
    for m in range(1, len(values) + 1):
        acc = sum(values[k - 1] * reference[m - k] for k in range(1, m + 1))
        reference.append(Fraction(acc) / m)
    F = CountSequence.fixed(values)
    assert zeta_truncate(F, F.N).coefficients == tuple(reference)


def test_truncate_validation():
    with pytest.raises(ValueError):
        zeta_truncate(least_sequence([1, 2]), 2)
    with pytest.raises(ValueError):
        zeta_truncate(doubling_sequence(4), 9)
    for truncate in (zeta_truncate, orbit_product_form):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            truncate(doubling_sequence(4), -3)


def test_recurrence_invariant():
    F = CountSequence.fixed([3, 1, 4, 1, 5, 9, 2, 6])
    series = zeta_truncate(F, 8)
    c = series.coefficients
    for m in range(1, 9):
        assert m * c[m] == sum(F.values[k - 1] * c[m - k] for k in range(1, m + 1))


def test_doubling_coefficients_through_32():
    series = zeta_truncate(doubling_sequence(32), 32)
    assert series.coefficients == tuple([1] + [2**m for m in range(32)])


def test_orbit_product_matches_exponential():
    series = zeta_truncate(doubling_sequence(8), 5)
    product = orbit_product_form(doubling_sequence(8), 5)
    assert product.coefficients == series.coefficients
    ones = CountSequence.fixed([1] * 6)
    assert orbit_product_form(ones, 4).coefficients == (1, 1, 1, 1, 1)


def test_orbit_product_rejects_unrealizable():
    with pytest.raises(RealizabilityError) as info:
        orbit_product_form(CountSequence.fixed([1, 2]), 2)
    assert info.value.n == 2


def test_round_trip_recovers_counts():
    F = doubling_sequence(16)
    assert sequence_from_series(zeta_truncate(F, 16)).values == F.values


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=8, max_size=24))
@settings(max_examples=100, deadline=None)
def test_realizable_series_are_integral(orbit_counts):
    least = least_sequence([n * o for n, o in enumerate(orbit_counts, start=1)])
    F = fixed_from_least(least)
    series = zeta_truncate(F, F.N)
    assert all(c.denominator == 1 and c >= 0 for c in series.coefficients)
    assert orbit_product_form(F, F.N).coefficients == series.coefficients


def test_berlekamp_massey_basics():
    # geometric sequence: single-term recurrence
    L, C = berlekamp_massey([1, 2, 4, 8, 16, 32])
    assert C == (1, -2)
    # Fibonacci
    L, C = berlekamp_massey([1, 1, 2, 3, 5, 8, 13, 21])
    assert C == (1, -1, -1)


def test_probe_doubling():
    verdict = rationality_probe(zeta_truncate(doubling_sequence(32), 32))
    assert verdict.verdict == VERDICT_RATIONAL
    assert verdict.numerator == (1, -1)
    assert verdict.denominator == (1, -2)


def test_probe_constant():
    verdict = rationality_probe(zeta_truncate(CountSequence.fixed([1] * 12), 12))
    assert verdict.verdict == VERDICT_RATIONAL
    assert verdict.numerator == (1,)
    assert verdict.denominator == (1, -1)


def test_probe_golden_mean():
    F = toral_fix_sequence(IntegerPolynomial((-1, -1, 1)), 32)
    verdict = rationality_probe(zeta_truncate(F, 32))
    assert verdict.verdict == VERDICT_RATIONAL
    assert verdict.numerator == (1, 0, -1)
    assert verdict.denominator == (1, -1, -1)


def test_probe_identity_on_candidate():
    # N(z) = D(z) * S(z) through order M, exactly
    F = toral_fix_sequence(IntegerPolynomial((-1, -1, 1)), 32)
    series = zeta_truncate(F, 32)
    verdict = rationality_probe(series)
    num, den = verdict.numerator, verdict.denominator
    for m in range(33):
        acc = Fraction(0)
        for j, d in enumerate(den):
            if j <= m:
                acc += d * series.coefficients[m - j]
        expected = num[m] if m < len(num) else 0
        assert acc == expected


def test_probe_requires_enough_terms():
    with pytest.raises(ValueError):
        rationality_probe(zeta_truncate(CountSequence.fixed([1] * 6), 6))


def test_probe_no_low_order_recurrence():
    rng = random.Random(17)
    # factorial-ish growth defeats any short linear recurrence
    values = [rng.randint(1, 5) * (n + 1) ** n % (10**9 + 7) for n in range(24)]
    series = zeta_truncate(CountSequence.fixed(values), 24)
    verdict = rationality_probe(series)
    assert verdict.verdict == VERDICT_NO_RECURRENCE
    assert verdict.numerator is None


def test_probe_json():
    verdict = rationality_probe(zeta_truncate(doubling_sequence(16), 16))
    obj = verdict.to_json()
    assert obj == {
        "verdict": VERDICT_RATIONAL,
        "num_coeffs": ["1", "-1"],
        "den_coeffs": ["1", "-2"],
    }


def test_series_requires_unit_constant():
    with pytest.raises(ValueError):
        ZetaSeries(coefficients=(Fraction(2),))


def bm_only_probe(coefficients):
    """The probe by Berlekamp-Massey alone: (verdict, numerator, denominator, L)."""
    M = len(coefficients) - 1
    L, C = berlekamp_massey(coefficients)
    if L > M // 2 - 1:
        return VERDICT_NO_RECURRENCE, None, None, L
    product = [
        sum(C[j] * coefficients[m - j] for j in range(min(m, len(C) - 1) + 1))
        for m in range(M + 1)
    ]
    if any(product[L:]):
        return VERDICT_NO_RECURRENCE, None, None, L
    numerator = product[: max(L, 1)]
    while len(numerator) > 1 and numerator[-1] == 0:
        numerator.pop()
    terms = numerator + list(C)
    scale = math.lcm(*(Fraction(c).denominator for c in terms))
    ints = [int(c * scale) for c in terms]
    g = math.gcd(*ints)
    if ints[len(numerator)] < 0:
        g = -g
    ints = [c // g for c in ints]
    return VERDICT_RATIONAL, tuple(ints[: len(numerator)]), tuple(ints[len(numerator):]), L


def assert_probe_matches_bm(coefficients):
    verdict = rationality_probe(ZetaSeries(coefficients=tuple(coefficients)))
    want, num, den, length = bm_only_probe(coefficients)
    assert (verdict.verdict, verdict.numerator, verdict.denominator) == (want, num, den)
    if want == VERDICT_RATIONAL:
        assert verdict.recurrence_length == length
    else:
        # the rank path reports a lower bound on the minimal length
        assert isinstance(verdict.recurrence_length, int)
        assert (len(coefficients) - 1) // 2 <= verdict.recurrence_length <= length


def series_of(num, den, order):
    out = []
    for m in range(order + 1):
        c = num[m] if m < len(num) else 0
        c -= sum(den[j] * out[m - j] for j in range(1, min(m, len(den) - 1) + 1))
        out.append(c)
    return out


small_fractions = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


@st.composite
def rational_series(draw):
    M = draw(st.integers(min_value=8, max_value=40))
    cap = M // 2 - 1
    den = [1] + draw(st.lists(st.integers(min_value=-3, max_value=3), max_size=cap))
    num = [1] + draw(st.lists(small_fractions, max_size=cap))
    return series_of(num, den, M)


@st.composite
def non_rational_series(draw):
    M = draw(st.integers(min_value=8, max_value=40))
    return [Fraction(1)] + draw(st.lists(small_fractions, min_size=M, max_size=M))


@given(rational_series())
@settings(max_examples=80, deadline=None)
def test_probe_matches_bm_on_rational_series(coefficients):
    assert_probe_matches_bm(coefficients)


@given(non_rational_series())
@settings(max_examples=80, deadline=None)
def test_probe_matches_bm_on_random_series(coefficients):
    assert_probe_matches_bm(coefficients)


def count_core_runs(monkeypatch):
    """Record the field of every Berlekamp-Massey core run: "mod" or "Q"."""
    runs = []
    core = zeta._lfsr

    def counting(seq, inverse, reduce):
        runs.append("mod" if reduce(RANK_PRIME) == 0 else "Q")
        return core(seq, inverse, reduce)

    monkeypatch.setattr(zeta, "_lfsr", counting)
    return runs


def test_probe_certifies_without_berlekamp_massey(monkeypatch):
    def refuse(sequence):
        raise AssertionError("the rank check should decide this series")

    monkeypatch.setattr(zeta, "berlekamp_massey", refuse)
    runs = count_core_runs(monkeypatch)
    rng = random.Random(5)
    least = least_sequence([n * rng.randint(0, 9) for n in range(1, 65)])
    verdict = rationality_probe(zeta_truncate(fixed_from_least(least), 64))
    assert verdict.verdict == VERDICT_NO_RECURRENCE
    assert verdict.recurrence_length == 32
    assert runs == ["mod"]
    # a rational series is not certified, and falls back to one run over Q
    monkeypatch.setattr(zeta, "berlekamp_massey", berlekamp_massey)
    runs.clear()
    verdict = rationality_probe(zeta_truncate(doubling_sequence(32), 32))
    assert verdict.verdict == VERDICT_RATIONAL
    assert runs == ["mod", "Q"]


@pytest.mark.parametrize(
    "coefficients",
    [
        # non-rational, with a denominator the rank prime divides
        [Fraction(1), Fraction(1, RANK_PRIME)] + [Fraction((3 * m) % 7 - 2, m) for m in range(2, 17)],
        # the geometric series of 1/RANK_PRIME
        [Fraction(1, RANK_PRIME**m) for m in range(17)],
    ],
)
def test_probe_falls_back_when_the_prime_divides_a_denominator(coefficients, monkeypatch):
    calls = []

    def counting(sequence):
        calls.append(len(sequence))
        return berlekamp_massey(sequence)

    monkeypatch.setattr(zeta, "berlekamp_massey", counting)
    runs = count_core_runs(monkeypatch)
    verdict = rationality_probe(ZetaSeries(coefficients=tuple(coefficients)))
    assert calls == [len(coefficients)]
    assert runs == ["Q"]
    monkeypatch.undo()
    want, num, den, length = bm_only_probe(coefficients)
    assert (verdict.verdict, verdict.numerator, verdict.denominator) == (want, num, den)
    assert verdict.recurrence_length == length


# The reference for _window_has_full_rank: cubic Gaussian elimination.
def eliminated_full_rank(seq, cap):
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


window_length = st.integers(min_value=8, max_value=48)


@st.composite
def fraction_window(draw):
    M = draw(window_length)
    return [Fraction(1)] + draw(st.lists(small_fractions, min_size=M, max_size=M))


@st.composite
def sparse_window(draw):
    M = draw(window_length)
    terms = draw(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=M + 1, max_size=M + 1))
    return [Fraction(c) for c in terms]


@st.composite
def rational_window(draw, perturb=False):
    M = draw(window_length)
    order = draw(st.integers(min_value=0, max_value=M))
    den = [1] + draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=order, max_size=order)
    )
    num = draw(st.lists(small_fractions, min_size=1, max_size=order + 1))
    seq = [Fraction(c) for c in series_of(num, den, M)]
    if perturb:
        seq[draw(st.integers(min_value=0, max_value=M))] += draw(small_fractions.filter(bool))
    return seq


@st.composite
def zeta_window(draw):
    M = draw(window_length)
    counts = draw(st.lists(st.integers(min_value=-3, max_value=9), min_size=M, max_size=M))
    return list(zeta_truncate(CountSequence.fixed(counts), M).coefficients)


@st.composite
def mostly_zero_window(draw):
    M = draw(window_length)
    seq = [Fraction(0)] * (M + 1)
    for m in draw(st.lists(st.integers(min_value=0, max_value=M), min_size=1, max_size=4)):
        seq[m] = draw(small_fractions)
    return seq


@st.composite
def colliding_window(draw):
    # c + k * RANK_PRIME and c have the same residue but differ over Q
    seq = draw(rational_window())
    lifts = draw(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=len(seq), max_size=len(seq))
    )
    return [c + k * RANK_PRIME for c, k in zip(seq, lifts)]


@st.composite
def prime_denominator_window(draw):
    seq = draw(fraction_window())
    seq[draw(st.integers(min_value=0, max_value=len(seq) - 1))] = Fraction(1, RANK_PRIME)
    return seq


@given(
    st.one_of(
        fraction_window(),
        sparse_window(),
        rational_window(),
        rational_window(perturb=True),
        zeta_window(),
        mostly_zero_window(),
        colliding_window(),
        prime_denominator_window(),
    )
)
@settings(max_examples=300, deadline=None)
def test_profile_decides_rank_as_elimination_does(seq):
    # the profile test is an iff, so it agrees with elimination at every cap
    M = len(seq) - 1
    for cap in range(M // 2 + 1):
        assert zeta._window_has_full_rank(seq, cap) == eliminated_full_rank(seq, cap), cap
