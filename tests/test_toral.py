import importlib
import math
import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from oracles import (
    delta_n,
    det_bareiss,
    dyadic,
    euler_phi,
    mahler_by_polyroots,
    measure_and_radius,
    realizability_check,
    residues_by_steps,
    square_free_parts_by_euclid,
)
from perigee import precision, toral
from perigee.precision import PrecisionError, log_enclosure
from perigee.toral import (
    DegeneracyError,
    IntegerPolynomial,
    _poly_divmod_monic_int,
    _subresultant,
    cyclotomic,
    cyclotomic_factor_index,
    delta_n_resultant,
    mahler_measure,
    toral_fix_sequence,
)

SHIFT = IntegerPolynomial((-2, 1))  # x - 2
GOLDEN = IntegerPolynomial((-1, -1, 1))  # x^2 - x - 1
LEHMER10 = IntegerPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))

# Independently computed: log of the largest root of LEHMER10 (the smallest
# known Mahler measure above zero), frozen at 30 digits.
LEHMER10_MEASURE = "0.162357612007738139432198803556"


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_nondegenerate(rng, max_degree=6, bound=5):
    while True:
        degree = rng.randint(1, max_degree)
        coeffs = [rng.randint(-bound, bound) for _ in range(degree)] + [1]
        poly = IntegerPolynomial(tuple(coeffs))
        if cyclotomic_factor_index(poly) is None:
            return poly


def test_polynomial_parsing_and_validation():
    assert IntegerPolynomial.parse("-1,-1,1") == GOLDEN
    assert GOLDEN.degree == 2
    with pytest.raises(ValueError):
        IntegerPolynomial((2,))  # degree 0
    with pytest.raises(ValueError):
        IntegerPolynomial((1, 2))  # not monic
    with pytest.raises(ValueError):
        IntegerPolynomial.parse("1,x")


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    # degree phi(k), and x**k - 1 = product of cyclotomics over d | k
    for k in (8, 9, 10, 15, 105):
        from perigee.numtheory import divisors

        assert len(cyclotomic(k)) - 1 == euler_phi(k)
        prod = [1]
        for d in divisors(k):
            phi_d = list(cyclotomic(d))
            out = [0] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            prod = out
        expected = [-1] + [0] * (k - 1) + [1]
        assert prod == expected


def test_degeneracy_examples():
    assert cyclotomic_factor_index(IntegerPolynomial((-1, 1))) == 1  # x - 1
    assert cyclotomic_factor_index(GOLDEN) is None
    assert cyclotomic_factor_index(IntegerPolynomial((1, 0, 1))) == 4  # x^2 + 1, roots +-i


def test_delta_examples():
    assert delta_n(SHIFT, 5) == 31
    assert [delta_n(GOLDEN, n) for n in range(1, 6)] == [1, 1, 4, 5, 11]
    assert delta_n_resultant(GOLDEN, 4) == 5
    assert [delta_n(IntegerPolynomial((1, -3, 1)), n) for n in range(1, 4)] == [1, 5, 16]


def test_fix_sequence_examples():
    assert toral_fix_sequence(SHIFT, 4).values == (1, 3, 7, 15)
    assert toral_fix_sequence(GOLDEN, 5).values == (1, 1, 4, 5, 11)
    assert toral_fix_sequence(IntegerPolynomial((1, -3, 1)), 3).values == (1, 5, 16)
    # x^2: M is nilpotent, so x^n mod f vanishes from n = 2 on and delta_n = 1
    assert toral_fix_sequence(IntegerPolynomial((0, 0, 1)), 4).values == (1, 1, 1, 1)


def test_fix_sequence_rejects_degenerate():
    with pytest.raises(DegeneracyError) as info:
        toral_fix_sequence(IntegerPolynomial((1, 0, 1)), 4)
    assert info.value.cyclotomic_index == 4


def test_determinant_vs_resultant_random():
    rng = random.Random(8151)
    for _ in range(20):
        poly = random_nondegenerate(rng, max_degree=8)
        expected = tuple(delta_n_resultant(poly, n) for n in range(1, 41))
        # the sequence lehmer prints, and each delta_n from x^n mod f alone
        assert toral_fix_sequence(poly, 40).values == expected
        assert tuple(delta_n(poly, n) for n in range(1, 41)) == expected


def subresultant_and_determinant(coeffs, n):
    """Res(f, (x^n mod f) - 1) by the subresultant, and det(M^n - I) by Bareiss
    on the columns x^(n+j) mod f of M^n.  Both are the product of a^n - 1 over
    the roots a of f, sign included."""
    residues = residues_by_steps(coeffs, n + len(coeffs) - 1)
    columns = [list(r) for r in residues[n:]]
    for j, column in enumerate(columns):
        column[j] -= 1
    return _subresultant(coeffs, columns[0]), det_bareiss(columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12), st.integers(1, 40))
def test_subresultant_matches_bareiss(low, n):
    res, det = subresultant_and_determinant(low + [1], n)
    assert res == det


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-6, 6), max_size=7),
    st.integers(-6, 6).filter(bool),
    st.lists(st.integers(-6, 6), min_size=1, max_size=8),
)
def test_subresultant_matches_the_sylvester_determinant(low, lead, b):
    # integer polynomials with deg a >= deg b: leading coefficients other
    # than 1, common factors, constants and a zero b; Res(a, b) is the
    # determinant of deg b shifted rows of a over deg a shifted rows of b
    a = low + [lead]
    b = b[: len(a)]
    while b and not b[-1]:
        b.pop()
    m, n = len(a) - 1, len(b) - 1
    rows = ([[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)])
    assert _subresultant(a, b) == (det_bareiss(rows) if b else 0)


def test_subresultant_vanishes_on_cyclotomic_factors():
    # Phi_k(x) (x^2 - x - 1) has Delta_n = 0 exactly when k divides n
    for k in (1, 2, 3, 4, 5, 6, 8, 12):
        coeffs = poly_mul(list(cyclotomic(k)), list(GOLDEN.coefficients))
        for n in range(1, 25):
            res, det = subresultant_and_determinant(coeffs, n)
            assert res == det
            assert (res == 0) == (n % k == 0), (k, n)


def test_subresultant_non_normal_step():
    # f = x^4 - x^3 - x^2 - x + 1 at n = 4: x^4 mod f - 1 = x^3 + x^2 + x - 2,
    # and f leaves the remainder 3x - 3 by it, so the remainder sequence
    # drops two degrees in one step
    f = [1, -1, -1, -1, 1]
    assert residues_by_steps(f, 5)[4] == [-1, 1, 1, 1]
    assert _poly_divmod_monic_int(f, [-2, 1, 1, 1])[1] == [-3, 3]
    assert subresultant_and_determinant(f, 4) == (-27, -27)
    assert delta_n_resultant(IntegerPolynomial(tuple(f)), 4) == 27
    assert toral_fix_sequence(IntegerPolynomial(tuple(f)), 4).values[3] == 27


def test_resultant_oracle_on_short_zero_and_degenerate_inputs():
    # n < deg f leaves x^n - 1 as its own remainder mod f; Phi_k (x^2 - x - 1)
    # has delta_n = 0 exactly at the multiples of k; x^2 (x - 2) has two roots
    # at 0, so delta_n = 2^n - 1
    rng = random.Random(2601)
    for _ in range(20):
        poly = IntegerPolynomial(tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 12))) + (1,))
        for n in range(1, poly.degree):
            assert delta_n_resultant(poly, n) == delta_n(poly, n), (poly, n)
    for k in (1, 2, 3, 4, 6, 7, 12):
        poly = IntegerPolynomial(tuple(poly_mul(list(cyclotomic(k)), list(GOLDEN.coefficients))))
        values = [delta_n_resultant(poly, n) for n in range(1, 37)]
        assert values == [delta_n(poly, n) for n in range(1, 37)]
        assert [n for n in range(1, 37) if not values[n - 1]] == list(range(k, 37, k))
    cubic = IntegerPolynomial((0, 0, -2, 1))
    expected = [2**n - 1 for n in range(1, 41)]
    assert [delta_n_resultant(cubic, n) for n in range(1, 41)] == expected
    assert [delta_n(cubic, n) for n in range(1, 41)] == expected


def least_vanishing_subresultant(coeffs):
    """The least k with phi(k) <= deg f and Res(f, Phi_k) = 0, or None."""
    d = len(coeffs) - 1
    return next((k for k in range(1, 2 * d * d + 7)
                 if euler_phi(k) <= d and _subresultant(coeffs, list(cyclotomic(k))) == 0), None)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.lists(st.integers(1, 30), max_size=2))
@example([-1, -1], [3, 3])  # Phi_3^2 (x^2 - x - 1)
@example([0], [12, 12])  # x Phi_12^2
@example([2], [2, 1])  # (x + 2)(x + 1)(x - 1)
def test_cyclotomic_scan_by_division_matches_the_subresultant(low, ks):
    # random monic f times up to two cyclotomic factors, a repeat included:
    # Phi_k | f exactly when Res(f, Phi_k) = 0, since Phi_k is irreducible
    coeffs = low + [1]
    for k in ks:
        coeffs = poly_mul(coeffs, list(cyclotomic(k)))
    found = cyclotomic_factor_index(IntegerPolynomial(tuple(coeffs)))
    assert found == least_vanishing_subresultant(coeffs)
    assert not ks or found <= min(ks)


def test_cyclotomic_scan_forms_no_subresultant():
    # the scan divides by each Phi_k; no remainder sequence is formed
    degree30 = IntegerPolynomial((3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4,
                                  6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 1))
    phi12_golden = IntegerPolynomial(tuple(poly_mul(list(cyclotomic(12)), [-1, -1, 1])))
    with mock.patch.object(toral, "_subresultant", wraps=_subresultant) as sub, \
            mock.patch.object(toral, "_remainders", wraps=toral._remainders) as rem:
        found = [cyclotomic_factor_index(f) for f in (LEHMER10, degree30, phi12_golden, GOLDEN)]
    assert found == [None, None, 12, None]
    assert not sub.called and not rem.called


factor = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda low: low + [1])


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-9, 9), min_size=1, max_size=12).map(lambda low: low + [1]),
    # g^2 h x^k: a repeated factor and roots at 0
    st.tuples(factor, factor, st.integers(0, 3)).map(
        lambda t: [0] * t[2] + poly_mul(poly_mul(t[0], t[0]), t[1])),
))
def test_fix_sequence_matches_both_oracles(coeffs):
    # random monic f of degree <= 12 with no cyclotomic factor: every ball
    # product equals the Bareiss determinant and the integer resultant
    poly = IntegerPolynomial(tuple(coeffs))
    assume(cyclotomic_factor_index(poly) is None)
    expected = tuple(delta_n(poly, n) for n in range(1, 61))
    assert toral_fix_sequence(poly, 60).values == expected
    assert expected == tuple(delta_n_resultant(poly, n) for n in range(1, 61))


def test_too_few_bits_double_and_never_misread(monkeypatch):
    # with the working scale halved, x - 2 at N = 400 and x^2 - 2x + 5 (roots
    # 1 +- 2i) at N = 200 outgrow their balls: the first pass gives up on a
    # ball that holds two integers, and the doubled pass certifies every value
    sized = toral._working_bits
    monkeypatch.setattr(toral, "_working_bits", lambda *args: sized(*args) // 2)
    for poly, n_max in ((SHIFT, 400), (IntegerPolynomial((5, -2, 1)), 200)):
        with mock.patch.object(toral, "_ball_products", wraps=toral._ball_products) as passes:
            values = toral_fix_sequence(poly, n_max).values
        assert values == tuple(delta_n(poly, n) for n in range(1, n_max + 1))
        bits = [call.args[2] for call in passes.call_args_list]
        assert len(bits) == 2 and bits[1] == 2 * bits[0], poly


def test_working_scale_follows_the_output_not_the_decision_cap(monkeypatch):
    # delta_1000 of x - 2 has 1000 bits, far above a 256-bit decision cap
    monkeypatch.setattr(precision, "MAX_DECISION_BITS", 256)
    toral._enclose.cache_clear()
    values = toral_fix_sequence(SHIFT, 1000).values
    assert values == tuple(2**n - 1 for n in range(1, 1001))


def test_cyclotomic_scan_runs_only_where_a_disk_meets_the_circle():
    # Lehmer's polynomial has eight roots on the unit circle, x^2 - 3x + 1
    # none; a polynomial whose roots do not certify is scanned first, so
    # (x - 1)(x + 10^400) is still degenerate and x^2 + 10^309 + 1 fails on
    # its precision
    scan = mock.patch.object(toral, "cyclotomic_factor_index", wraps=cyclotomic_factor_index)
    with scan as scanned:
        toral_fix_sequence(LEHMER10, 20)
        assert scanned.call_count == 1
        toral_fix_sequence(IntegerPolynomial((1, -3, 1)), 20)
        assert scanned.call_count == 1
        with pytest.raises(DegeneracyError) as info:
            toral_fix_sequence(IntegerPolynomial((-10**400, 10**400 - 1, 1)), 3)
        assert info.value.cyclotomic_index == 1 and scanned.call_count == 2
        with pytest.raises(PrecisionError):
            toral_fix_sequence(IntegerPolynomial((10**309 + 1, 0, 1)), 3)
        assert scanned.call_count == 3


def test_delta_multiplicative_under_products():
    rng = random.Random(62)
    for _ in range(10):
        f = random_nondegenerate(rng, max_degree=3)
        g = random_nondegenerate(rng, max_degree=3)
        fg = IntegerPolynomial(tuple(poly_mul(list(f.coefficients), list(g.coefficients))))
        for n in (1, 2, 3, 7, 12):
            assert delta_n(fg, n) == delta_n(f, n) * delta_n(g, n)


def test_delta_positive_for_nondegenerate():
    rng = random.Random(99)
    for _ in range(10):
        poly = random_nondegenerate(rng)
        for n in range(1, 20):
            assert delta_n(poly, n) >= 1


def test_fix_sequences_are_realizable():
    rng = random.Random(431)
    for _ in range(6):
        poly = random_nondegenerate(rng, max_degree=4, bound=3)
        seq = toral_fix_sequence(poly, 64)
        assert realizability_check(seq).ok


def test_mahler_shift():
    result = mahler_measure(SHIFT)
    measure, radius = measure_and_radius(result)
    with mp.workprec(200):
        # the bound covers rounding log 2 to the returned precision
        assert abs(measure - mp.log(2)) <= radius <= mp.mpf(2) ** -120
    assert not result.flagged


def test_mahler_error_bound_covers_the_closed_form():
    # m(x - 2) = log 2, m(x^2 - x - 1) = log phi and m(x^2 - 3x + 1) = 2 log phi
    with mp.workprec(2000):
        phi = (1 + mp.sqrt(5)) / 2
        closed_forms = [
            (SHIFT, mp.log(2)),
            (GOLDEN, mp.log(phi)),
            (IntegerPolynomial((1, -3, 1)), 2 * mp.log(phi)),
        ]
    for poly, closed_form in closed_forms:
        for bits in (32, 128, 300):
            measure, radius = measure_and_radius(mahler_measure(poly, precision_bits=bits))
            with mp.workprec(2000):
                assert abs(measure - closed_form) <= radius, (poly, bits)


def test_mahler_golden():
    result = mahler_measure(GOLDEN)
    with mp.workprec(200):
        expected = mp.log((1 + mp.sqrt(5)) / 2)
        assert abs(measure_and_radius(result)[0] - expected) <= mp.mpf(2) ** -100
    assert len(result.roots) == 2
    assert not result.flagged


def test_mahler_lehmer_polynomial():
    result = mahler_measure(LEHMER10)
    measure, radius = measure_and_radius(result)
    with mp.workprec(160):
        assert abs(measure - mp.mpf(LEHMER10_MEASURE)) < 1e-25
    assert radius < 1e-25
    # eight roots sit on the unit circle and must be flagged
    assert len(result.flagged) == 8
    assert len(result.roots) == 10


def test_mahler_independent_root_computation():
    # plain high-precision root finding, no certification layer
    with mp.workdps(60):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(LEHMER10.coefficients)], maxsteps=200)
        independent = sum(max(mp.log(abs(r)), mp.mpf(0)) for r in roots)
        measure, _ = measure_and_radius(mahler_measure(LEHMER10))
        assert abs(measure - independent) < 1e-6


def test_mahler_additive_over_products():
    fg = IntegerPolynomial(tuple(poly_mul(list(SHIFT.coefficients), list(GOLDEN.coefficients))))
    combined, combined_radius = measure_and_radius(mahler_measure(fg))
    left, left_radius = measure_and_radius(mahler_measure(SHIFT))
    right, right_radius = measure_and_radius(mahler_measure(GOLDEN))
    with mp.workprec(200):
        tolerance = combined_radius + left_radius + right_radius + mp.mpf(2) ** -100
        assert abs(combined - (left + right)) <= tolerance


def test_convergence_envelope():
    # |(1/n) log delta_n - m| <= (d/n) * (log 2 + log(1/(1 - exp(-margin))))
    # for polynomials whose roots stay off the unit circle by `margin`.
    for poly in (SHIFT, GOLDEN):
        result = mahler_measure(poly)
        measure, _ = measure_and_radius(result)
        with mp.workprec(160):
            margin = min(
                abs(mp.log(abs(mp.mpc(dyadic(r.x, r.scale), dyadic(r.y, r.scale)))))
                for r in result.roots
            )
            assert margin > 0
            budget = poly.degree * (mp.log(2) + mp.log(1 / (1 - mp.e**-margin)))
            for n in range(1, 40):
                rate = mp.log(delta_n(poly, n)) / n
                assert abs(rate - measure) <= budget / n + mp.mpf(2) ** -80


# --- the Mahler measure against Graeffe root squaring -------------------------


def graeffe(coeffs):
    """f_1 with f_1(x**2) = (-1)**d f(x) f(-x): its roots are the squares of f's."""
    d = len(coeffs) - 1
    prod = poly_mul(coeffs, [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return [(-1) ** d * c for c in prod[::2]]


def graeffe_enclosure(coeffs, k, bits=64):
    """(lo, hi, scale) with lo <= m(f) * 2**scale <= hi, from f_k after k root
    squarings, whose measure is M(f)**(2**k).  Landau's bound gives
    M(f_k) <= ||f_k||_2, and |c_j| <= binom(d, j) M(f_k) bounds it below."""
    for _ in range(k):
        coeffs = graeffe(coeffs)
    d = len(coeffs) - 1
    lo = max(
        log_enclosure(abs(c), bits)[0] - log_enclosure(math.comb(d, j), bits)[1]
        for j, c in enumerate(coeffs) if c
    )
    hi = -(-log_enclosure(sum(c * c for c in coeffs), bits)[1] // 2)
    return max(lo, 0), hi, bits + k


def inside(ball, outer):
    (lo, hi, s), (out_lo, out_hi, t) = ball, outer
    return out_lo << s <= lo << t and hi << t <= out_hi << s


def overlap(first, second):
    (lo, hi, s), (lo2, hi2, t) = first, second
    return lo << t <= hi2 << s and lo2 << s <= hi << t


def ball_of(result):
    return result.lo, result.hi, result.scale


def test_graeffe_enclosure_is_narrow_and_holds_closed_forms():
    # m(x - 2) = log 2 and m(x^2 - 3x + 1) = 2 log phi, inside widths that
    # shrink like 2**-k
    with mp.workprec(200):
        closed_forms = ((SHIFT.coefficients, mp.log(2)),
                        ((1, -3, 1), 2 * mp.log((1 + mp.sqrt(5)) / 2)))
        for coeffs, closed in closed_forms:
            lo, hi, scale = graeffe_enclosure(list(coeffs), 12)
            assert lo <= closed * 2**scale <= hi
            assert hi - lo < 2 ** (scale - 10)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
def test_mahler_ball_lies_in_the_graeffe_enclosure(low):
    # random monic f of degree <= 12 with no cyclotomic factor, repeated roots
    # and roots at 0 included
    poly = IntegerPolynomial(tuple(low) + (1,))
    assume(cyclotomic_factor_index(poly) is None)
    certified = ball_of(mahler_measure(poly))
    assert inside(certified, graeffe_enclosure(low + [1], 10))
    assert overlap(certified, mahler_by_polyroots(poly))


monic_low = st.lists(st.integers(-3, 3), max_size=3)


@settings(max_examples=60, deadline=None)
@given(monic_low, monic_low, monic_low)
def test_square_free_parts_match_the_rational_euclid(a, b, c):
    # a b^2 c^3 for small monic a, b, c, which may share factors: the integer
    # remainder sequence splits it as a Fraction Euclid does
    a, b, c = a + [1], b + [1], c + [1]
    coeffs = tuple(poly_mul(poly_mul(a, poly_mul(b, b)), poly_mul(c, poly_mul(c, c))))
    assert toral._square_free_parts(coeffs) == square_free_parts_by_euclid(coeffs)


def test_repeated_roots_certify_through_the_square_free_parts():
    # (x^2 - x - 1)^2: Newton from a float start loses its quadratic
    # convergence at a double root, so each square-free part, x^2 - x - 1
    # twice, is started and certified on its own
    square = IntegerPolynomial((1, 2, -1, -2, 1))
    toral._enclose.cache_clear()
    with mock.patch.object(toral, "_square_free_parts", wraps=toral._square_free_parts) as parts:
        result = mahler_measure(square)
    assert parts.called
    with mp.workprec(400):
        expected = 2 * mp.log((1 + mp.sqrt(5)) / 2)
        assert result.lo <= expected * 2**result.scale <= result.hi
    assert len(result.roots) == 4 and not result.flagged
    assert inside(ball_of(result), graeffe_enclosure([1, 2, -1, -2, 1], 10))


class BlockMpmath:
    """A sys.meta_path finder under which importing mpmath fails."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath":
            raise ImportError("mpmath is blocked")


def test_repeated_roots_certify_without_mpmath():
    # with mpmath unimportable, (x^2 - x - 1)^2 and (x + 1)^3 still certify:
    # 2 log phi, and 0 with all three roots flagged on the unit circle
    toral._enclose.cache_clear()
    with mock.patch.dict(sys.modules), \
            mock.patch.object(sys, "meta_path", [BlockMpmath()] + sys.meta_path):
        for name in [name for name in sys.modules if name.partition(".")[0] == "mpmath"]:
            del sys.modules[name]
        with pytest.raises(ImportError):
            importlib.import_module("mpmath")
        square = mahler_measure(IntegerPolynomial((1, 2, -1, -2, 1)))
        cube = mahler_measure(IntegerPolynomial((1, 3, 3, 1)))
    with mp.workprec(400):
        assert square.lo <= 2 * mp.log((1 + mp.sqrt(5)) / 2) * 2**square.scale <= square.hi
    assert (cube.lo, cube.hi) == (0, 0) and len(cube.flagged) == 3


def test_mahler_of_roots_at_zero_and_on_the_circle_is_exact():
    # x^2 (x - 2): two exact roots at 0; x^4 - 1 and x - 1: roots of unity,
    # whose measure 0 the ball reaches exactly
    result = mahler_measure(IntegerPolynomial((0, 0, -2, 1)))
    with mp.workprec(200):
        assert result.lo <= mp.log(2) * 2**result.scale <= result.hi
    assert [(r.x, r.y) for r in result.roots[:2]] == [(0, 0), (0, 0)]
    for coeffs in ((-1, 0, 0, 0, 1), (-1, 1)):
        result = mahler_measure(IntegerPolynomial(coeffs))
        assert (result.lo, result.hi) == (0, 0)
        assert len(result.flagged) == len(coeffs) - 1


def test_mahler_refines_its_ball_on_demand():
    result = mahler_measure(GOLDEN)
    lo, hi = result.ball(4 * result.scale)
    assert hi - lo < 2 ** (2 * result.scale)
    coarse = result.ball(result.scale // 2)
    assert inside((lo, hi, 4 * result.scale), (*coarse, result.scale // 2))


def test_mahler_of_roots_of_very_different_sizes():
    # x^3 - 2^999 x^2 + 3 has a root r = 2^999 - 3 / r^2 and two near
    # +-(3 / 2^999)^(1/2).  Aberth-Ehrlich from the circle |z| = 3^(1/3) did
    # not converge, nor did mp.polyroots, so the measure escalated to exit 3;
    # the Newton polygon starts each root near its own modulus.
    result = mahler_measure(IntegerPolynomial((3, 0, -2**999, 1)))
    with mp.workprec(2 * result.scale):
        # log r = 999 log 2 - 3 * 2^-2997 + ..., far inside any ball at scale < 2990
        assert result.lo <= 999 * mp.log(2) * 2**result.scale <= result.hi
    assert len(result.roots) == 3 and not result.flagged
