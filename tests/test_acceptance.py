"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.

Criteria 2, 3 and 5 pin concrete numbers (F_6 = 2058, L_6 = 2040, the 48 vs
2040 discrepancy, the 1.2716 rate witness at n = 6) to the rational constant
C = 6931/10000.  That constant lies a hair BELOW log 2 = 0.693147..., so the
exact floor K_1 = floor(C / log 2) is 0, not 1, and the pinned numbers are
unattainable as stated: they all require the n = 1 block to be present
(their factor of 2).  The smallest four-decimal rational at or above log 2 is
6932/10000, which reproduces every pinned number exactly.  The letter-of-the-
criterion assertions are kept as strict xfail tests (they document the
defect); the adjacent tests verify the same numbers under 6932/10000 and the
full property set under the stated constant.
"""

import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from oracles import delta_n, fixed_from_least, least_sequence, measure_and_radius, mpf_of
from perigee.construction import (
    build_plan,
    count_table,
    deficit_report,
    enumerate_oracle,
    sigma_rate_target,
)
from perigee.numtheory import PRIME_BOUND_EXPONENT, divisors, least_prime_congruent_one
from perigee.orbits import CountSequence, growth_diagnostics, least_from_fixed
from perigee.targets import GrowthTarget
from perigee.toral import (
    IntegerPolynomial,
    cyclotomic_factor_index,
    delta_n_resultant,
    mahler_measure,
    toral_fix_sequence,
)
from perigee.zeta import orbit_product_form, rationality_probe, zeta_truncate

C_STATED = Fraction(6931, 10000)  # the criterion constant; just below log 2
C_INTENDED = Fraction(6932, 10000)  # smallest 4-decimal rational >= log 2

SEED = 0x5EED


def plan_rates(plan):
    """{n: (1/n) log F_n} for every n of the plan, from growth_diagnostics."""
    return {n: rate for n, _, rate in growth_diagnostics(count_table(plan).factored).entries}


XFAIL_REASON = (
    "6931/10000 < log 2, so K_1 = floor(C/log 2) = 0 and the pinned values "
    "(which require the n = 1 block, hence C >= log 2) cannot arise; "
    "6932/10000 reproduces them exactly"
)


def report(number, name, detail, elapsed=None):
    stamp = "" if elapsed is None else " (%.2fs)" % elapsed
    print("ACCEPTANCE %02d %s: PASS%s %s" % (number, name, stamp, detail))


def test_criterion_01_mobius_round_trips():
    started = time.perf_counter()
    rng = random.Random(SEED)
    for _ in range(1000):
        values = [rng.randrange(2**32) for _ in range(64)]
        L = least_sequence(values)
        assert least_from_fixed(fixed_from_least(L)).values == L.values
    for _ in range(1000):
        values = [rng.randrange(2**32) for _ in range(64)]
        F = CountSequence.fixed(values)
        assert fixed_from_least(least_from_fixed(F)).values == F.values
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, "mobius-round-trips", "2000 sequences, N=64, exact both ways", elapsed)


def _check_oracle_equivalence(c_value, n_sweep=60):
    plan = build_plan(GrowthTarget.finite(c_value), "paper", n_max=6)
    counts = enumerate_oracle(plan, 6, n_sweep)
    table = count_table(plan, n_sweep, component_limit=6)
    for n in range(1, n_sweep + 1):
        assert counts.fixed.values[n - 1] == table.values[n - 1], n
        assert counts.least.values[n - 1] == table.least[n - 1], n
    assert least_from_fixed(counts.fixed).values == counts.least.values
    return plan, counts


def test_criterion_02_oracle_equivalence_stated_constant():
    started = time.perf_counter()
    plan, counts = _check_oracle_equivalence(C_STATED)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        2,
        "oracle-equivalence",
        "C=%s: %d points, closed forms reproduced for n<=60" % (C_STATED, counts.points),
        elapsed,
    )


def test_criterion_02_oracle_equivalence_intended_constant():
    started = time.perf_counter()
    plan, counts = _check_oracle_equivalence(C_INTENDED)
    assert counts.points == 113190
    assert counts.fixed.values[5] == 2058 and counts.least.values[5] == 2040
    assert counts.fixed.values[1] == 6 and counts.least.values[1] == 4
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        2,
        "oracle-equivalence-pinned",
        "C=%s: |X|=113190, F_6=2058, L_6=2040, F_2=6, L_2=4" % C_INTENDED,
        elapsed,
    )


@pytest.mark.xfail(strict=True, reason=XFAIL_REASON)
def test_criterion_02_letter_pinned_values():
    plan, counts = _check_oracle_equivalence(C_STATED)
    assert counts.points == 113190
    assert counts.fixed.values[5] == 2058


def test_criterion_03_claimed_formula_status():
    started = time.perf_counter()
    rng = random.Random(SEED)
    plans = [build_plan(GrowthTarget.finite(C_STATED), "paper", n_max=200)]
    for _ in range(20):
        c = Fraction(rng.randint(1, 3000), 1000)
        plans.append(build_plan(GrowthTarget.finite(c), "paper", n_max=200))
    for plan in plans:
        table = count_table(plan)
        for n, (comp, block, exact) in enumerate(
            zip(plan.components, table.blocks, table.least), start=1
        ):
            claimed = comp.p**comp.K - 1
            assert int(block) - 1 == claimed
            assert exact >= max(claimed, 0)
            if n == 1:
                # the exact count always exceeds the closed form by the zero point
                assert exact - claimed == 1
            else:
                trivial = all(plan.components[d - 1].K == 0 for d in divisors(n) if d != n)
                assert (exact == claimed) == trivial, n
    elapsed = time.perf_counter() - started
    report(
        3,
        "claimed-formula-status",
        "21 plans, N=200: exact >= claimed everywhere, equality iff "
        "proper blocks trivial (n >= 2)",
        elapsed,
    )


def test_criterion_03_discrepancy_intended_constant():
    table = count_table(build_plan(GrowthTarget.finite(C_INTENDED), "paper", n_max=6))
    assert table.blocks[5] - 1 == 48
    assert table.least[5] == 2040
    report(3, "claimed-formula-discrepancy", "C=%s: n=6 gives 48 vs 2040" % C_INTENDED)


@pytest.mark.xfail(strict=True, reason=XFAIL_REASON)
def test_criterion_03_letter_discrepancy():
    table = count_table(build_plan(GrowthTarget.finite(C_STATED), "paper", n_max=6))
    assert table.blocks[5] - 1 == 48
    assert table.least[5] == 2040  # exact is 1020 for the stated C


def test_criterion_04_compensated_convergence_envelope():
    started = time.perf_counter()
    plan = build_plan(GrowthTarget.finite(1), "compensated", n_max=5000)
    rep = deficit_report(plan)
    assert not rep.unverified, "unverified deficits at n = %s" % (rep.unverified,)
    exceptions = rep.negative_budget
    rates = plan_rates(plan)
    with mp.workprec(140):
        for n in range(1, plan.N + 1):
            if n in exceptions:
                continue
            p = plan.components[n - 1].p
            rate_gap = abs(mpf_of(rates[n]) - 1)
            assert rate_gap < mp.log(p) / n
            if n >= 2:
                assert p < n**PRIME_BOUND_EXPONENT  # so log p_n <= 5.5 log n
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        4,
        "compensated-envelope",
        "C=1, N=5000: 0 <= n*C - log F_n < log p_n interval-certified at all "
        "%d nonnegative-budget n; negative-budget exceptions: %s"
        % (5000 - len(exceptions), list(exceptions) or "none"),
        elapsed,
    )


def test_criterion_05_rate_report():
    started = time.perf_counter()
    plan = build_plan(GrowthTarget.finite(C_STATED), "paper", n_max=2520)
    rates = plan_rates(plan)
    with mp.workprec(140):
        best_rate, best_n = max((mpf_of(rates[n]), n) for n in range(1, 2521))
        assert best_rate >= 1.25
        # tabulation against the nominal rate C * sigma(n) / n
        worst_gap = mp.mpf(0)
        for n in range(1, 2521):
            nominal = sigma_rate_target(plan, n)
            nominal_mpf = mp.mpf(nominal.numerator) / nominal.denominator
            gap = abs(mpf_of(rates[n]) - nominal_mpf)
            worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - started
    report(
        5,
        "independent-floor-rate-overshoot",
        "C=%s, N=2520: max rate %s at n=%d (>= 1.25); max |rate - C*sigma/n| = %s"
        % (C_STATED, mp.nstr(best_rate, 8), best_n, mp.nstr(worst_gap, 6)),
        elapsed,
    )


def test_criterion_05_witness_intended_constant():
    plan = build_plan(GrowthTarget.finite(C_INTENDED), "paper", n_max=6)
    rate6 = mpf_of(plan_rates(plan)[6])
    assert abs(rate6 - mp.mpf("1.2715816527323325")) < 1e-10
    report(5, "rate-witness", "C=%s: rate at n=6 is %s" % (C_INTENDED, mp.nstr(rate6, 8)))


@pytest.mark.xfail(strict=True, reason=XFAIL_REASON)
def test_criterion_05_letter_witness():
    plan = build_plan(GrowthTarget.finite(C_STATED), "paper", n_max=6)
    assert not plan_rates(plan)[6] < 1.25  # actual value is 1.156...


def test_criterion_06_infinite_target():
    started = time.perf_counter()
    plan = build_plan(GrowthTarget.infinite(), n_max=12)
    table = count_table(plan)
    with mp.workprec(140):
        for comp in plan.components:
            n = comp.n
            assert comp.p > n**n
            assert mp.log(comp.p) / n >= mp.log(n)
            value = int(table.factored[n - 1])
            assert isinstance(value, int) and value >= comp.p
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        6,
        "infinite-target",
        "n<=12: p_n > n^n (p_12 = %d), rate certificate holds, all F_n finite"
        % plan.components[11].p,
        elapsed,
    )


def test_criterion_07_prime_bound_sweep():
    started = time.perf_counter()
    worst_ratio = 0.0
    worst_n = None
    for n in range(2, 10**4 + 1):
        p = least_prime_congruent_one(n)
        ratio = p / n**PRIME_BOUND_EXPONENT
        assert ratio < 1.0, (n, p)
        if ratio > worst_ratio:
            worst_ratio, worst_n = ratio, n
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        7,
        "prime-bound-sweep",
        "p_n < n^5.5 for 2 <= n <= 10^4; max ratio %.6f at n=%d" % (worst_ratio, worst_n),
        elapsed,
    )


def test_criterion_08_integer_sequences():
    started = time.perf_counter()
    shift = IntegerPolynomial((-2, 1))
    seq = toral_fix_sequence(shift, 200)
    assert seq.values == tuple(2**n - 1 for n in range(1, 201))
    golden = IntegerPolynomial((-1, -1, 1))
    assert toral_fix_sequence(golden, 5).values == (1, 1, 4, 5, 11)
    rng = random.Random(SEED)
    checked = 0
    while checked < 20:
        degree = rng.randint(1, 6)
        coeffs = tuple(rng.randint(-5, 5) for _ in range(degree)) + (1,)
        poly = IntegerPolynomial(coeffs)
        if cyclotomic_factor_index(poly) is not None:
            continue
        for n in range(1, 31):
            assert delta_n(poly, n) == delta_n_resultant(poly, n)
        checked += 1
    elapsed = time.perf_counter() - started
    report(
        8,
        "integer-sequences",
        "delta(x-2) = 2^n-1 to n=200; golden-"
        "mean start 1,1,4,5,11; det == resultant on 20 random polynomials",
        elapsed,
    )


def test_criterion_09_mahler_convergence():
    started = time.perf_counter()
    for coeffs in ((-2, 1), (-1, -1, 1)):
        poly = IntegerPolynomial(coeffs)
        rate = growth_diagnostics(toral_fix_sequence(poly, 1000)).entries[-1][2]
        gap = abs(mpf_of(rate) - measure_and_radius(mahler_measure(poly))[0])
        assert gap <= 1e-3, gap
    lehmer10 = IntegerPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    certified, _ = measure_and_radius(mahler_measure(lehmer10))
    with mp.workdps(60):
        roots = mp.polyroots(
            [mp.mpf(c) for c in reversed(lehmer10.coefficients)], maxsteps=200
        )
        independent = sum(max(mp.log(abs(r)), mp.mpf(0)) for r in roots)
        gap = abs(certified - independent)
        assert gap < 1e-6
    elapsed = time.perf_counter() - started
    report(
        9,
        "mahler-convergence",
        "rate gap <= 1e-3 at n=1000 for x-2 and x^2-x-1; degree-10 measure %s "
        "within %s of independent root computation"
        % (mp.nstr(certified, 8), mp.nstr(gap, 3)),
        elapsed,
    )


def test_criterion_10_zeta():
    started = time.perf_counter()
    doubling = CountSequence.fixed([2**n - 1 for n in range(1, 33)])
    series = zeta_truncate(doubling, 32)
    assert series.coefficients == tuple([1] + [2**m for m in range(32)])
    verdict = rationality_probe(series)
    assert verdict.verdict == "consistent-with-rational"
    assert verdict.numerator == (1, -1) and verdict.denominator == (1, -2)

    golden = toral_fix_sequence(IntegerPolynomial((-1, -1, 1)), 32)
    verdict = rationality_probe(zeta_truncate(golden, 32))
    assert verdict.numerator == (1, 0, -1) and verdict.denominator == (1, -1, -1)

    rng = random.Random(SEED)
    for _ in range(100):
        least = least_sequence(
            [n * rng.randint(0, 10) for n in range(1, 33)]
        )
        fixed = fixed_from_least(least)
        truncated = zeta_truncate(fixed, 32)
        assert all(c.denominator == 1 and c >= 0 for c in truncated.coefficients)
        assert orbit_product_form(fixed, 32).coefficients == truncated.coefficients
    elapsed = time.perf_counter() - started
    report(
        10,
        "zeta",
        "doubling (1-z)/(1-2z), golden (1-z^2)/(1-z-z^2), 100 realizable "
        "series integral and product == exponential",
        elapsed,
    )
