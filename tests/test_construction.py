import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from oracles import mpf_of
from perigee import construction, precision
from perigee.construction import (
    _exponent,
    _point_period,
    _power_floor,
    build_plan,
    count_table,
    deficit_report,
    enumerate_oracle,
    load_plan,
    log_balls,
    plan_from_json,
    plan_to_json,
    save_plan,
    sigma_rate_target,
)
from perigee.numtheory import BudgetError, divisors, floor_root
from perigee.orbits import (
    CountSequence,
    growth_diagnostics,
    least_from_fixed,
    read_sequence_csv,
    write_sequence_csv,
)
from perigee.precision import GUARD_BITS, _count_log_ball, extreme_decimal, log_ball
from perigee.targets import GrowthTarget

# Two rational stand-ins for log 2 = 0.693147...: one a hair below (so the
# n = 1 exponent floors to 0), one a hair above (exponents 1,1,1,1,1,2).
C_BELOW_LOG2 = Fraction(6931, 10000)
C_ABOVE_LOG2 = Fraction(6932, 10000)


SMALL_PLANS = (
    (GrowthTarget.zero(), None, None, 12),
    (GrowthTarget.finite(C_ABOVE_LOG2), "paper", None, 40),
    (GrowthTarget.finite(1), "compensated", None, 150),
    (GrowthTarget.finite(Fraction(21, 20)), "subexponential", Fraction(1, 2), 40),
    (GrowthTarget.infinite(), None, None, 8),
)


def claimed_vs_exact(plan, table):
    """(n, p_n**K_n - 1, L_n, whether the lemma says they are equal) per n of
    the table, with the bound formed from the plan's ints and checked against
    the table's block.  Asserts the lemma: L_n >= p_n**K_n - 1, one above it
    at n = 1 (the zero point), and for n >= 2 equal exactly when K_n > 0 and
    no proper divisor d of n is active (K_d > 0), or K_n = 0 and the lcm of
    the active proper divisors is not n."""
    rows = []
    for n, (comp, block, exact) in enumerate(zip(plan.components, table.blocks, table.least), 1):
        claimed = comp.p**comp.K - 1
        assert int(block) - 1 == claimed
        active = [d for d in divisors(n) if d != n and plan.components[d - 1].K > 0]
        equal = not active if comp.K > 0 else math.lcm(*active) != n
        rows.append((n, claimed, int(exact), equal))
    assert all(exact >= max(claimed, 0) for _, claimed, exact, _ in rows)
    assert all((exact == claimed) == equal for n, claimed, exact, equal in rows if n >= 2)
    assert rows[0][2] - rows[0][1] == 1
    assert table.discrepancy_count == sum(exact != claimed for _, claimed, exact, _ in rows)
    return rows


@pytest.mark.parametrize("target, strategy, gamma, n_max", SMALL_PLANS)
def test_count_table_matches_the_int_route(target, strategy, gamma, n_max):
    # the decimal table, string by string, against int references that share
    # none of its code: the product of each factored F_n, orbits' Moebius
    # inversion of those ints, and p**K - 1 (in claimed_vs_exact)
    plan = build_plan(target, strategy, n_max=n_max, gamma=gamma)
    table = count_table(plan)
    fixed = CountSequence.fixed(int(f) for f in table.factored)
    least = least_from_fixed(fixed)
    for n in range(1, n_max + 1):
        exponents = Counter()
        for d in divisors(n):
            exponents[plan.components[d - 1].p] += plan.components[d - 1].K
        expected = "*".join("%d^%d" % pair for pair in sorted(exponents.items()) if pair[1])
        assert str(table.factored[n - 1]) == (expected or "1")
        assert str(table.values[n - 1]) == str(fixed.values[n - 1])
        assert str(table.least[n - 1]) == str(least.values[n - 1])
    claimed_vs_exact(plan, table)
    # and the logs growth_diagnostics sums from the factors, against the ints' own
    by_factors = growth_diagnostics(table.factored, window_len=5)
    by_values = growth_diagnostics(fixed, window_len=5)
    for entry, entry_int in zip(by_factors.entries, by_values.entries):
        assert [entry[0]] + [x.decimal(38) for x in entry[1:]] == (
            [entry_int[0]] + [x.decimal(38) for x in entry_int[1:]]
        )
    assert len(by_factors.window) == len(by_values.window)
    for pick in (min, max):  # the printed window_inf and window_sup
        assert extreme_decimal(pick, by_factors.window, 38) == (
            extreme_decimal(pick, by_values.window, 38)
        )


def test_count_table_names_the_count_it_cannot_form():
    # 2**K_1 has about 4.3e29 digits, past the decimal context's exponent
    # limit: the power overflows at once, before any memory is asked for
    plan = build_plan(GrowthTarget.finite(10**30), "paper", n_max=2)
    with pytest.raises(BudgetError, match="F_1 "):
        count_table(plan)


def test_paper_plan_above_log2():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    assert [c.p for c in plan.components] == [2, 3, 7, 5, 11, 7]
    assert [c.multiplier for c in plan.components] == [1, 2, 4, 2, 4, 3]
    assert [_point_period(c.multiplier, c.p, (1,)) for c in plan.components] == [1, 2, 3, 4, 5, 6]
    assert [c.K for c in plan.components] == [1, 1, 1, 1, 1, 2]
    plan.validate()


def test_paper_plan_below_log2():
    # the first exponent flips to 0 because C < log 2
    plan = build_plan(GrowthTarget.finite(C_BELOW_LOG2), "paper", n_max=6)
    assert [c.K for c in plan.components] == [0, 1, 1, 1, 1, 2]
    assert count_table(plan).values[5] == 1029


def test_compensated_plan():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "compensated", n_max=6)
    assert [c.p for c in plan.components] == [2, 3, 7, 5, 11, 7]
    assert [c.K for c in plan.components] == [1, 0, 0, 1, 1, 1]


def test_zero_plan():
    plan = build_plan(GrowthTarget.zero(), n_max=5)
    assert all(c.K == 0 for c in plan.components)
    table = count_table(plan)
    assert list(table.values) == [1] * 5
    assert table.least[0] == 1
    assert all(exact == 0 for exact in table.least[1:])


def test_infinite_plan():
    plan = build_plan(GrowthTarget.infinite(), n_max=3)
    assert [c.p for c in plan.components] == [2, 5, 31]
    assert all(c.K == 1 for c in plan.components)
    for c in plan.components:
        assert c.p > c.n**c.n


def test_strategy_pairing_validation():
    with pytest.raises(ValueError):
        build_plan(GrowthTarget.zero(), "paper", n_max=2)
    with pytest.raises(ValueError):
        build_plan(GrowthTarget.infinite(), "paper", n_max=2)
    with pytest.raises(ValueError):
        build_plan(GrowthTarget.finite(1), "infinite", n_max=2)
    with pytest.raises(ValueError):
        build_plan(GrowthTarget.finite(1), "subexponential", n_max=2)  # missing gamma
    with pytest.raises(ValueError):
        build_plan(GrowthTarget.finite(1), "paper", n_max=2, gamma=Fraction(1, 2))


def test_fixed_count_examples():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    table = count_table(plan)
    assert str(table.factored[5]) == "2^1*3^1*7^3"
    assert int(table.factored[5]) == 2058
    assert table.values[5] == 2058
    assert table.values[4] == 22
    assert table.values[1] == 6


def test_least_count_examples():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    table = count_table(plan)
    assert table.least[1] == 4
    assert table.least[5] == 2058 - 14 - 6 + 2
    assert table.blocks[5] - 1 == 48
    assert table.blocks[1] - 1 == 2


def test_horizon_guard():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    with pytest.raises(ValueError, match="beyond plan horizon"):
        count_table(plan, 7)
    for n_max, limit in ((0, None), (0, 6), (6, 0), (6, 7)):
        with pytest.raises(ValueError):
            count_table(plan, n_max, limit)
    # but any n is fine against an explicit truncation, whose later blocks are trivial
    table = count_table(plan, 60, component_limit=6)
    assert table.values[59] > 0
    assert table.values[:6] == count_table(plan).values
    assert set(table.blocks[6:]) == {1}


def test_half_log_plan_claimed_equals_exact():
    plan = build_plan(GrowthTarget.finite(Fraction(1, 2)), "paper", n_max=4)
    assert [c.K for c in plan.components] == [0, 0, 0, 1]
    table = count_table(plan, 4)
    assert table.blocks[3] - 1 == 4
    assert table.least[3] == 4
    claimed_vs_exact(plan, table)


def test_claimed_vs_exact_report():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    table = count_table(plan)
    rows = claimed_vs_exact(plan, table)
    assert rows[5][1:3] == (48, 2040)
    # n = 1 always differs by exactly one (the zero point)
    assert rows[0][2] - rows[0][1] == 1


def test_claimed_vs_exact_report_reads_inverted_counts():
    plan = build_plan(GrowthTarget.finite(Fraction(3, 2)), "compensated", n_max=24)
    table = count_table(plan)
    claimed_vs_exact(plan, table)
    fixed = CountSequence.fixed(int(f) for f in table.factored)
    assert table.least == least_from_fixed(fixed).values


def test_zero_plan_claimed_vs_exact():
    plan = build_plan(GrowthTarget.zero(), n_max=4)
    rows = claimed_vs_exact(plan, count_table(plan, 4))
    assert rows[0][1] == 0 and rows[0][2] == 1
    assert all(claimed == 0 and exact == 0 for _, claimed, exact, _ in rows[1:])


def test_claimed_vs_exact_reads_the_lcm_of_the_active_divisors():
    # K_2 = K_3 = 1 on the zero plan: L_4 = 0 equals its bound although 2 is
    # active, and L_6 = (3 - 1)(7 - 1) exceeds its bound 0 although K_6 = 0
    plan = _with_exponent(_with_exponent(build_plan(GrowthTarget.zero(), n_max=6), 2, 1), 3, 1)
    table = count_table(plan)
    rows = claimed_vs_exact(plan, table)
    assert [exact for _, _, exact, _ in rows] == [1, 2, 6, 0, 0, 12]
    assert [n for n, claimed, exact, _ in rows if exact != claimed] == [1, 6]
    assert table.discrepancy_count == 2


def test_oracle_matches_closed_forms():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    counts = enumerate_oracle(plan, 6, 60)
    assert counts.points == 113190
    table = count_table(plan, 60, component_limit=6)
    assert counts.fixed.values == table.values
    assert counts.least.values == table.least
    # inversion consistency within the oracle itself
    assert least_from_fixed(counts.fixed).values == counts.least.values
    assert counts.fixed.values[5] == 2058 and counts.least.values[5] == 2040
    assert counts.fixed.values[1] == 6 and counts.least.values[1] == 4


def test_oracle_zero_plan():
    plan = build_plan(GrowthTarget.zero(), n_max=3)
    counts = enumerate_oracle(plan, 3, 3)
    assert counts.points == 1
    assert counts.fixed.values == (1, 1, 1)
    assert counts.least.values == (1, 0, 0)


def test_oracle_agrees_with_orbit_walking():
    # second-level oracle: walk actual orbits of the multiplier action
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=4)
    counts = enumerate_oracle(plan, 4, 12)
    comps = [c for c in plan.components[:4] if c.K > 0]
    import itertools

    sizes = [c.p**c.K for c in comps]
    least_tally = {}
    for point in itertools.product(*(range(s) for s in sizes)):
        state = point
        steps = 0
        while True:
            nxt = []
            for c, coord in zip(comps, state):
                digits = []
                x = coord
                for _ in range(c.K):
                    digits.append(x % c.p)
                    x //= c.p
                digits = [d * c.multiplier % c.p for d in digits]
                packed = 0
                for d in reversed(digits):
                    packed = packed * c.p + d
                nxt.append(packed)
            state = tuple(nxt)
            steps += 1
            if state == point:
                break
        least_tally[steps] = least_tally.get(steps, 0) + 1
    for n in range(1, 13):
        assert counts.least.values[n - 1] == least_tally.get(n, 0)


def test_oracle_budget():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    with pytest.raises(BudgetError):
        enumerate_oracle(plan, 6, 6, max_points=1000)


def test_oracle_counts_eight_components():
    # 7971810 points under the default budget; each block is walked on its own
    plan = build_plan(GrowthTarget.finite(1), "compensated", n_max=8)
    counts = enumerate_oracle(plan, 8, 24)
    assert counts.points == 7971810
    table = count_table(plan, 24, component_limit=8)
    assert counts.fixed.values == table.values
    assert counts.least.values == table.least


@settings(max_examples=40, deadline=None)
@given(
    strategy=st.sampled_from(("paper", "compensated")),
    C=st.fractions(min_value=Fraction(1, 4), max_value=Fraction(11, 10), max_denominator=20),
    N=st.integers(1, 8),
    data=st.data(),
)
def test_count_table_matches_enumeration_at_every_truncation(strategy, C, N, data):
    # enumeration never forms a product of blocks or a Moebius sum, so it is
    # an oracle for the table at each truncation M and past the horizon
    plan = build_plan(GrowthTarget.finite(C), strategy, n_max=N)
    n_max = data.draw(st.integers(1, 3 * N), label="n_max")
    for M in range(1, N + 1):
        counts = enumerate_oracle(plan, M, n_max, max_points=10**30)
        table = count_table(plan, n_max, M)
        assert table.values == counts.fixed.values, M
        assert table.least == counts.least.values, M


@pytest.mark.parametrize("p, multiplier", [(7, 0), (6, 3)])
def test_oracle_rejects_non_unit_multiplier(p, multiplier):
    # at p = 6, 3 * 3 = 3 fixes the vector (3,), but (1,) never returns
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=3)
    bad = plan.components[2]._replace(p=p, multiplier=multiplier)
    plan = plan._replace(components=plan.components[:2] + (bad,))
    with pytest.raises(ValueError, match="not a unit"):
        enumerate_oracle(plan, 3, 3)


def test_oracle_sees_composite_modulus():
    # 4 has order 3 mod 9, so p**K matches, but 4 * 3 = 3 mod 9 fixes the
    # vector 3: enumeration finds 3 fixed vectors where the closed form has 1
    plan = build_plan(GrowthTarget.finite(1), "compensated", n_max=8)
    bad = plan.components[2]._replace(p=9, multiplier=4)
    plan = plan._replace(components=plan.components[:2] + (bad,) + plan.components[3:])
    counts = enumerate_oracle(plan, 3, 6)
    closed = count_table(plan, 6, component_limit=3).values
    assert counts.fixed.values[0] == 6 and closed[0] == 2
    assert counts.fixed.values != closed


def test_deficit_report_compensated():
    plan = build_plan(GrowthTarget.finite(1), "compensated", n_max=64)
    assert deficit_report(plan) == ((), ())  # every n certified, no negative budget
    # envelope: |(1/n) log F_n - C| < log(p_n)/n at certified n
    for n, _, rate in growth_diagnostics(count_table(plan).factored).entries:
        assert abs(mpf_of(rate) - 1) < mp.log(plan.components[n - 1].p) / n


def _mp_exponent(n, C, p, spent):
    """Independent floor in plain mp at 1024 bits, with its distance to an integer."""
    with mp.workprec(1024):
        budget = mp.mpf(C.numerator * n) / C.denominator
        for k_d, p_d in spent:
            budget -= k_d * mp.log(p_d)
        q = budget / mp.log(p)
        return max(0, int(mp.floor(q))), abs(q - mp.nint(q))


@pytest.mark.parametrize("C", [Fraction(9, 10), Fraction(1), Fraction(107, 100)])
def test_exponents_match_independent_mp_floor(C):
    paper = build_plan(GrowthTarget.finite(C), "paper", n_max=300)
    compensated = build_plan(GrowthTarget.finite(C), "compensated", n_max=300)
    for plan in (paper, compensated):
        for comp in plan.components:
            n = comp.n
            spent = []
            if plan is compensated:
                spent = [
                    (plan.components[d - 1].K, plan.components[d - 1].p)
                    for d in divisors(n)
                    if d != n
                ]
            K, distance = _mp_exponent(n, C, comp.p, spent)
            assert comp.K == K, (plan.strategy, n)
            assert distance > mp.mpf(2) ** -900


def test_low_start_precision_escalates_to_the_same_plan(monkeypatch):
    bits_tried = []
    real_floor, real_decide = construction.adaptive_floor, construction.adaptive_decide

    def recording(real):
        def wrapper(callable_, *args, **kwargs):
            def counted(bits):
                bits_tried.append(bits)
                return callable_(bits)

            return real(counted, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(construction, "adaptive_floor", recording(real_floor))
    monkeypatch.setattr(construction, "adaptive_decide", recording(real_decide))
    monkeypatch.setattr(precision, "DEFAULT_PRECISION_BITS", 8)
    target = GrowthTarget.finite(1)
    low = build_plan(target, "compensated", n_max=1000)
    report = deficit_report(low)
    # the safety net ran: some decisions at 8 bits were ambiguous
    assert len(bits_tried) > 3 * 1000 and max(bits_tried) > 8
    assert report == ((), ())
    monkeypatch.undo()
    high = build_plan(target, "compensated", n_max=1000)
    assert [c.K for c in low.components] == [c.K for c in high.components]
    assert report == deficit_report(high)


def _log2_times(k):
    """The spent-log ball of k*log 2, in the form _exponent reads it."""
    return lambda bits: tuple(k * end for end in log_ball(2, bits))


def test_negative_budget_floors_to_zero(monkeypatch):
    # 2 - 10*log 2 < 0: the clamp decides K = 0 outright, at any precision
    assert _exponent(2, Fraction(1), 3, _log2_times(10)) == 0
    assert _exponent(2, Fraction(1), 3, _log2_times(1)) == 1
    monkeypatch.setattr(precision, "DEFAULT_PRECISION_BITS", 8)
    assert _exponent(2, Fraction(1), 3, _log2_times(10)) == 0


def _walked_spent(plan, n, bits):
    """The sum over the proper divisors d of n of K_d*log_ball(p_d, bits), one divisor at a time."""
    lo = hi = 0
    for d in divisors(n)[:-1]:
        comp = plan.components[d - 1]
        p_lo, p_hi = log_ball(comp.p, bits)
        lo, hi = lo + comp.K * p_lo, hi + comp.K * p_hi
    return lo, hi


@pytest.mark.parametrize("target, strategy, gamma, n_max", SMALL_PLANS)
@pytest.mark.parametrize("bits", [8, 140])
def test_sieved_log_balls_equal_the_factored_count_balls(target, strategy, gamma, n_max, bits):
    # the sieve sums K_d*log p_d per divisor, precision per prime: the same integers
    plan = build_plan(target, strategy, n_max=n_max, gamma=gamma)
    table = count_table(plan)
    lows, highs = log_balls(plan, bits)
    assert len(lows) == len(highs) == plan.N
    for n, ball in enumerate(zip(lows, highs), start=1):
        assert ball == _count_log_ball(table.factored[n - 1], bits), n
    # so construct's diagnostics, from those sums, are the ones the counts give
    seeded = growth_diagnostics(table.factored, 3, bits - GUARD_BITS, logs=(lows, highs))
    counted = growth_diagnostics(table.factored, 3, bits - GUARD_BITS)
    for diag in (seeded, counted):
        assert diag.skipped == ()
    assert [(n, lg._log, lg.count) for n, lg, _ in seeded.entries] == [
        (n, lg._log, lg.count) for n, lg, _ in counted.entries
    ]
    assert [n for n, _, _ in seeded.peaks] == [n for n, _, _ in counted.peaks]
    assert [r._log for r in seeded.window] == [r._log for r in counted.window]


@pytest.mark.parametrize("C", [Fraction(1), Fraction(7, 10), Fraction(3)])
def test_sieved_budget_balls_equal_the_divisor_walk(C):
    # build_plan and deficit_report read each spent-log ball from the sieve at
    # the first precision tried and walk the divisors only above it
    plan = build_plan(GrowthTarget.finite(C), "compensated", n_max=150)
    base = precision.DEFAULT_PRECISION_BITS
    held = construction._LogSums(plan.N, base)
    for comp in plan.components:
        held.add(comp, 2 * comp.n)
    for n in range(1, plan.N + 1):
        spent = construction._spent(plan.components, n, held)
        assert (held.lo[n - 1], held.hi[n - 1]) == _walked_spent(plan, n, base)
        for bits in (base, 2 * base):
            assert spent(bits) == _walked_spent(plan, n, bits)


def test_construct_walks_no_divisors_below_an_escalation(monkeypatch):
    # build_plan and deficit_report read every budget at the first precision
    # from the sieve; only an escalated try sums the spent logs divisor by divisor
    tried = []  # the precision of the try running now, last
    walked = []  # that precision, at each divisor walk

    def recording(real):
        def wrapper(callable_):
            def counted(bits):
                tried.append(bits)
                return callable_(bits)

            return real(counted)

        return wrapper

    def spy(n):
        walked.append(tried[-1] if tried else None)
        return divisors(n)

    monkeypatch.setattr(construction, "adaptive_floor", recording(construction.adaptive_floor))
    monkeypatch.setattr(construction, "adaptive_decide", recording(construction.adaptive_decide))
    monkeypatch.setattr(construction, "divisors", spy)
    target = GrowthTarget.finite(1)
    plan = build_plan(target, "compensated", n_max=200)
    assert deficit_report(plan) == ((), ())
    assert len(tried) == 3 * 200 and set(tried) == {precision.DEFAULT_PRECISION_BITS}
    assert walked == []
    # at 8 bits some tries escalate, and those alone walk the divisors
    monkeypatch.setattr(precision, "DEFAULT_PRECISION_BITS", 8)
    tried.clear()
    low = build_plan(target, "compensated", n_max=200)
    assert deficit_report(low) == ((), ())
    assert low == plan
    escalated = [bits for bits in tried if bits > 8]
    assert walked and all(bits > 8 for bits in walked)
    assert len(walked) <= len(escalated)  # a try reuses its budget ball


def _with_exponent(plan, n, K):
    components = list(plan.components)
    components[n - 1] = components[n - 1]._replace(K=K)
    return plan._replace(components=tuple(components))


def test_deficit_report_catches_shifted_exponents():
    plan = build_plan(GrowthTarget.finite(1), "compensated", n_max=64)
    assert deficit_report(plan) == ((), ())
    for n in (1, 4, 5, 37):
        K = plan.components[n - 1].K
        assert K >= 1
        for shifted in (K + 1, K - 1):
            report = deficit_report(_with_exponent(plan, n, shifted))
            assert n in report.unverified, (n, shifted)
            assert all(m >= n for m in report.unverified)


def test_deficit_report_lists_negative_budgets():
    plan = _with_exponent(build_plan(GrowthTarget.finite(1), "compensated", n_max=12), 1, 20)
    report = deficit_report(plan)
    assert report.unverified == (1,)
    assert report.negative_budget == tuple(range(2, 13))


def test_loaded_plan_certifies_with_identical_rows(tmp_path):
    plan = build_plan(GrowthTarget.finite(Fraction(21, 20)), "compensated", n_max=200)
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert loaded == plan
    report = deficit_report(loaded)
    assert not report.unverified
    assert report == deficit_report(plan)


def test_deficit_report_requires_compensated():
    plan = build_plan(GrowthTarget.finite(1), "paper", n_max=4)
    with pytest.raises(ValueError):
        deficit_report(plan)


def test_subexponential_plan():
    gamma = Fraction(1, 2)
    plan = build_plan(GrowthTarget.finite(1), "subexponential", n_max=40, gamma=gamma)
    for c in plan.components:
        assert c.K == math.isqrt(c.n)
    # growth witness: log F_n >= floor(n**gamma) * log(n+1) for n with K_n > 0
    table = count_table(plan)
    for n in range(1, 41):
        k = math.isqrt(n)
        assert table.values[n - 1] >= (n + 1) ** k


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5000),
    gamma=st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12), max_denominator=12),
)
@example(n=8, gamma=Fraction(2, 3))  # 8**(2/3) = 4 exactly
@example(n=27, gamma=Fraction(2, 3))
@example(n=4096, gamma=Fraction(5, 6))  # 2**10
@example(n=4095, gamma=Fraction(5, 6))
@example(n=1, gamma=Fraction(1, 2))
def test_power_floor_matches_the_integer_root(n, gamma):
    assert _power_floor(n, gamma) == floor_root(n**gamma.numerator, gamma.denominator)


def test_subexponential_gamma_with_a_long_numerator():
    # n**9999999 was formed for the root; the logs decide floor(n**gamma)
    gamma = "9999999/10000000"
    plan = build_plan(GrowthTarget.finite(1), "subexponential", n_max=3, gamma=gamma)
    assert [c.K for c in plan.components] == [1, 1, 2]
    assert _power_floor(2**20, Fraction(1, 10**30)) == 1


def test_infinite_plan_rate_certificate():
    plan = build_plan(GrowthTarget.infinite(), n_max=6)
    for c in plan.components:
        assert c.p > c.n**c.n
    table = count_table(plan)
    for n in range(1, 7):
        value = int(table.factored[n - 1])
        assert value == table.values[n - 1]
        assert value >= plan.components[n - 1].p
        assert value < math.inf


def test_infinite_plan_builds_past_rho_range():
    # p_n > n**n: no factorisation of p_n - 1 is needed for the multiplier
    plan = build_plan(GrowthTarget.infinite(), n_max=40)
    assert plan.N == 40
    plan.validate()


def test_orbit_size_divides_least_counts():
    # points of least period n come in orbits of size n
    plans = (
        build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=48),
        build_plan(GrowthTarget.finite(Fraction(3, 2)), "compensated", n_max=48),
        build_plan(GrowthTarget.infinite(), n_max=8),
    )
    for plan in plans:
        for n, exact in enumerate(count_table(plan).least, start=1):
            assert int(exact) % n == 0


def test_fixed_sequence_and_sigma_target():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    table = count_table(plan)
    assert table.values == tuple(int(f) for f in table.factored)
    assert sigma_rate_target(plan, 6) == C_ABOVE_LOG2 * sum(divisors(6)) / 6


def test_rate_at_six_exceeds_target():
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    n, _, rate = growth_diagnostics(count_table(plan).factored).entries[5]
    assert n == 6
    rate = mpf_of(rate)
    assert abs(rate - mp.mpf("1.2715816527323325")) < 1e-12


def test_plan_json_round_trip(tmp_path):
    for target, strategy, gamma in (
        (GrowthTarget.finite(C_ABOVE_LOG2), "paper", None),
        (GrowthTarget.finite(1), "subexponential", Fraction(1, 2)),
        (GrowthTarget.zero(), None, None),
        (GrowthTarget.infinite(), None, None),
    ):
        plan = build_plan(target, strategy, n_max=5, gamma=gamma)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan
        obj = plan_to_json(plan)
        assert all(isinstance(c["p"], str) for c in obj["components"])
        assert plan_from_json(obj) == plan


@pytest.mark.parametrize("target, strategy, gamma, n_max", [
    (GrowthTarget.finite(1), "compensated", None, 1),
    (GrowthTarget.finite(1), "compensated", None, 64),
    (GrowthTarget.finite(1), "compensated", None, 130),
    (GrowthTarget.finite(1), "subexponential", Fraction(1, 2), 65),
    (GrowthTarget.zero(), None, None, 3),
    (GrowthTarget.infinite(), None, None, 4),
])
def test_save_plan_writes_json_dump_bytes(tmp_path, target, strategy, gamma, n_max):
    # the file holds json.dump(plan_to_json(plan), indent=2, sort_keys=True)
    # and a newline, byte for byte
    plan = build_plan(target, strategy, n_max=n_max, gamma=gamma)
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    expected = json.dumps(plan_to_json(plan), indent=2, sort_keys=True) + "\n"
    assert path.read_text(encoding="utf-8") == expected
    # a plan with no components, which plan_from_json accepts, keeps its []
    empty = plan_from_json(dict(plan_to_json(plan), N="0", components=[]))
    save_plan(empty, path)
    assert path.read_text(encoding="utf-8") == (
        json.dumps(plan_to_json(empty), indent=2, sort_keys=True) + "\n"
    )
    assert '"components": []' in path.read_text(encoding="utf-8")


def test_plan_json_accepts_legacy_g_field():
    # plans written before the multiplier search carried a primitive root g
    plan = build_plan(GrowthTarget.finite(C_ABOVE_LOG2), "paper", n_max=6)
    obj = plan_to_json(plan)
    for c, g in zip(obj["components"], (1, 2, 3, 2, 2, 3)):
        c["g"] = str(g)
        c["multiplier"] = str(pow(g, (int(c["p"]) - 1) // int(c["n"]), int(c["p"])))
    legacy = plan_from_json(obj)
    legacy.validate()
    assert [c.multiplier for c in legacy.components] == [1, 2, 2, 2, 4, 3]
    assert [c.K for c in legacy.components] == [c.K for c in plan.components]
    assert "g" not in plan_to_json(legacy)["components"][0]


def test_load_plan_validates(tmp_path):
    obj = plan_to_json(build_plan(GrowthTarget.finite(1), "compensated", n_max=8))
    obj["components"][2]["multiplier"] = "1"
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="order below n at n = 3"):
        load_plan(path)


def test_library_readers_lift_the_int_str_limit():
    # Python's default int<->str limit is 4300 digits; plan and sequence
    # files of long horizons pass it, and library callers have no main to
    # lift it for them
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int<->str digit limit")
    big, text = 10**5000 + 1, "1" + "0" * 4999 + "1"
    obj = plan_to_json(build_plan(GrowthTarget.finite(1), "compensated", n_max=4))
    obj["components"][2]["p"] = text
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        plan = plan_from_json(obj)
        written = plan_to_json(plan)
        sequence = read_sequence_csv(io.StringIO("n,value\n1,%s\n" % text))
        out = io.StringIO()
        write_sequence_csv(sequence, out)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    assert plan.components[2].p == big
    assert written["components"][2]["p"] == text
    assert sequence.values == (big,)
    assert out.getvalue() == "n,value\n1,%s\n" % text


def test_plan_json_rejects_misnumbered_components(tmp_path):
    plan = build_plan(GrowthTarget.zero(), n_max=3)
    obj = plan_to_json(plan)
    obj["components"][1]["n"] = "5"
    with pytest.raises(ValueError):
        plan_from_json(obj)
