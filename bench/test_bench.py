"""Tests of the benchmark itself: seeded inputs, output checks and tracing.

    python3 -m pytest bench -q
"""

import os
import shutil
import sys
import time
from fractions import Fraction

import pytest

import checks
import inputs
import run

sys.path.insert(0, run.SRC)

SMALL_N = 60


@pytest.fixture
def session():
    work = os.path.join(run.WORK_ROOT, "test-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        yield run.Session(work, time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def compensated_op(session, corrupt=lambda out: out):
    work = session.work
    return run.Op(
        "construct",
        ["construct", "--C", "1", "--strategy", "compensated", "--max-n", str(SMALL_N),
         "--plan-out", "plan.json", "--sequence-out", "seq.csv"],
        lambda out: checks.check_compensated(
            corrupt(out), os.path.join(work, "plan.json"), os.path.join(work, "seq.csv"),
            Fraction(1), SMALL_N,
        ),
        outputs=["plan.json", "seq.csv"],
    )


def zeta_op(session, corrupt=lambda out: out, order=32):
    values = inputs.realizable_sequence(7, length=order)
    inputs.write_sequence(os.path.join(session.work, "R.csv"), values)
    from perigee.orbits import CountSequence
    from perigee.zeta import orbit_product_form

    reference = [
        int(c) for c in orbit_product_form(CountSequence.fixed(values), order).coefficients
    ]
    return run.Op(
        "zeta",
        ["zeta", "--sequence", "R.csv", "--max-m", str(order)],
        lambda out: checks.check_zeta_realizable(corrupt(out), reference),
    )


def corrupt_cell(column, row):
    """Change the last digit of one table cell, chosen by header name."""

    def corrupt(out):
        lines = out.decode().split("\n")
        i = lines[0].split(",").index(column)
        cells = lines[row].split(",")
        cells[i] = cells[i][:-1] + str((int(cells[i][-1]) + 1) % 10)
        lines[row] = ",".join(cells)
        return "\n".join(lines).encode()

    return corrupt


# --- seeded inputs ----------------------------------------------------------------


def test_growth_constant_is_seeded_and_in_range():
    assert inputs.growth_constant(inputs.DEFAULT_SEED) == 1
    drawn = [inputs.growth_constant(seed) for seed in range(1, 40)]
    assert drawn == [inputs.growth_constant(seed) for seed in range(1, 40)]
    assert len(set(drawn)) > 20
    for c in drawn:
        assert Fraction(9, 10) <= c <= Fraction(11, 10)
        assert c.denominator <= 100


def test_realizable_sequence_is_seeded_and_realizable():
    a = inputs.realizable_sequence(3, length=80)
    assert a == inputs.realizable_sequence(3, length=80)
    assert a != inputs.realizable_sequence(4, length=80)
    least = checks.least_from_fixed(a)
    for n, ln in enumerate(least, start=1):
        assert ln > 0 and ln % n == 0
        assert 1 <= ln // n <= 2**n


def test_toral_inputs_are_seeded_and_match_their_zeta():
    for seed in range(10):
        m = inputs.toral_matrix(seed)
        assert m == inputs.toral_matrix(seed)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
        assert 3 <= m[0][0] + m[1][1] <= 6
        values = inputs.toral_sequence(m, length=24)
        assert values == inputs.toral_sequence(inputs.toral_matrix(seed), length=24)
        # exp(sum F_n z^n / n) by the exact recurrence m*c_m = sum F_k c_{m-k}
        c = [Fraction(1)]
        for k in range(1, 25):
            c.append(sum(values[j - 1] * c[k - j] for j in range(1, k + 1)) / k)
        assert c == checks.rational_series(*inputs.toral_zeta(m), 24)


def test_sequence_file_is_byte_identical_per_seed(session):
    paths = [os.path.join(session.work, name) for name in ("a.csv", "b.csv")]
    for path in paths:
        inputs.write_sequence(path, inputs.realizable_sequence(5, length=50))
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


# --- output checks -----------------------------------------------------------------


def test_compensated_output_passes_its_check(session):
    result = session.run_op(0, compensated_op(session), trace=False)
    assert result.ok, result.problems
    assert result.probe_s > 0


def test_corrupted_least_count_is_a_failed_op(session):
    op = compensated_op(session, corrupt_cell("L_exact", SMALL_N // 2))
    result = session.run_op(0, op, trace=False)
    assert result.exit == 0
    assert not result.ok
    assert any("L_exact" in p for p in result.problems)


def test_zeta_output_passes_its_check(session):
    result = session.run_op(0, zeta_op(session), trace=False)
    assert result.ok, result.problems


def test_corrupted_zeta_coefficient_is_a_failed_op(session):
    result = session.run_op(0, zeta_op(session, corrupt_cell("numerator", 20)), trace=False)
    assert result.exit == 0
    assert not result.ok
    assert any("numerator" in p for p in result.problems)


def test_failed_exit_is_a_failed_op(session):
    op = run.Op("primes", ["primes", "--max-n", "0x"], lambda out: [])
    result = session.run_op(0, op, trace=False)
    assert result.exit == 2
    assert not result.ok


# --- tracing -------------------------------------------------------------------------


def test_traced_stdout_is_byte_identical(session):
    for op in (compensated_op(session), zeta_op(session)):
        plain = session.run_op(0, op, trace=False)
        traced = session.run_op(0, op, trace=True)
        assert plain.ok and traced.ok
        assert plain.sha256 == traced.sha256
        assert plain.trace is None and traced.trace is not None


def test_traced_counts_repeat_exactly(session):
    op = compensated_op(session)
    first, second = (session.run_op(0, op, trace=True).trace for _ in range(2))
    assert first["calls"] == second["calls"]
    assert first["counters"] == second["counters"]
    calls = first["calls"]
    # Every n runs one floor in build_plan and two decisions in deficit_report.
    assert calls["precision.adaptive_floor"] == SMALL_N
    assert calls["precision.adaptive_decide"] == 2 * SMALL_N
    # Cache hits count: divisors is called far more often than it can miss.
    assert calls["numtheory.divisors"] > 4 * SMALL_N
    assert first["counters"]["max_bits"] == 128
    assert set(first["self"]) <= set(run.LAYERS)
