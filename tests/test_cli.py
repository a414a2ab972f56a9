import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from perigee import cli, construction, numtheory, orbits, precision, toral, zeta
from perigee.cli import main
from perigee.construction import (
    build_plan,
    count_table,
    load_plan,
    plan_from_json,
    plan_to_json,
    save_plan,
)
from perigee.numtheory import BudgetError, FactoredNatural, least_prime_congruent_one
from perigee.precision import PrecisionError, digits_for_bits
from perigee.targets import MAX_TARGET_DIGITS, GrowthTarget


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_rows(out):
    """The CSV table as one dict per row, keyed by header name."""
    lines = [line for line in out.splitlines() if not line.startswith("# ")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def summary_lines(out):
    """The '# key=value' summary lines as a dict."""
    return dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))


def test_construct_csv_row(capsys):
    code, out, _ = run(
        capsys,
        "construct", "--C", "6932/10000", "--strategy", "paper", "--max-n", "6",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,p,K,F_factored,F_log,L_exact,L_claimed,rate"
    row6 = table_rows(out)[5]
    assert [row6[k] for k in ("n", "p", "K", "F_factored")] == ["6", "7", "2", "2^1*3^1*7^3"]
    assert row6["F_log"].startswith("7.62948991")
    assert row6["L_exact"] == "2040"
    assert row6["L_claimed"] == "48"
    assert row6["rate"].startswith("1.27158165")
    assert any(line.startswith("# window_sup=") for line in lines)


def test_construct_zero_target(capsys):
    code, out, _ = run(capsys, "construct", "--target", "zero", "--max-n", "3")
    assert code == 0
    rows = table_rows(out)
    assert len(rows) == 3
    for row in rows:
        assert row["K"] == "0" and row["F_factored"] == "1"
    # every rate is 0, an exact tie, and max_rate_n is the first n reaching it
    summary = summary_lines(out)
    assert summary["max_rate"] == "0.0" and summary["max_rate_n"] == "1"


def test_construct_infinite_target(capsys):
    code, out, _ = run(capsys, "construct", "--target", "infinite", "--max-n", "3")
    assert code == 0
    assert out.splitlines()[3].split(",")[1] == "31"


def test_construct_reports_probable_primes(capsys):
    # p_n > n**n passes DETERMINISTIC_LIMIT (about 3.3e24) from n = 20 on
    code, out, _ = run(capsys, "construct", "--target", "infinite", "--max-n", "22")
    assert code == 0
    assert "# probable_primes=20;21;22" in out.splitlines()
    code, out, _ = run(
        capsys, "construct", "--C", "1", "--strategy", "compensated", "--max-n", "30"
    )
    assert code == 0
    assert "# probable_primes=none" in out.splitlines()


def test_construct_json_mirror(capsys):
    code, out, _ = run(
        capsys,
        "construct", "--C", "1/2", "--strategy", "paper", "--max-n", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "construct"
    assert payload["rows"][3]["K"] == 1
    assert payload["summary"]["strategy"] == "paper"


def test_construct_requires_target(capsys):
    code, _, err = run(capsys, "construct", "--max-n", "3")
    assert code == 2 and "target" in err


def test_construct_rejects_conflicting_targets(capsys):
    code, _, _ = run(capsys, "construct", "--C", "1", "--target", "zero", "--max-n", "2")
    assert code == 2


def test_byte_identical_reruns(capsys):
    args = ("construct", "--C", "6932/10000", "--strategy", "compensated", "--max-n", "8")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_construct_plan_out_and_oracle(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    code, _, _ = run(
        capsys,
        "construct", "--C", "6932/10000", "--strategy", "paper", "--max-n", "6",
        "--plan-out", str(plan_path),
    )
    assert code == 0
    assert load_plan(plan_path).N == 6
    code, out, _ = run(
        capsys,
        "oracle", "--plan", str(plan_path), "--components", "6", "--max-n", "12",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[6].split(",")[:2] == ["6", "2058"]
    assert all(line.endswith("MATCH") for line in lines[1:13])
    assert "# mismatches=0" in lines


def test_construct_rejects_nonpositive_window(capsys, tmp_path, monkeypatch):
    seq_path = tmp_path / "counts.csv"
    for window in ("0", "-1"):
        code, out, err = run(
            capsys,
            "construct", "--C", "1/2", "--strategy", "paper", "--max-n", "4",
            "--window", window, "--sequence-out", str(seq_path),
        )
        assert code == 2 and out == "" and "window length must be positive" in err
    assert list(tmp_path.iterdir()) == []
    # analyze refuses it before it reads, or sandwich-checks, the file
    seq_path.write_text("n,value\n1,1\n2,3\n")

    def read_refused(fh):
        raise AssertionError("analyze read the sequence file")

    monkeypatch.setattr(orbits, "read_sequence_csv", read_refused)
    for window in ("0", "-1"):
        code, out, err = run(capsys, "analyze", "--sequence", str(seq_path), "--window", window)
        assert (code, out, err) == (2, "", "error: window length must be positive\n")


def test_construct_and_analyze_print_the_same_logs(capsys, tmp_path):
    seq_path = tmp_path / "counts.csv"
    code, out, _ = run(
        capsys,
        "construct", "--C", "1/2", "--strategy", "paper", "--max-n", "4",
        "--sequence-out", str(seq_path),
    )
    assert code == 0
    built = table_rows(out)
    code, out, _ = run(capsys, "analyze", "--sequence", str(seq_path))
    assert code == 0
    analyzed = table_rows(out)
    assert [(r["F_log"], r["rate"]) for r in built] == [(r["log"], r["rate"]) for r in analyzed]
    assert built[0]["F_factored"] == "1" and built[0]["F_log"] == "0.0"


def test_construct_rate_is_rounded_from_the_exact_count(capsys):
    # a sum of per-prime logs rounded the last digit up; 2000 bits give ...76992
    code, out, _ = run(
        capsys, "construct", "--C", "1", "--strategy", "compensated", "--max-n", "534"
    )
    assert code == 0
    assert table_rows(out)[533]["rate"] == "0.99731411202689307674781251992734476992"


def test_construct_sequence_out_feeds_zeta(capsys, tmp_path):
    seq_path = tmp_path / "counts.csv"
    code, _, _ = run(
        capsys,
        "construct", "--C", "6932/10000", "--strategy", "paper", "--max-n", "12",
        "--sequence-out", str(seq_path),
    )
    assert code == 0
    assert seq_path.read_text().splitlines()[0] == "n,value"
    code, out, _ = run(capsys, "zeta", "--sequence", str(seq_path), "--max-m", "10")
    assert code == 0
    assert out.splitlines()[1] == "0,1,1"


def test_failed_sequence_write_leaves_no_file(capsys, tmp_path, monkeypatch):
    def write_one_row_then_fail(S, fh):
        fh.write("n,value\n1,%d\n" % S.values[0])
        raise OSError("no space left on device")

    monkeypatch.setattr(orbits, "write_sequence_csv", write_one_row_then_fail)
    seq_path = tmp_path / "counts.csv"
    code, _, err = run(
        capsys,
        "construct", "--C", "6932/10000", "--strategy", "paper", "--max-n", "12",
        "--sequence-out", str(seq_path),
    )
    assert code == 3
    assert "no space left" in err and str(seq_path) in err
    assert list(tmp_path.iterdir()) == []


def test_failed_plan_write_keeps_previous_file(capsys, tmp_path, monkeypatch):
    def fail_midway(plan, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")
        raise OSError("no space left on device")

    plan_path = tmp_path / "plan.json"
    plan_path.write_text("previous\n")
    monkeypatch.setattr(construction, "save_plan", fail_midway)
    code, _, err = run(
        capsys,
        "construct", "--C", "6932/10000", "--strategy", "paper", "--max-n", "6",
        "--plan-out", str(plan_path),
    )
    assert code == 3
    assert str(plan_path) in err
    assert plan_path.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [plan_path]


def test_plan_and_sequence_out_must_differ(capsys, tmp_path, monkeypatch):
    # both files are open at once, and one path would give them one temporary
    # file, so the same path twice is refused before anything is built
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "construct", "--C", "1", "--max-n", "6",
        "--plan-out", "out.json", "--sequence-out", str(tmp_path / "out.json"),
    )
    assert (code, out) == (2, "")
    assert err == "error: --plan-out and --sequence-out must name different files\n"
    assert list(tmp_path.iterdir()) == []


def test_late_failure_keeps_both_previous_files(capsys, tmp_path, monkeypatch):
    # the plan and the counts are written to their temporary files before the
    # deficits are certified; a failure there moves neither into place
    plan_path, seq_path = tmp_path / "plan.json", tmp_path / "counts.csv"
    plan_path.write_bytes(b"previous plan\n")
    seq_path.write_bytes(b"previous counts\n")
    written = []
    real_save, real_write = construction.save_plan, orbits.write_sequence_csv

    def save_plan_recorded(plan, path):
        written.append(path)
        real_save(plan, path)

    def write_sequence_recorded(S, fh):
        written.append(fh.name)
        real_write(S, fh)

    monkeypatch.setattr(construction, "save_plan", save_plan_recorded)
    monkeypatch.setattr(orbits, "write_sequence_csv", write_sequence_recorded)
    monkeypatch.setattr(construction, "deficit_report", failing(PrecisionError))
    code, out, err = run(
        capsys,
        "construct", "--C", "1", "--strategy", "compensated", "--max-n", "12",
        "--plan-out", str(plan_path), "--sequence-out", str(seq_path),
    )
    assert (code, out) == (3, "")
    assert "failed before the first row" in err
    assert [os.path.basename(path) for path in written] == [
        ".plan.json.%d.tmp" % os.getpid(), ".counts.csv.%d.tmp" % os.getpid(),
    ]
    assert plan_path.read_bytes() == b"previous plan\n"
    assert seq_path.read_bytes() == b"previous counts\n"
    assert sorted(tmp_path.iterdir()) == [seq_path, plan_path]


def test_oracle_mismatch_exit_code(capsys, tmp_path, monkeypatch):
    plan = build_plan(GrowthTarget.finite("6932/10000"), "paper", n_max=3)
    obj = plan_to_json(plan)
    # corrupt the order of one multiplier: closed forms and enumeration split.
    # load_plan would reject the plan, so read it unvalidated to reach the oracle.
    obj["components"][2]["multiplier"] = "1"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(obj))
    monkeypatch.setattr(construction, "load_plan", lambda path: plan_from_json(obj))
    code, out, _ = run(capsys, "oracle", "--plan", str(bad_path), "--max-n", "3")
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize("corrupt, message", [
    (lambda obj: obj.update(components=None), "plan components must be a list"),
    (lambda obj: [obj], "plan file must be an object"),
    (lambda obj: obj.update(target=5), "plan target must be an object"),
    (lambda obj: obj["components"][0].update(K=1.5), "plan K must be a decimal string, not 1.5"),
    (lambda obj: obj["components"][0].update(K=True), "plan K must be a decimal string, not True"),
    (lambda obj: obj.update(strategy="subexponential", gamma="1/0"), "cannot parse gamma '1/0'"),
    (lambda obj: obj["target"].update(value="1/0"), "bad growth-target value '1/0'"),
    (lambda obj: obj.update(strategy="subexponential", gamma="3/2"),
     "subexponential strategy needs gamma in (0, 1)"),
    (lambda obj: obj.update(strategy="subexponential"),
     "subexponential strategy needs gamma in (0, 1)"),
    (lambda obj: obj.update(gamma="1/2"), "gamma only applies to the subexponential strategy"),
])
def test_oracle_reads_only_the_plan_shapes_save_plan_writes(capsys, tmp_path, corrupt, message):
    # each used to end in a traceback (exit 1) or, for K and the last three
    # gammas, which plan_to_json never writes, load and exit 0
    obj = plan_to_json(build_plan(GrowthTarget.finite(1), "compensated", n_max=4))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(corrupt(obj) or obj))
    code, out, err = run(capsys, "oracle", "--plan", str(path))
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_oracle_catches_composite_modulus(capsys, tmp_path):
    # load_plan validates: a modulus that is not prime is rejected by name
    # before any row is printed (the oracle itself catches p = 9, see
    # test_oracle_sees_composite_modulus)
    obj = plan_to_json(build_plan(GrowthTarget.finite(1), "compensated", n_max=8))
    bad_path = tmp_path / "composite.json"
    for p in ("9", "1", "0", "-3"):
        obj["components"][2].update(p=p, multiplier="4")
        bad_path.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "oracle", "--plan", str(bad_path), "--components", "3", "--max-n", "6"
        )
        assert code == 2 and out == ""
        assert "p = %s at n = 3 is not prime" % p in err


def test_oracle_budget_exit_code(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    save_plan(build_plan(GrowthTarget.finite("6932/10000"), "paper", n_max=6), plan_path)
    code, _, err = run(
        capsys,
        "oracle", "--plan", str(plan_path), "--max-points", "10",
    )
    assert code == 3 and "budget" in err.lower()


def test_oracle_rejects_a_budget_below_one_point(capsys, tmp_path):
    # even the trivial group has a point, so no budget below 1 can be kept
    for C, strategy in (("6932/10000", "paper"), ("1", "compensated")):
        plan_path = tmp_path / ("%s.json" % strategy)
        save_plan(build_plan(GrowthTarget.finite(C), strategy, n_max=6), plan_path)
        for budget in ("0", "-5"):
            code, out, err = run(
                capsys, "oracle", "--plan", str(plan_path), "--max-points", budget
            )
            assert (code, out) == (2, ""), (strategy, budget)
            assert err == "error: max_points must be positive\n"
    zero_path = tmp_path / "zero.json"
    save_plan(build_plan(GrowthTarget.zero(), n_max=3), zero_path)
    code, out, _ = run(capsys, "oracle", "--plan", str(zero_path), "--max-points", "0")
    assert (code, out) == (2, "")


def test_lehmer_table(capsys):
    code, out, _ = run(capsys, "lehmer", "--poly", "-2,1", "--max-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(",")[1] for line in lines[1:5]] == ["1", "3", "7", "15"]
    mahler = next(line for line in lines if line.startswith("# mahler="))
    assert mahler.split("=")[1].startswith("0.6931471805599453")


def test_lehmer_golden(capsys):
    code, out, _ = run(capsys, "lehmer", "--poly", "-1,-1,1", "--max-n", "5")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:6]] == ["1", "1", "4", "5", "11"]


LEHMER10 = "1,1,0,-1,-1,-1,-1,-1,0,1,1"
DEGREE30 = "3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6,2,6,4,3,3,8,3,2,7,1"


def test_lehmer_stdout_is_pinned(capsys):
    # stdout of the Bareiss determinant route (the first three from repeated
    # companion-matrix products, the degree-30 one from the x^n mod f
    # window); the subresultant on x^n mod f - 1 must reproduce it byte for byte.
    # Since the Mahler measure is an integer ball, mahler_error_bound is the
    # ball's radius rounded up and gap_at_max_n is certified: those two lines
    # changed, and every other line is the mpmath route's, byte for byte.
    golden = {
        (LEHMER10, "300", "csv", "128"):
        "f864a467a57a879ec4d29a107756bd58727cf0ad66834abb85d67a7806c28448",
        (LEHMER10, "300", "json", "8"):
        "52926ebc9aad27d408c1a06f67f7feea4a03acf20b836c5511689f8a028f7151",
        ("-2,1", "200", "csv", "128"):
        "db144f5c7ecac36760dec9dafd3c72a6819e1e86e08cc073b79742c458baa0b0",
        (DEGREE30, "60", "csv", "128"):
        "18fbd9d96058e8c6c1016d50d542085a0072f587d49362aab30805eebd999ec5",
    }
    for (poly, max_n, fmt, bits), digest in golden.items():
        code, out, _ = run(
            capsys,
            "lehmer", "--poly", poly, "--max-n", max_n, "--precision-bits", bits,
            "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (poly, fmt)


def test_lehmer_mahler_lines_are_pinned(capsys):
    # the mahler and entropy lines of the mpmath route, verbatim, for the
    # pinned inputs above and the bench's Lehmer input
    lehmer10 = ("0.16235761200773813943219880355496580771", "0.16")
    golden = {
        (LEHMER10, "300", "128"): lehmer10[0],
        (LEHMER10, "300", "8"): lehmer10[1],
        ("-2,1", "200", "128"): "0.69314718055994530941723212145817656808",
        (DEGREE30, "60", "128"): "2.6091341993576047413581184425270106765",
        (LEHMER10, "1000", "128"): lehmer10[0],
    }
    for (poly, max_n, bits), mahler in golden.items():
        code, out, _ = run(
            capsys, "lehmer", "--poly", poly, "--max-n", max_n, "--precision-bits", bits
        )
        assert code == 0
        summary = summary_lines(out)
        assert (summary["mahler"], summary["entropy"]) == (mahler, mahler), (poly, max_n)


def test_lehmer_gap_is_certified(capsys):
    # for x - 2 the gap is log 2 - log(2^n - 1)/n; the mpf difference printed
    # 0.0 at n = 300 and went wrong after 13 digits at n = 60
    for max_n, printed in (
        ("300", "1.636364488432575517698590651662091881e-93"),
        ("60", "1.4456028966473392459702007215984756198e-20"),
    ):
        code, out, _ = run(capsys, "lehmer", "--poly", "-2,1", "--max-n", max_n)
        assert code == 0
        n = int(max_n)
        with mp.workdps(400):
            assert mp.nstr(mp.log(2) - mp.log(2**n - 1) / n, 38) == printed
        assert summary_lines(out)["gap_at_max_n"] == printed


def test_lehmer_gap_and_entropy(capsys):
    # at n = 1, delta_1 = 1 has rate 0, so the gap is the whole measure log 2
    code, out, _ = run(capsys, "lehmer", "--poly", "-2,1", "--max-n", "1")
    assert code == 0
    summary = summary_lines(out)
    assert summary["gap_at_max_n"] == summary["mahler"] == summary["entropy"]
    assert summary["mahler"].startswith("0.6931471805599453")
    code, out, _ = run(capsys, "lehmer", "--poly", "-2,1", "--max-n", "100")
    assert code == 0
    assert float(summary_lines(out)["gap_at_max_n"]) < 1e-3


def test_lehmer_degenerate_exit_code(capsys):
    code, _, err = run(capsys, "lehmer", "--poly", "1,0,1", "--max-n", "3")
    assert code == 4 and "cyclotomic index 4" in err
    code, _, err = run(capsys, "lehmer", "--poly", "-1,1", "--max-n", "10")
    assert code == 4 and "cyclotomic index 1" in err
    # (x - 1)(x + 10^400): its roots do not certify in floats, so the exact
    # scan runs before the precision error
    poly = "%d,%d,1" % (-10**400, 10**400 - 1)
    code, out, err = run(capsys, "lehmer", "--poly", poly, "--max-n", "3")
    assert (code, out) == (4, "") and "cyclotomic index 1" in err


def test_lehmer_forms_no_rational_polynomial(capsys):
    # the square-free parts split on the integer remainder sequence, so
    # lehmer on a double root, as on a square-free polynomial, forms a
    # Fraction only to read a float start exactly, never a coefficient
    toral._enclose.cache_clear()
    with mock.patch.object(toral, "Fraction", wraps=toral.Fraction) as fraction, \
            mock.patch.object(toral, "_square_free_parts", wraps=toral._square_free_parts) as parts:
        for poly in ("1,2,-1,-2,1", LEHMER10):
            code, _, _ = run(capsys, "lehmer", "--poly", poly, "--max-n", "8")
            assert code == 0
    assert {call.args[0] for call in parts.call_args_list} == {
        (1, 2, -1, -2, 1), (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)}
    assert fraction.called and all(type(call.args[0]) is float for call in fraction.call_args_list)


def test_lehmer_rejects_nonpositive_max_n(capsys):
    for max_n in ("0", "-3"):
        code, out, err = run(capsys, "lehmer", "--poly", "-2,1", "--max-n", max_n)
        assert code == 2 and out == "" and "n_max must be positive" in err


def test_primes_rejects_nonpositive_max_n(capsys):
    for max_n in ("0", "-2"):
        code, out, err = run(capsys, "primes", "--max-n", max_n)
        assert code == 2 and out == "" and "n_max must be positive" in err


def test_zeta_command(capsys, tmp_path):
    seq = tmp_path / "seq.csv"
    rows = ["n,value"] + ["%d,%d" % (n, 2**n - 1) for n in range(1, 33)]
    seq.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "zeta", "--sequence", str(seq), "--max-m", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "0,1,1"
    assert lines[3] == "2,2,1"
    probe_line = next(line for line in lines if line.startswith("# probe="))
    probe = json.loads(probe_line.split("=", 1)[1])
    assert probe["verdict"] == "consistent-with-rational"
    assert probe["num_coeffs"] == ["1", "-1"]
    assert probe["den_coeffs"] == ["1", "-2"]


def test_zeta_json(capsys, tmp_path):
    seq = tmp_path / "seq.csv"
    rows = ["n,value"] + ["%d,1" % n for n in range(1, 13)]
    seq.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "zeta", "--sequence", str(seq), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["probe"]["verdict"] == "consistent-with-rational"


def test_zeta_missing_input_is_a_config_error(capsys, tmp_path):
    code, _, err = run(capsys, "zeta", "--sequence", str(tmp_path / "missing.csv"))
    assert code == 2 and "missing.csv" in err


def test_zeta_rejects_a_negative_order(capsys, tmp_path):
    seq = tmp_path / "seq.csv"
    seq.write_text("n,value\n" + "".join("%d,1\n" % n for n in range(1, 13)))
    code, out, err = run(capsys, "zeta", "--sequence", str(seq), "--max-m", "-3")
    assert code == 2 and out == ""
    assert err == "error: truncation order must be nonnegative\n"


def test_analyze_command(capsys, tmp_path):
    seq = tmp_path / "seq.csv"
    rows = ["n,value"] + ["%d,%d" % (n, 2**n - 1) for n in range(1, 21)]
    seq.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "analyze", "--sequence", str(seq), "--window", "5")
    assert code == 0
    assert "# sandwich_ok=True" in out.splitlines()
    assert "# skipped=none" in out.splitlines()


def test_analyze_reads_values_beyond_int_str_limit(capsys, tmp_path):
    # F_2 = 10**5000 + 1 has 5001 digits, above Python's default 4300-digit
    # int<->str limit, which main must lift for parsing and for output
    seq = tmp_path / "seq.csv"
    big = "1" + "0" * 4999 + "1"
    seq.write_text("n,value\n1,1\n2,%s\n" % big)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "analyze", "--sequence", str(seq), "--window", "2")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert code == 0, err
    assert table_rows(out)[1]["value"] == big


def test_analyze_clamps_window_to_the_rows(capsys, tmp_path):
    # construct prints window_len=N for the same counts, so analyze must too
    seq = tmp_path / "seq.csv"
    seq.write_text("n,value\n1,1\n2,3\n3,7\n")
    code, out, _ = run(capsys, "analyze", "--sequence", str(seq), "--window", "50")
    assert code == 0
    assert "# window_len=3" in out.splitlines()
    assert "# window_inf=0.0" in out.splitlines()


def test_analyze_bad_file_exit_code(capsys, tmp_path):
    seq = tmp_path / "seq.csv"
    seq.write_text("n,value\n1,5\n3,6\n")
    code, _, err = run(capsys, "analyze", "--sequence", str(seq))
    assert code == 2 and "gaps" in err


def test_primes_command(capsys):
    code, out, _ = run(capsys, "primes", "--max-n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split(",")[:2] == ["1", "2"]
    assert lines[6].split(",")[:2] == ["6", "7"]
    assert any(line.startswith("# max_ratio=0.0662") for line in lines)
    assert "# max_ratio_n=2" in lines


def test_primes_ratio_matches_a_decimal_oracle(capsys):
    # p / n**5.5 = sqrt(p**2 / n**11) in decimal at three times the printed
    # digits, rounded half up; independent of the exact-floor printer
    p_at = {n: least_prime_congruent_one(n) for n in range(1, 2001)}
    for bits in (128, 8):
        code, out, _ = run(capsys, "primes", "--max-n", "2000", "--precision-bits", str(bits))
        assert code == 0
        dps = digits_for_bits(bits)
        wide = Context(prec=3 * dps + 20)
        rounded = Context(prec=dps, rounding=ROUND_HALF_UP)
        ratios = {}
        for row in table_rows(out):
            n, p = int(row["n"]), int(row["p"])
            assert p == p_at[n]
            ratio = wide.sqrt(wide.divide(Decimal(p * p), Decimal(n**11)))
            assert Decimal(row["ratio"]) == rounded.plus(ratio), (bits, n)
            ratios[n] = ratio
        worst_n = max(range(2, 2001), key=lambda n: (ratios[n], -n))
        assert "# max_ratio_n=%d" % worst_n in out.splitlines()


def test_primes_output_is_pinned(capsys):
    # stdout of the mpmath-based primes command, which printed p / n**5.5 at
    # bits + 12 through mp.nstr; the exact printer must reproduce it byte for byte
    golden = {
        ("csv", "128"): "0a6410ab1107cc56cdd6d9f02b600feeba821c65b5412c66150c26033f821078",
        ("json", "8"): "cec3b632ca3776de194ac677f8a0489154aadcdfe628a51e90a171b1a7ce3f15",
    }
    for (fmt, bits), digest in golden.items():
        code, out, _ = run(
            capsys, "primes", "--max-n", "2000", "--precision-bits", bits, "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (fmt, bits)


def test_exact_commands_never_import_mpmath(capsys, tmp_path):
    # primes, zeta and oracle print only exact integers and rationals, and
    # construct, analyze and lehmer print logs, rates and Mahler measures
    # from integer balls, so every command runs with mpmath unimportable:
    # lehmer on (x^2 - x - 1)^2 starts each square-free part from floats, and
    # a coefficient beyond float range exits 3
    plan, seq = tmp_path / "plan.json", tmp_path / "seq.csv"
    commands = [
        ["construct", "--C", "1", "--strategy", "compensated", "--max-n", "12",
         "--plan-out", str(plan), "--sequence-out", str(seq)],
        ["construct", "--target", "zero", "--max-n", "12"],
        ["construct", "--C", "6932/10000", "--strategy", "paper", "--max-n", "12"],
        ["construct", "--C", "1", "--strategy", "subexponential", "--gamma", "1/2",
         "--max-n", "12"],
        ["construct", "--target", "infinite", "--max-n", "8"],
        ["analyze", "--sequence", str(seq)],
        ["primes", "--max-n", "300"],
        ["zeta", "--sequence", str(seq)],
        ["oracle", "--plan", str(plan), "--components", "3", "--max-n", "6"],
        ["lehmer", "--poly", LEHMER10, "--max-n", "50"],
        ["lehmer", "--poly", "-2,1", "--max-n", "300"],
        ["lehmer", "--poly", DEGREE30, "--max-n", "20"],
        ["lehmer", "--poly", "1,2,-1,-2,1", "--max-n", "8"],
        ["lehmer", "--poly", "%d,0,1" % (10**309 + 1), "--max-n", "3"],
        ["lehmer", "--poly", "%d,0,0,1" % 10**350, "--max-n", "3"],
    ]
    done = run_fresh(
        "import sys\n"
        "class BlockMpmath:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'mpmath':\n"
        "            raise ImportError('mpmath is blocked')\n"
        "sys.meta_path.insert(0, BlockMpmath())\n"
        "from perigee.cli import main\n"
        "codes = [main(argv) for argv in %r]\n"
        "sys.stderr.write('%%s %%s' %% (codes, 'mpmath' in sys.modules))\n" % commands
    )
    assert done.returncode == 0, done.stderr
    budget = "precision budget exceeded: digit still undecided at 17920 bits\n"
    assert done.stderr == 2 * budget + "%s False" % ([0] * 13 + [3, 3])
    assert "# mahler=0.96242365011920689499551782684873684627\n" in done.stdout


def test_cli_import_loads_every_layer_and_no_heavy_module():
    # the bench tracer reads all seven layers from sys.modules right after
    # importing perigee.cli, so each must be registered there, even though
    # the package registers them lazily and none has executed yet; and
    # dataclasses (which pulls in inspect and ast) and mpmath stay unloaded
    layers = ("numtheory", "precision", "construction", "orbits", "toral", "zeta", "cli")
    done = run_fresh(
        "import sys\n"
        "import perigee.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'mpmath') if m in sys.modules))\n"
        "print(sorted(m for m in %r if 'perigee.' + m not in sys.modules))\n" % (layers,)
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


LAYERS = ("numtheory", "precision", "orbits", "targets", "construction", "toral", "zeta")


def executed_layers(argv):
    """The layers (and json) that one command executes in a fresh interpreter.

    A module's body sets __builtins__ in its namespace, and the namespace is
    read through object.__getattribute__, which runs no lazy module's body.
    """
    done = run_fresh(
        "import sys\n"
        "from perigee.cli import main\n"
        "code = main(%r)\n"
        "def executed(name):\n"
        "    module = sys.modules.get(name)\n"
        "    return module is not None and "
        "'__builtins__' in object.__getattribute__(module, '__dict__')\n"
        "names = %r\n"
        "sys.stderr.write(' '.join(name for name in names if executed(name)))\n"
        "sys.exit(code)\n" % (argv, ["perigee." + layer for layer in LAYERS] + ["json"])
    )
    assert done.returncode == 0, done.stderr
    return [name.rpartition(".")[2] for name in done.stderr.split()]


def test_each_command_executes_only_the_layers_it_runs(tmp_path):
    plan, seq = str(tmp_path / "plan.json"), str(tmp_path / "seq.csv")
    argvs = {  # in this order: construct writes the files the others read
        "construct": ["construct", "--C", "1", "--strategy", "compensated", "--max-n", "12",
                      "--plan-out", plan, "--sequence-out", seq],
        "construct without a plan file": ["construct", "--C", "1", "--max-n", "12",
                                          "--sequence-out", seq],
        "oracle": ["oracle", "--plan", plan, "--components", "2", "--max-n", "4"],
        "lehmer": ["lehmer", "--poly", "-1,-1,1", "--max-n", "4"],
        "zeta": ["zeta", "--sequence", seq],
        "analyze": ["analyze", "--sequence", seq],
        "primes": ["primes", "--max-n", "3"],
    }
    planning = ["numtheory", "precision", "orbits", "targets", "construction", "json"]
    assert {command: executed_layers(argv) for command, argv in argvs.items()} == {
        "construct": planning,
        "construct without a plan file": planning[:-1],  # only plan files read json
        "oracle": planning,
        "lehmer": ["numtheory", "precision", "orbits", "toral"],
        "zeta": ["numtheory", "precision", "orbits", "zeta", "json"],
        "analyze": ["numtheory", "precision", "orbits"],
        "primes": ["numtheory", "precision"],
    }


def test_python_dash_m_and_the_console_script_run_the_cli():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    )
    module, _, func = project["project"]["scripts"]["perigee"].partition(":")
    argv = ["primes", "--max-n", "3"]
    by_module = run_python("-m", "perigee", *argv)
    # what the generated console script does: import the entry point and exit with it
    by_script = run_fresh(
        "import sys\nfrom %s import %s\nsys.argv[1:] = %r\nsys.exit(%s())\n"
        % (module, func, argv, func)
    )
    for done in (by_module, by_script):
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[:2] == ["n,p,ratio", "1,2,2.0"]
    assert by_module.stdout == by_script.stdout


def test_parse_time_constants_are_constructions():
    # cli keeps copies so that building its parser executes no construction
    parser = cli.build_parser()
    assert parser.parse_args(["oracle", "--plan", "p.json"]).max_points == (
        construction.DEFAULT_ENUMERATION_BUDGET
    )
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    strategy = next(a for a in sub.choices["construct"]._actions if a.dest == "strategy")
    assert strategy.choices == (
        construction.STRATEGY_PAPER,
        construction.STRATEGY_COMPENSATED,
        construction.STRATEGY_SUBEXPONENTIAL,
    )


def run_fresh(script):
    """Run a Python script in a fresh interpreter that imports this checkout's perigee."""
    return run_python("-c", script)


def run_python(*argv):
    """Run a fresh interpreter with argv, importing this checkout's perigee."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_construct_stdout_is_pinned(capsys, tmp_path):
    # stdout of the mpmath route, which printed mp.nstr of mp.log at bits + 12;
    # the certified balls must reproduce it byte for byte.  The C = 1 run's
    # plan and sequence files are pinned too, as the int route wrote them.
    golden = {
        ("1", "compensated", "128"):
        "1f2129f21e7b394942d0b8f4bc8a90767eccae82b9bb496480d2337753bc8991",
        ("6932/10000", "paper", "8"):
        "89ac44d9166a55bfe16d4f7987b979d290560bfea71cb410e069a05aa0519f41",
    }
    plan_path, seq_path = tmp_path / "plan.json", tmp_path / "counts.csv"
    for (C, strategy, bits), digest in golden.items():
        files = ["--plan-out", str(plan_path), "--sequence-out", str(seq_path)] if C == "1" else []
        code, out, _ = run(
            capsys,
            "construct", "--C", C, "--strategy", strategy, "--max-n", "3000",
            "--precision-bits", bits, *files,
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (C, strategy)
    assert sha256_of(plan_path) == (
        "3aa6d111d95680af3dfda7921fe12fde090f5e86a7b6bb4338e35acadcada4db"
    )
    assert sha256_of(seq_path) == (
        "1f2977978ceaa8be0d9b6d279fa895a11907d8b7129cfc8378390dffc9948706"
    )


def test_oracle_stdout_is_pinned(capsys, tmp_path):
    # the README's 113190-point run, with n past the plan horizon, as the
    # oracle printed it when its closed forms came from ints
    golden = {
        "csv": "5e6e72f13e24b72811593fd165b64dcefb8a134c97bd7a9b21875004117593ad",
        "json": "fe9c18d28af02e05c8aabefe1fb87867a6c8280dc51218f18d4d06a93c0723f2",
    }
    plan_path = tmp_path / "plan.json"
    save_plan(build_plan(GrowthTarget.finite("6932/10000"), "paper", n_max=6), plan_path)
    for fmt, digest in golden.items():
        code, out, _ = run(
            capsys,
            "oracle", "--plan", str(plan_path), "--components", "6", "--max-n", "60",
            "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, fmt


def test_zeta_stdout_is_pinned(capsys, tmp_path):
    # stdout as the probe printed it when Gaussian elimination decided the
    # certificate: a certified series (the compensated C = 1 counts at the
    # default --max-m) and one that Berlekamp-Massey finds rational (Lucas).
    golden = {
        ("compensated", "csv"):
        "3eb5ac772981d0f715b92375ddb5d3da922aed3ff4a67b83e13912480bab2352",
        ("compensated", "json"):
        "d3d4881039e79e99feb168c218c8e147d802eb5eddbefe08f49ba7a4bcd5d297",
        ("lucas", "csv"):
        "b1cd4c5239dbc5dee4e952d8e7bd9564383d1af29d377e6c733018b34104a32c",
        ("lucas", "json"):
        "54c411da2561b2e340fc85269ca597956305ff4f94b39a6f45213a8b75bde189",
    }
    compensated, lucas = tmp_path / "compensated.csv", tmp_path / "lucas.csv"
    code, _, _ = run(
        capsys,
        "construct", "--C", "1", "--strategy", "compensated", "--max-n", "256",
        "--sequence-out", str(compensated),
    )
    assert code == 0
    values = [1, 3]
    while len(values) < 40:
        values.append(values[-1] + values[-2])
    lucas.write_text("n,value\n" + "".join("%d,%d\n" % (n, v) for n, v in enumerate(values, 1)))
    for (name, fmt), digest in golden.items():
        path = compensated if name == "compensated" else lucas
        code, out, _ = run(capsys, "zeta", "--sequence", str(path), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (name, fmt)


CONSTRUCT_TARGETS = {
    "paper": (["--C", "6932/10000", "--strategy", "paper"], "6932/10000", "paper", None),
    "compensated": (["--C", "1", "--strategy", "compensated"], "1", "compensated", None),
    "subexponential": (
        ["--C", "21/20", "--strategy", "subexponential", "--gamma", "1/2"],
        "21/20", "subexponential", "1/2",
    ),
    "infinite": (["--target", "infinite"], "infinite", None, None),
    "zero": (["--target", "zero"], "zero", None, None),
}


def reference_construct(name, N, window, bits, fmt):
    """construct's stdout rebuilt from ints: F_n as the int of the FactoredNatural of
    exponents summed over the divisors, L_n by orbits.least_from_fixed, logs
    and rates by growth_diagnostics on the ints; the maximum, the window's
    ends and the largest |gap| decided by min() and max()."""
    _, text, strategy, gamma = CONSTRUCT_TARGETS[name]
    target = GrowthTarget.parse(text)
    plan = build_plan(target, strategy, n_max=N, gamma=gamma)
    factored = []
    for n in range(1, N + 1):
        exponents = Counter()
        for d in numtheory.divisors(n):
            exponents[plan.components[d - 1].p] += plan.components[d - 1].K
        factored.append(FactoredNatural.from_pairs(exponents.items()))
    fixed = orbits.CountSequence.fixed(int(f) for f in factored)
    least = orbits.least_from_fixed(fixed).values
    diagnostics = orbits.growth_diagnostics(fixed, window_len=window, precision_bits=bits)
    entries = list(diagnostics.entries)
    last_rates = [rate for _, _, rate in entries[-window:]]
    dps = digits_for_bits(bits)
    claimed = [c.p**c.K - 1 for c in plan.components]
    header = ["n", "p", "K", "F_factored", "F_log", "L_exact", "L_claimed", "rate"]
    rows = [
        [n, c.p, c.K, str(f), lg.decimal(dps), exact, bound, rate.decimal(dps)]
        for c, f, exact, bound, (n, lg, rate) in zip(
            plan.components, factored, least, claimed, entries
        )
    ]
    max_n, _, max_rate = max(entries, key=lambda entry: entry[2])
    probable = [c.n for c in plan.components if c.p >= numtheory.DETERMINISTIC_LIMIT]
    summary = {
        "target": target.describe(),
        "strategy": plan.strategy,
        "window_len": len(last_rates),
        "window_inf": min(last_rates).decimal(dps),
        "window_sup": max(last_rates).decimal(dps),
        "max_rate": max_rate.decimal(dps),
        "max_rate_n": max_n,
        "claimed_vs_exact_discrepancies": sum(a != b for a, b in zip(least, claimed)),
        "probable_primes": ";".join(map(str, probable)) or "none",
    }
    if plan.strategy == "compensated":
        deficits = construction.deficit_report(plan)
        summary["deficit_unverified"] = ";".join(map(str, deficits.unverified)) or "none"
        summary["deficit_negative_budget"] = (
            ";".join(map(str, deficits.negative_budget)) or "none"
        )
    if plan.strategy == "paper":
        gaps = (rate - construction.sigma_rate_target(plan, n) for n, _, rate in entries)
        summary["sigma_rate_max_gap"] = max(max(gap, -gap) for gap in gaps).decimal(dps)
    if fmt == "json":
        payload = {
            "command": "construct",
            "rows": [dict(zip(header, row)) for row in rows],
            "summary": summary,
        }
        return json.dumps(payload, indent=2) + "\n"
    return "".join(
        [",".join(header) + "\n"]
        + [",".join(map(str, row)) + "\n" for row in rows]
        + ["# %s=%s\n" % item for item in summary.items()]
    )


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CONSTRUCT_TARGETS)),
    N=st.integers(1, 40),
    window=st.integers(1, 50),
    bits=st.sampled_from([8, 64, 128]),
)
@example(name="compensated", N=40, window=3, bits=128)  # a window below N
@example(name="paper", N=12, window=50, bits=8)  # a window above N
@example(name="zero", N=5, window=2, bits=128)  # every rate an exact tie
def test_streamed_construct_prints_the_reference_from_ints(name, N, window, bits):
    # construct rebuilds each row's factors, L_n and logs from F, the blocks
    # and one ball per n; it must print what ints formed outside its table
    # print, in both formats.  An infinite plan's primes lie above n**n, so
    # its horizon is kept short.
    if name == "infinite":
        N = min(N, 12)
    argv = ["construct", *CONSTRUCT_TARGETS[name][0], "--max-n", str(N),
            "--window", str(window), "--precision-bits", str(bits)]
    for fmt in ("csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", fmt]) == 0
        assert out.getvalue() == reference_construct(name, N, window, bits, fmt), fmt


def refuse(*args, **kwargs):
    raise AssertionError("an int count was formed")


def out_of_memory(*args, **kwargs):
    raise MemoryError


def test_construct_never_forms_an_int_count(capsys, tmp_path, monkeypatch):
    # construct prints from the decimal table: int() of a FactoredNatural, the
    # int route's product, is never taken, in either format
    seq_path = tmp_path / "counts.csv"
    expected = {}
    for fmt in ("csv", "json"):
        argv = ["construct", "--C", "1", "--strategy", "compensated", "--max-n", "40",
                "--format", fmt, "--sequence-out", str(seq_path)]
        expected[fmt] = run(capsys, *argv)[1]
        with monkeypatch.context() as patched:
            patched.setattr(FactoredNatural, "__int__", refuse)
            code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == expected[fmt]
    # against ints formed outside the table: each factored F_n's own product,
    # and its Moebius inversion by orbits
    rows = json.loads(expected["json"])["rows"]
    plan = build_plan(GrowthTarget.finite(1), "compensated", n_max=40)
    fixed = orbits.CountSequence.fixed(int(f) for f in count_table(plan).factored)
    assert [row["L_exact"] for row in rows] == list(orbits.least_from_fixed(fixed).values)
    assert seq_path.read_text() == "n,value\n" + "".join(
        "%d,%d\n" % (n, value) for n, value in enumerate(fixed.values, start=1)
    )


def test_memory_error_is_a_budget_exit(capsys, tmp_path, monkeypatch):
    # inside the table the message names n; anywhere else it is generic
    seq_path = tmp_path / "counts.csv"
    argv = ["construct", "--C", "1", "--strategy", "compensated", "--max-n", "12",
            "--sequence-out", str(seq_path)]

    real_mobius = construction.mobius

    def mobius_short_of_memory_at_6(n):  # the Moebius sum of L_6 is the first to ask
        return out_of_memory() if n == 6 else real_mobius(n)

    with monkeypatch.context() as patched:
        patched.setattr(construction, "mobius", mobius_short_of_memory_at_6)
        code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and "budget exceeded: F_6 " in err
    with monkeypatch.context() as patched:
        patched.setattr(construction, "build_plan", out_of_memory)
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "budget exceeded: out of memory\n")
    assert list(tmp_path.iterdir()) == []


def failing(error):
    def step(*args, **kwargs):
        raise error("failed before the first row")

    return step


@pytest.mark.parametrize("command, module, step, error", [
    ("primes", numtheory, "least_primes_congruent_one", BudgetError),
    ("analyze", orbits, "growth_diagnostics", PrecisionError),
    ("lehmer", cli, "escalate", PrecisionError),  # the gap, lehmer's last decision
    ("zeta", zeta, "rationality_probe", BudgetError),
    ("oracle", construction, "count_table", BudgetError),
])
def test_a_failure_before_the_first_row_prints_nothing(
    capsys, tmp_path, monkeypatch, command, module, step, error
):
    # every command decides all that can fail before _emit streams its
    # first row, so a failing step leaves stdout empty, as for construct
    seq, plan = tmp_path / "seq.csv", tmp_path / "plan.json"
    seq.write_text("n,value\n" + "".join("%d,%d\n" % (n, 2**n + 1) for n in range(1, 13)))
    save_plan(build_plan(GrowthTarget.finite(1), "compensated", n_max=4), plan)
    argv = {
        "primes": ["--max-n", "50"],
        "analyze": ["--sequence", str(seq)],
        "lehmer": ["--poly", "-1,-1,1", "--max-n", "12"],
        "zeta": ["--sequence", str(seq)],
        "oracle": ["--plan", str(plan), "--max-n", "12"],
    }[command]
    for fmt in ("csv", "json"):
        code, out, _ = run(capsys, command, *argv, "--format", fmt)
        assert code == 0 and out, (command, fmt)
        with monkeypatch.context() as patched:
            patched.setattr(module, step, failing(error))
            code, out, err = run(capsys, command, *argv, "--format", fmt)
        assert (code, out) == (3, ""), (command, fmt)
        assert "failed before the first row" in err


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status"
)
def test_primes_peak_memory_is_its_sieve_and_primes():
    # rows stream to stdout and the sieve holds only odd numbers, so the
    # peak above the imported interpreter is the sieve of 64 * 200000 / 2
    # bytes and the list of 200000 primes, about 14 MB; it was 48 MB when
    # every formatted row was kept and the sieve held every integer
    done = run_fresh(
        "import os, sys\n"
        "import perigee.cli\n"
        "def status(key):\n"
        "    with open('/proc/self/status', encoding='ascii') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith(key))\n"
        "imported = status('VmRSS:')\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    sys.stdout = sink\n"
        "    code = perigee.cli.main(['primes', '--max-n', '200000'])\n"
        "    sys.stdout = sys.__stdout__\n"
        "print(code, status('VmHWM:') - imported)\n"
    )
    assert done.returncode == 0, done.stderr
    code, growth_kb = map(int, done.stdout.split())
    assert code == 0
    assert growth_kb < 20 * 1024


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status"
)
def test_construct_peak_memory_is_its_values_blocks_and_balls(tmp_path):
    # the plan file is written with one json.dump before the table exists,
    # so its dict is freed first; the table holds F_n, the blocks and one log
    # ball per n, and rebuilds F_n's factors, L_n and its logs per row.  The
    # peak above the imported interpreter was about 8 MB when every per-n
    # table was held and the plan's dict was built after it; it is about
    # 5.0 MB now
    done = run_fresh(
        "import os, sys\n"
        "import perigee.cli\n"
        "def status(key):\n"
        "    with open('/proc/self/status', encoding='ascii') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith(key))\n"
        "imported = status('VmRSS:')\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    sys.stdout = sink\n"
        "    code = perigee.cli.main(['construct', '--C', '1', '--strategy', 'compensated',\n"
        "                             '--max-n', '3000', '--plan-out', %r,\n"
        "                             '--sequence-out', %r])\n"
        "    sys.stdout = sys.__stdout__\n"
        "print(code, status('VmHWM:') - imported)\n"
        % (str(tmp_path / "plan.json"), str(tmp_path / "counts.csv"))
    )
    assert done.returncode == 0, done.stderr
    code, growth_kb = map(int, done.stdout.split())
    assert code == 0
    assert growth_kb < 6.5 * 1024
    assert sha256_of(tmp_path / "plan.json") == (
        "3aa6d111d95680af3dfda7921fe12fde090f5e86a7b6bb4338e35acadcada4db"
    )


def test_tiny_paper_target_prints_its_rational_gap(capsys):
    # every K_n is 0, so each rate is 0 and each gap the rational
    # C * sigma(n) / n; two rationals compare exactly, where balls 10**-6000
    # apart left the comparison undecided at MAX_DECISION_BITS (exit 3)
    code, out, err = run(capsys, "construct", "--C", "1e-6000", "--max-n", "3")
    assert code == 0, err
    assert summary_lines(out)["sigma_rate_max_gap"] == "1.5e-6000"
    assert [row["K"] for row in table_rows(out)] == ["0", "0", "0"]


def test_target_at_the_size_limit_runs(capsys):
    # 1e-100000 writes the denominator 10**100000, the largest a target may
    # have, and a plan file may hold it too
    code, out, err = run(capsys, "construct", "--C", "1e-%d" % MAX_TARGET_DIGITS, "--max-n", "3")
    assert code == 0, err
    assert summary_lines(out)["sigma_rate_max_gap"] == "1.5e-100000"
    limit = GrowthTarget.from_json({"kind": "finite", "value": "1e%d" % MAX_TARGET_DIGITS})
    assert limit.value == 10**MAX_TARGET_DIGITS


@pytest.mark.parametrize("text", [
    "1e-100001", "1e-10000000", "2e100000", "1e-%s" % ("9" * 100),
    pytest.param("0.%s1" % ("0" * 100000), id="0.(100000 zeros)1"),
    pytest.param("1/1%s" % ("0" * 100001), id="1/1(100001 zeros)"),
])
def test_target_past_the_size_limit_fails_fast(capsys, tmp_path, text):
    # Fraction('1e-10000000') forms 10**10000000, which took 11.7 s, and
    # construct ran for minutes; the size is decided from the text first, and
    # a plan file's target is held to the same limit
    message = "error: growth target too large: its numerator and denominator may be " \
        "at most 10**100000\n"
    started = time.perf_counter()
    assert run(capsys, "construct", "--C", text, "--max-n", "3") == (2, "", message)
    assert time.perf_counter() - started < 0.5
    obj = plan_to_json(build_plan(GrowthTarget.finite(1), "compensated", n_max=3))
    obj["target"]["value"] = text
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, "oracle", "--plan", str(path)) == (2, "", message)


def test_count_too_large_to_form_fails_fast(tmp_path):
    # K_1 = floor(10**30 / log 2): 2**K_1 has about 4.3e29 digits.  The int
    # route died in FactoredNatural.value with a MemoryError traceback (exit
    # 1); the decimal context overflows at once.  The child's address space
    # is capped, so a regression fails here instead of exhausting the host.
    plan_path, seq_path = tmp_path / "plan.json", tmp_path / "counts.csv"
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from perigee.cli import main\n"
        "sys.exit(main(%r))\n" % [
            "construct", "--C", "1e30", "--max-n", "2",
            "--plan-out", str(plan_path), "--sequence-out", str(seq_path),
        ]
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr == "budget exceeded: F_1 has too many digits to form\n"
    assert list(tmp_path.iterdir()) == []


def test_construct_rate_is_correctly_rounded_at_low_precision(capsys):
    # the mpmath route printed 0.993844067 here: its 44-bit mpf of the rate
    # 0.99384406750001557... lay below the half-way point
    code, out, _ = run(
        capsys,
        "construct", "--C", "1", "--strategy", "compensated", "--max-n", "1500",
        "--precision-bits", "32",
    )
    assert code == 0
    plan = build_plan(GrowthTarget.finite(1), "compensated", n_max=1059)
    with mp.workprec(500):
        reference = mp.log(int(count_table(plan).factored[1058])) / 1059
        expected = mp.nstr(reference, digits_for_bits(32))
    assert expected == "0.993844068"
    assert table_rows(out)[1058]["rate"] == expected


def test_analyze_equal_rates_print_without_escalating(capsys, tmp_path):
    # F_n = 2**n: every rate is exactly log 2, so the window's ends tie; they
    # print from the rates' floors, so no tie needs deciding at all
    seq = tmp_path / "pow2.csv"
    seq.write_text("n,value\n" + "".join("%d,%d\n" % (n, 2**n) for n in range(1, 201)))
    code, out, err = run(capsys, "analyze", "--sequence", str(seq))
    assert code == 0, err
    with mp.workprec(200):
        log2 = mp.nstr(mp.log(2), 38)
    summary = summary_lines(out)
    assert summary["window_inf"] == summary["window_sup"] == log2
    assert {row["rate"] for row in table_rows(out)} == {log2}


def test_analyze_prints_a_window_no_comparison_could_order(capsys, tmp_path, monkeypatch):
    # F_n = 2**n - 1, the doubling map on the circle: the rates at n = 2991..
    # 3000 differ by about 2**-n / n, so ordering two of them takes about n
    # bits.  A decided min and max exited 3 at a MAX_DECISION_BITS of 1024
    # ("comparison still undecided at 1120 bits"); the ends need only the
    # digits they print
    monkeypatch.setattr(precision, "MAX_DECISION_BITS", 1024)
    seq = tmp_path / "doubling.csv"
    seq.write_text("n,value\n" + "".join("%d,%d\n" % (n, 2**n - 1) for n in range(1, 3001)))
    code, out, err = run(capsys, "analyze", "--sequence", str(seq))
    assert code == 0, err
    summary = summary_lines(out)
    assert summary["window_len"] == "10"
    log2 = "0.69314718055994530941723212145817656808"
    assert summary["window_inf"] == summary["window_sup"] == log2


def test_only_constructs_argmax_and_power_floor_compare_log_reals(capsys, tmp_path, monkeypatch):
    # every printed extreme comes from floors: two LogReals are compared only
    # by construct's argmax over the peaks (max_rate_n, ties to the first n)
    # and by the subexponential strategy's floor(n**gamma)
    callers = []
    compare = precision.LogReal._cmp

    def spy(self, other):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == precision.__file__:  # __lt__ and __gt__
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return compare(self, other)

    monkeypatch.setattr(precision.LogReal, "_cmp", spy)
    seq = tmp_path / "seq.csv"
    seq.write_text("n,value\n1,1\n2,4\n3,8\n4,0\n5,31\n6,64\n")
    for argv in (
        ["analyze", "--sequence", str(seq), "--window", "4"],
        ["lehmer", "--poly", "-2,1", "--max-n", "300"],
        ["lehmer", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1", "--max-n", "100"],
    ):
        assert run(capsys, *argv)[0] == 0
    assert callers == []
    by_target = {}
    for name in sorted(CONSTRUCT_TARGETS):
        assert run(capsys, "construct", *CONSTRUCT_TARGETS[name][0], "--max-n", "12")[0] == 0
        by_target[name] = set(callers)
        callers.clear()
    assert by_target["zero"] == {"cmd_construct"}  # every rate is 0, so the peaks tie
    assert "at_most" in by_target["subexponential"]
    assert set().union(*by_target.values()) == {"cmd_construct", "at_most"}


def test_unknown_flag_is_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["primes", "--max-n", "4", "--bogus"])
    assert info.value.code == 2


def test_precision_bits_flag(capsys):
    code, out, _ = run(
        capsys, "lehmer", "--poly", "-2,1", "--max-n", "2", "--precision-bits", "32"
    )
    assert code == 0
    mahler = next(line for line in out.splitlines() if line.startswith("# mahler="))
    digits = len(mahler.split("=")[1].split(".")[1])
    assert digits <= 10  # 32 bits -> 9 significant digits


def test_precision_bits_below_eight_is_a_config_error(capsys, tmp_path):
    # and so is one above the decision ceiling: primes --precision-bits
    # 99999999999999999999 used to run on for good
    seq = tmp_path / "seq.csv"
    seq.write_text("n,value\n1,1\n2,3\n")
    for argv in (
        ["construct", "--C", "1", "--max-n", "2"],
        ["analyze", "--sequence", str(seq)],
        ["lehmer", "--poly", "-2,1", "--max-n", "2"],
        ["primes", "--max-n", "2"],
    ):
        for bits in ("7", "16385", "99999999999999999999"):
            code, out, err = run(capsys, *argv, "--precision-bits", bits)
            assert (code, out) == (2, ""), argv
            assert err == "error: --precision-bits must be at least 8 and at most 16384\n"


def test_max_n_above_maxsize_is_a_config_error(capsys):
    # each used to end in an OverflowError traceback (exit 1) or an islice
    # message
    huge = str(sys.maxsize + 1)
    for argv in (
        ["primes", "--max-n", huge],
        ["construct", "--C", "1", "--max-n", huge],
        ["construct", "--target", "infinite", "--max-n", huge],
        ["lehmer", "--poly", "-1,-1,1", "--max-n", huge],
        ["oracle", "--plan", "unread.json", "--max-n", huge],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --max-n must be at most %d\n" % sys.maxsize)


def test_max_n_whose_sieve_cannot_exist_is_a_budget_error(capsys):
    # the largest --max-n taken, whose sieve of 64 * n_max entries no index
    # can address: this was an OverflowError traceback (exit 1)
    code, out, err = run(capsys, "primes", "--max-n", str(sys.maxsize))
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: a sieve up to ")


def test_exact_commands_take_no_precision_bits(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    code, _, _ = run(
        capsys, "construct", "--C", "1", "--max-n", "8", "--plan-out", str(plan),
        "--sequence-out", str(tmp_path / "seq.csv"),
    )
    assert code == 0
    for argv in (
        ["zeta", "--sequence", str(tmp_path / "seq.csv")],
        ["oracle", "--plan", str(plan), "--components", "3"],
    ):
        assert run(capsys, *argv)[0] == 0, argv
        with pytest.raises(SystemExit) as info:
            main(argv + ["--precision-bits", "128"])
        assert info.value.code == 2
        assert "unrecognized arguments: --precision-bits" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert "--precision-bits" not in capsys.readouterr().out


def test_construct_finite_target_defaults_to_paper(capsys):
    argv = ("construct", "--C", "6932/10000", "--max-n", "300")
    code, default, err = run(capsys, *argv)
    assert code == 0, err
    code, paper, _ = run(capsys, *argv, "--strategy", "paper")
    assert code == 0
    assert default == paper


def test_construct_strategy_is_checked_by_build_plan(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    code, out, err = run(
        capsys, "construct", "--target", "infinite", "--strategy", "paper", "--max-n", "3",
        "--plan-out", str(plan),
    )
    assert code == 2 and out == ""
    assert err == "error: infinite target takes strategy infinite\n"
    assert not plan.exists()
    with pytest.raises(ValueError, match="^infinite target takes strategy infinite$"):
        build_plan(GrowthTarget.infinite(), "paper", n_max=3)


def test_construct_gamma_with_a_zero_denominator_is_a_config_error(capsys):
    # Fraction("1/0") raised ZeroDivisionError, which main did not map (exit 1)
    code, out, err = run(
        capsys, "construct", "--C", "1", "--strategy", "subexponential", "--gamma", "1/0",
        "--max-n", "5",
    )
    assert (code, out, err) == (2, "", "error: cannot parse gamma '1/0'\n")


@pytest.mark.parametrize("c", [10**305 + 1, 2**965 + 1], ids=["10^305+1", "2^965+1"])
def test_lehmer_certifies_a_root_beyond_two_to_the_964(capsys, c):
    # the float start of the root -c was scaled by 2.0**60, which overflowed
    # past 2**964 (OverflowError, exit 1); m(x + c) = log c
    code, out, err = run(capsys, "lehmer", "--poly", "%d,1" % c, "--max-n", "3")
    assert code == 0, err
    with mp.workprec(400):
        expected = mp.nstr(mp.log(c), digits_for_bits(128))
    assert summary_lines(out)["mahler"] == summary_lines(out)["entropy"] == expected
    assert expected in ("702.28845336318393362548739367873108332",
                        "668.88702924034722358762899720714038819")
