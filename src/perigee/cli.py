"""Command-line surface: reproducible tables over the library calls.

Every command emits either CSV (a table followed by '# key=value' summary
lines) or the JSON mirror of the same content, and reads its settings from
its own parsed arguments.  Nothing is random and all precision is explicit,
so identical invocations produce byte-identical output.  --precision-bits
exists only on the commands that print reals (construct, analyze, lehmer,
primes): it sets their printed digits and lehmer's Mahler tolerance, never
a decision, since every floor and comparison is exact.

Logs, rates and lehmer's Mahler measure print from certified integer balls
(precision.LogReal, toral.mahler_measure), correctly rounded, and so does
lehmer's gap_at_max_n, from the ball of |rate - m(f)|.  The window's ends and
construct's sigma_rate_max_gap print from the min or max of the rates' exact
decimal floors (precision.extreme_decimal), so no two rates are compared to
print them; only construct's max_rate_n is an argmax.  lehmer's delta_n is
the one integer in a certified ball of the product of a^n - 1 over the roots
a of f (toral.toral_fix_sequence).  Both certify each square-free part of f
from roots started in complex floats, so lehmer exits 3 on a polynomial with
a coefficient beyond float range, or 4 if it vanishes at a root of unity.

Exit codes: 0 ok, 1 oracle mismatch, 2 invalid configuration or parse error
(including a missing or unreadable input file), 3 computation budget exceeded
or an output file that could not be written, 4 degenerate polynomial.
"""

import argparse
import math
import os
import re
import sys
from contextlib import ExitStack, contextmanager
from decimal import Decimal

from . import construction, numtheory, orbits, targets, toral, zeta  # read at call time
from .numtheory import BudgetError
from .precision import (
    DEFAULT_PRECISION_BITS,
    GUARD_BITS,
    MAX_DECISION_BITS,
    PrecisionError,
    ball_digits,
    decimal_from_scaled,
    decimal_up,
    digits_for_bits,
    escalate,
    extreme_decimal,
    unlimited_int_digits,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_DEGENERATE = 4

# construction's STRATEGY_* for a finite target and DEFAULT_ENUMERATION_BUDGET,
# copied so that building the parser executes no construction
STRATEGIES = ("paper", "compensated", "subexponential")
DEFAULT_MAX_POINTS = 10**7


def _emit(args, header, rows, summary, out):
    """Write the table and its summary to out, as CSV or as the JSON mirror.

    rows is consumed once, in order; in CSV each row is written as soon as it
    is built, so a command that passes a generator holds one formatted row at
    a time.  Every decision that can fail, and every summary value, is made
    before _emit is called, so no failure follows the first printed row.
    """
    if args.format == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(v) for v in row) + "\n")
        for key, value in summary.items():
            out.write("# %s=%s\n" % (key, value))
    else:
        import json  # only JSON output reads it

        payload = {
            "command": args.command,
            "rows": [dict(zip(header, row)) for row in rows],
            "summary": summary,
        }
        out.write(json.dumps(payload, indent=2, default=_json_int) + "\n")


def _json_int(value):
    """json's hook for construct's Decimal counts: exact, so written as ints."""
    import json

    return int(value) if isinstance(value, Decimal) else json.JSONEncoder().default(value)


class OutputError(Exception):
    """An output file could not be written: a resource failure, exit 3."""


@contextmanager
def _atomic_output(path):
    """Yield a temporary path beside `path`, moved over `path` on success.

    On any exception the temporary file is removed, so a failed write leaves
    neither a truncated output nor a stray file behind.  An OSError while
    writing or moving is re-raised as OutputError naming `path`.
    """
    directory, name = os.path.split(path)
    temp = os.path.join(directory, ".%s.%d.tmp" % (name, os.getpid()))
    try:
        try:
            yield temp
            os.replace(temp, path)
        except OSError as exc:
            raise OutputError("cannot write %s: %s" % (path, exc)) from exc
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


# --- construct ---------------------------------------------------------------


def _parse_target(args):
    if args.C is not None and args.target is not None:
        raise ValueError("give either --C or --target, not both")
    if args.C is not None:
        target = targets.GrowthTarget.parse(args.C)
        if target.kind != targets.FINITE:
            raise ValueError("--C must be a positive rational; use --target for zero/infinite")
        return target
    if args.target is None:
        raise ValueError("a growth target is required (--C or --target)")
    return targets.GrowthTarget.parse(args.target)


def cmd_construct(args, out):
    target = _parse_target(args)
    if args.plan_out and args.sequence_out and (  # one temporary file would hold both
        os.path.realpath(args.plan_out) == os.path.realpath(args.sequence_out)
    ):
        raise ValueError("--plan-out and --sequence-out must name different files")
    bits = args.precision_bits
    dps = digits_for_bits(bits)
    plan = construction.build_plan(
        target, strategy=args.strategy, n_max=args.max_n, gamma=args.gamma
    )
    # each file is written once its content exists (the plan's before the table,
    # so its dict is gone first) and moved into place after the last decision
    with ExitStack() as outputs:
        if args.plan_out:
            construction.save_plan(plan, outputs.enter_context(_atomic_output(args.plan_out)))
        table = construction.count_table(plan)
        if args.sequence_out:
            path = outputs.enter_context(_atomic_output(args.sequence_out))
            with open(path, "w", encoding="utf-8", newline="") as fh:
                orbits.write_sequence_csv(table, fh)  # its values are the F_n
        # certified first, so its sieve is freed before log_balls builds theirs
        deficits = (construction.deficit_report(plan)
                    if plan.strategy == construction.STRATEGY_COMPENSATED else None)
        diagnostics = orbits.growth_diagnostics(  # it keeps log_balls' lists as its balls
            table.factored, window_len=args.window, precision_bits=bits,
            logs=construction.log_balls(plan, bits + GUARD_BITS),
        )
        max_n, _, max_rate = max(diagnostics.peaks, key=lambda entry: entry[2])
        # is_prime is a proof only below DETERMINISTIC_LIMIT; above it,
        # Baillie-PSW makes p_n a probable prime.
        probable = [c.n for c in plan.components if c.p >= numtheory.DETERMINISTIC_LIMIT]
        summary = {
            "target": target.describe(),
            "strategy": plan.strategy,
            "window_len": len(diagnostics.window),
            "window_inf": extreme_decimal(min, diagnostics.window, dps),
            "window_sup": extreme_decimal(max, diagnostics.window, dps),
            "max_rate": max_rate.decimal(dps),
            "max_rate_n": max_n,
            "claimed_vs_exact_discrepancies": table.discrepancy_count,
            "probable_primes": ";".join(str(n) for n in probable) or "none",
        }
        if deficits is not None:
            summary["deficit_unverified"] = (
                ";".join(str(n) for n in deficits.unverified) or "none"
            )
            summary["deficit_negative_budget"] = (
                ";".join(str(n) for n in deficits.negative_budget) or "none"
            )
        if plan.strategy == construction.STRATEGY_PAPER:
            gaps = (rate - construction.sigma_rate_target(plan, n)
                    for n, _, rate in diagnostics.entries)
            summary["sigma_rate_max_gap"] = extreme_decimal(  # |gap| = max(gap, -gap)
                max, (x for gap in gaps for x in (gap, -gap)), dps)

    header = ["n", "p", "K", "F_factored", "F_log", "L_exact", "L_claimed", "rate"]
    rows = (  # one at a time, each rebuilt from F, the blocks and its log ball
        [n, comp.p, comp.K, str(f_log.count), f_log.decimal(dps), exact,
         construction.EXACT_CONTEXT.subtract(block, 1), rate.decimal(dps)]
        for comp, exact, block, (n, f_log, rate) in zip(
            plan.components, table.least, table.blocks, diagnostics.entries
        )
    )
    _emit(args, header, rows, summary, out)
    return EXIT_OK


# --- oracle -------------------------------------------------------------------


def cmd_oracle(args, out):
    plan = construction.load_plan(args.plan)
    components = args.components if args.components is not None else plan.N
    n_max = args.max_n if args.max_n is not None else plan.N
    counts = construction.enumerate_oracle(
        plan, components, n_max, max_points=args.max_points
    )
    table = construction.count_table(plan, n_max, components)
    columns = (counts.fixed.values, counts.least.values, table.values, table.least)

    def match(f_oracle, l_oracle, f_closed, l_closed):
        return f_oracle == f_closed and l_oracle == l_closed

    mismatches = sum(not match(*counts_n) for counts_n in zip(*columns))
    header = ["n", "F_oracle", "L_oracle", "F_closed", "L_closed", "status"]
    rows = (
        [n, *counts_n, "MATCH" if match(*counts_n) else "MISMATCH"]
        for n, counts_n in enumerate(zip(*columns), start=1)
    )
    summary = {
        "points": counts.points,
        "components": components,
        "mismatches": mismatches,
    }
    _emit(args, header, rows, summary, out)
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


# --- lehmer ---------------------------------------------------------------------


def _gap_ball(rate, measure, bits):
    """(lo, hi) with lo <= |rate - m(f)| * 2**bits <= hi, from the two balls."""
    (r_lo, r_hi), (m_lo, m_hi) = rate.ball(bits), measure.ball(bits)
    lo, hi = r_lo - m_hi, r_hi - m_lo
    return (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))


def cmd_lehmer(args, out):
    poly = toral.IntegerPolynomial.parse(args.poly)
    sequence = toral.toral_fix_sequence(poly, args.max_n)
    bits = args.precision_bits
    measure = toral.mahler_measure(poly, precision_bits=bits)
    diagnostics = orbits.growth_diagnostics(sequence, precision_bits=bits)
    header = ["n", "delta", "rate"]
    dps = digits_for_bits(bits)
    rows = (
        [n, value, rate.decimal(dps)]
        for value, (n, _, rate) in zip(sequence.values, diagnostics.entries)
    )
    rate = diagnostics.entries[-1][2]
    mahler = ball_digits(measure.lo, measure.hi, measure.scale, dps)
    summary = {
        "mahler": mahler,
        "mahler_error_bound": decimal_up(measure.hi - measure.lo, measure.scale + 1, dps),
        "entropy": mahler,
        "gap_at_max_n": escalate(
            lambda b: ball_digits(*_gap_ball(rate, measure, b), b, dps), measure.scale
        ),
        "near_unit_roots": len(measure.flagged),
    }
    _emit(args, header, rows, summary, out)
    return EXIT_OK


# --- zeta -----------------------------------------------------------------------


def cmd_zeta(args, out):
    with open(args.sequence, "r", encoding="utf-8", newline="") as fh:
        sequence = orbits.read_sequence_csv(fh)
    order = args.max_m if args.max_m is not None else sequence.N
    series = zeta.zeta_truncate(sequence, order)
    probe = zeta.rationality_probe(series)
    header = ["m", "numerator", "denominator"]
    rows = ([m, c.numerator, c.denominator] for m, c in enumerate(series.coefficients))
    if args.format == "csv":
        import json

        summary = {"probe": json.dumps(probe.to_json(), separators=(",", ":"))}
    else:
        summary = {"probe": probe.to_json()}
    _emit(args, header, rows, summary, out)
    return EXIT_OK


# --- analyze --------------------------------------------------------------------


def cmd_analyze(args, out):
    with open(args.sequence, "r", encoding="utf-8", newline="") as fh:
        sequence = orbits.read_sequence_csv(fh)
    # the least-period counts and divisor sums are freed before any log exists
    sandwich = orbits.lemma_sandwich_check(sequence, orbits.least_from_fixed(sequence))
    bits = args.precision_bits
    diagnostics = orbits.growth_diagnostics(
        sequence, window_len=args.window, precision_bits=bits
    )
    dps = digits_for_bits(bits)
    header = ["n", "value", "log", "rate"]
    rows = (
        [n, sequence.values[n - 1], lg.decimal(dps), rate.decimal(dps)]
        for (n, lg, rate) in diagnostics.entries
    )
    summary = {
        "window_len": len(diagnostics.window),
        "window_inf": extreme_decimal(min, diagnostics.window, dps),
        "window_sup": extreme_decimal(max, diagnostics.window, dps),
        "skipped": ";".join(str(n) for n in diagnostics.skipped) or "none",
        "sandwich_ok": sandwich.ok,
        "sandwich_violations": (
            ";".join("%d:%s" % (v.r, v.inequality) for v in sandwich.violations) or "none"
        ),
    }
    _emit(args, header, rows, summary, out)
    return EXIT_OK


# --- primes ---------------------------------------------------------------------


def _bound_ratio(p_squared, n_power, dps):
    """The printed ratio x = p / n**PRIME_BOUND_EXPONENT, from x**2 =
    p_squared / n_power: its decimal exponent e, 10**e <= x < 10**(e + 1), by
    comparing p_squared with n_power * 10**(2e) from a bit-length estimate,
    then its digits floor(x * 10**(dps - e)) as the integer square root of one
    floor, which is exact."""

    def at_least(k):  # x**2 >= 10**k
        return p_squared >= n_power * 10**k if k >= 0 else p_squared * 10**-k >= n_power

    e = (p_squared.bit_length() - n_power.bit_length()) * 3 // 20
    while not at_least(2 * e):
        e -= 1
    while at_least(2 * e + 2):
        e += 1
    j = dps - e
    if j >= 0:
        return decimal_from_scaled(math.isqrt(p_squared * 10 ** (2 * j) // n_power), e, dps)
    return decimal_from_scaled(math.isqrt(p_squared // (n_power * 10 ** (-2 * j))), e, dps)


def cmd_primes(args, out):
    if args.max_n < 1:
        raise ValueError("n_max must be positive")
    dps = digits_for_bits(args.precision_bits)
    # The bound exponent is a half-integer, so the squared ratio is rational.
    twice_exponent = int(2 * numtheory.PRIME_BOUND_EXPONENT)
    primes = numtheory.least_primes_congruent_one(args.max_n)
    worst = None  # (n, p**2, n**11) of the largest ratio over n >= 2
    for n, p in enumerate(primes, start=1):
        p_squared, n_power = p * p, n**twice_exponent
        # ratio > worst ratio, cross-multiplied; strict, so a tie keeps the first n
        if n >= 2 and (worst is None or p_squared * worst[2] > worst[1] * n_power):
            worst = (n, p_squared, n_power)
    header = ["n", "p", "ratio"]
    rows = (
        (n, p, _bound_ratio(p * p, n**twice_exponent, dps))
        for n, p in enumerate(primes, start=1)
    )
    summary = {
        "bound_exponent": numtheory.PRIME_BOUND_EXPONENT,
        "bound_constant": numtheory.PRIME_BOUND_CONSTANT,
        "max_ratio": _bound_ratio(worst[1], worst[2], dps) if worst else "none",
        "max_ratio_n": worst[0] if worst else "none",
    }
    _emit(args, header, rows, summary, out)
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    # for the commands that print reals; every decision is exact
    printing = argparse.ArgumentParser(add_help=False, parents=[common])
    printing.add_argument(
        "--precision-bits",
        type=int,
        default=DEFAULT_PRECISION_BITS,
        help="fractional bits of printed reals (and of lehmer's Mahler tolerance)",
    )

    parser = argparse.ArgumentParser(
        prog="perigee",
        description="Exact periodic-point counting for product-group automorphism plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, parent, summary):
        """The subcommand cmd_<name> runs, reading the flags of parent."""
        p = sub.add_parser(func.__name__[4:], parents=[parent], help=summary,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        return p

    p = command(cmd_construct, printing, "build a plan and tabulate its exact period counts")
    p.add_argument("--C", help="finite growth target, as a/b or an exact decimal")
    p.add_argument("--target", help="zero | infinite (or a rational, same as --C)")
    p.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="exponent strategy for a finite target; paper when omitted",
    )
    p.add_argument("--gamma", help="exponent for the subexponential strategy, in (0,1)")
    p.add_argument("--max-n", type=int, required=True, help="plan horizon")
    p.add_argument("--window", type=int, default=10, help="trailing rate window length")
    p.add_argument("--plan-out", help="also save the plan as JSON to this path")
    p.add_argument(
        "--sequence-out",
        help="also write the period counts in the shared n,value CSV format",
    )

    p = command(cmd_oracle, common, "enumerate a truncated plan and compare with closed forms")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--components", type=int, default=None, help="truncation (default: all)")
    p.add_argument("--max-n", type=int, default=None, help="tally periods up to this n")
    p.add_argument(
        "--max-points",
        type=int,
        default=DEFAULT_MAX_POINTS,
        help="enumeration budget",
    )

    p = command(cmd_lehmer, printing,
                "delta_n table and Mahler measure for a monic integer polynomial")
    # Let coefficient lists with a leading minus (e.g. --poly -2,1) parse as
    # values rather than option strings.
    p._negative_number_matcher = re.compile(r"^-\d")
    p.add_argument("--poly", required=True, help="coefficients c0,c1,...,cd with cd = 1")
    p.add_argument("--max-n", type=int, required=True)

    p = command(cmd_zeta, common,
                "truncated zeta coefficients and rationality probe for a sequence file")
    p.add_argument("--sequence", required=True, help="CSV file with header n,value")
    p.add_argument("--max-m", type=int, default=None, help="truncation order (default: all)")

    p = command(cmd_analyze, printing, "growth diagnostics and sandwich checks for a sequence file")
    p.add_argument("--sequence", required=True, help="CSV file with header n,value")
    p.add_argument("--window", type=int, default=10, help="trailing rate window length")

    p = command(cmd_primes, printing, "least primes ≡ 1 (mod n) with the n**5.5 bound ratio")
    p.add_argument("--max-n", type=int, required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "precision_bits" in args and not 8 <= args.precision_bits <= MAX_DECISION_BITS:
            raise ValueError(
                "--precision-bits must be at least 8 and at most %d" % MAX_DECISION_BITS
            )
        if (getattr(args, "max_n", None) or 0) > sys.maxsize:
            raise ValueError("--max-n must be at most %d" % sys.maxsize)
        if getattr(args, "window", 1) < 1:  # before construct's plan or analyze's file
            raise ValueError("window length must be positive")
        with unlimited_int_digits():
            return args.func(args, sys.stdout)
    except (BudgetError, MemoryError) as exc:
        print("budget exceeded: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return EXIT_BUDGET
    except PrecisionError as exc:
        print("precision budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except OutputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except toral.DegeneracyError as exc:
        print(
            "degenerate polynomial: vanishes on cyclotomic index %d" % exc.cyclotomic_index,
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
