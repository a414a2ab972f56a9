"""The exit-code contract under fuzzed input (K. Claessen and J. Hughes,
"QuickCheck", ICFP 2000).

main runs in process on argv drawn from a small grammar: construct flags
with zero, huge and malformed fractions and out-of-range integers; oracle
on plans mutated from a valid plan; lehmer on monic polynomials of degree
at most 3 with coefficients below 2**1000; analyze and zeta on short
sequence files with gaps, blank lines, bad headers and values that are
zero, negative, huge or not integers; primes at horizons around 0, 1 and 2.
Whatever the input, main returns a documented exit code and raises nothing,
a failure writes one line to stderr, exit 1 comes only from an oracle table
with a MISMATCH row, and a failed construct leaves no file behind.
derandomize makes every run draw the same examples; the tests take a few
seconds together.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigee.cli import main
from perigee.construction import build_plan, plan_to_json
from perigee.precision import MAX_DECISION_BITS
from perigee.targets import GrowthTarget

# each example runs in well under a second
FUZZ = settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=200, database=None)

PARTS = st.sampled_from([0, 1, 2, 3, 7, 10**30, 10**400])
FRACTIONS = st.one_of(
    st.builds("{}/{}".format, PARTS, PARTS),
    st.builds("-{}/{}".format, PARTS, PARTS),
    PARTS.map(str),
    st.sampled_from(["", "x", "1/", "/2", "inf", "nan", "0.5", "1e-3"]),
)


def flag(name, values):
    """['--name=value'] for a drawn value, or [] for the flag left out; the
    '=' form lets a value start with '-'."""
    return st.one_of(st.just([]), values.map(lambda v: ["%s=%s" % (name, v)]))


def call(argv, directory, inputs=()):
    """Run main(argv) and check the contract; inputs are the files the
    directory held before."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3, 4), (argv, code)
    if code in (0, 1):
        assert err == "", (argv, err)
    else:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        assert sorted(os.listdir(directory)) == sorted(inputs), argv
    assert code != 1 or (argv[0] == "oracle" and "MISMATCH" in out), argv


CONSTRUCT = st.tuples(
    flag("--C", FRACTIONS),
    flag("--target", st.one_of(st.sampled_from(["zero", "infinite"]), FRACTIONS)),
    flag("--strategy", st.sampled_from(["paper", "compensated", "subexponential"])),
    flag("--gamma", FRACTIONS),
    st.sampled_from([-1, 0, 1, 2, 5, 12, sys.maxsize + 1, 10**30]).map(
        lambda n: ["--max-n=%d" % n]),
    flag("--window", st.sampled_from([-1, 0, 1, 3, 10**30])),
    flag("--precision-bits", st.sampled_from([-1, 7, 8, 64, MAX_DECISION_BITS + 1, 10**30])),
).map(lambda parts: ["construct"] + sum(parts, []))


@FUZZ
@given(CONSTRUCT)
@example(["construct", "--C=1", "--strategy=subexponential", "--gamma=1/0", "--max-n=5"])
def test_construct_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as directory:
        outputs = ["--plan-out=" + os.path.join(directory, "plan.json"),
                   "--sequence-out=" + os.path.join(directory, "seq.csv")]
        call(argv + outputs, directory)


PLANS = (
    plan_to_json(build_plan(GrowthTarget.finite(1), "compensated", n_max=6)),
    plan_to_json(build_plan(GrowthTarget.finite(1), "subexponential", n_max=6, gamma="1/2")),
)
MISSING = object()
PATHS = [
    (), ("target",), ("target", "kind"), ("target", "value"), ("target", "extra"),
    ("strategy",), ("gamma",), ("N",), ("extra",), ("components",), ("components", 0),
    ("components", 5), ("components", 2, "p"), ("components", 2, "K"),
    ("components", 2, "multiplier"), ("components", 3, "n"), ("components", 0, "g"),
]
VALUES = [None, [], 1.5, True, 10**30, "1/0", "1/2", "3/2", MISSING]


def mutated(plan, mutations):
    """A deep copy of plan with each (path, value) applied: the value put at
    the path (MISSING deletes it); a path that no longer resolves is skipped."""
    plan = copy.deepcopy(plan)
    for path, value in mutations:
        if not path:
            plan = None if value is MISSING else value
            continue
        try:
            parent = plan
            for step in path[:-1]:
                parent = parent[step]
            if value is MISSING:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return plan


@FUZZ
@given(
    st.sampled_from(PLANS),
    st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)), min_size=1, max_size=3),
    flag("--components", st.sampled_from([-1, 0, 1, 3, 6, 7])),
    flag("--max-n", st.sampled_from([-1, 0, 1, 6, 12])),
)
@example(PLANS[1], [(("gamma",), "1/0")], [], [])
@example(PLANS[0], [(("target", "value"), "1/0")], [], [])
def test_oracle_keeps_the_exit_code_contract(plan, mutations, components, max_n):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "plan.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutated(plan, mutations), fh)
        call(["oracle", "--plan=" + path] + components + max_n, directory, ["plan.json"])


@FUZZ
@given(
    st.lists(st.integers(-(2**1000) + 1, 2**1000 - 1), min_size=1, max_size=3),
    st.integers(-1, 5),
)
@example([10**305 + 1], 3)
@example([2**965 + 1], 3)
def test_lehmer_keeps_the_exit_code_contract(low, max_n):
    poly = ",".join(str(c) for c in low + [1])
    with tempfile.TemporaryDirectory() as directory:
        call(["lehmer", "--poly=" + poly, "--max-n=%d" % max_n], directory)


SEQUENCE_VALUES = st.one_of(st.integers(-3, 3), st.integers(0, 10**30)).map(str)
BAD_VALUES = ["9" * 5000, "-1" + "0" * 400, "1E3", "1.5", "NaN", "inf", "", " 7 ", "x"]


@st.composite
def sequence_files(draw):
    """The text of a sequence file: header n,value and rows n = 1, 2, ... of
    integers, then up to two corruptions: a bad header, a dropped row, a blank
    line, a row of one or three fields, or a value that is huge or not an
    integer."""
    values = draw(st.lists(SEQUENCE_VALUES, max_size=14))
    lines = ["n,value"] + ["%d,%s" % (n, v) for n, v in enumerate(values, start=1)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(lines)))
        kind = draw(st.sampled_from(["header", "drop", "blank", "short", "long", "value"]))
        if kind == "header":
            lines[0] = draw(st.sampled_from(["n, value", "value,n", "n", ""]))
        elif kind == "drop" and i < len(lines):
            del lines[i]
        elif kind == "value":
            lines[i:i + 1] = ["%d,%s" % (i, draw(st.sampled_from(BAD_VALUES)))]
        else:
            lines.insert(i, {"blank": "", "short": "%d" % i, "long": "%d,1,1" % i}.get(kind, ""))
    return "\n".join(lines) + "\n"


@FUZZ
@given(
    st.sampled_from(["analyze", "zeta"]),
    sequence_files(),
    flag("--window", st.sampled_from([-1, 0, 1, 3])),
    flag("--max-m", st.sampled_from([-1, 0, 1, 3, 50])),
    flag("--precision-bits", st.sampled_from([7, 8, 64])),
)
@example("analyze", "n,value\n1,0\n2,-1\n\n3,1E3\n", [], [], [])
@example("zeta", "n,value\n1,1\n3,1\n", [], [], [])
def test_sequence_commands_keep_the_exit_code_contract(command, text, window, max_m, bits):
    argv = [command] + (window + bits if command == "analyze" else max_m)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "seq.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        call(argv + ["--sequence=" + path], directory, ["seq.csv"])


@FUZZ
@given(st.integers(-2, 4), flag("--precision-bits", st.sampled_from([7, 8, 64])))
def test_primes_keeps_the_exit_code_contract(max_n, bits):
    with tempfile.TemporaryDirectory() as directory:
        call(["primes", "--max-n=%d" % max_n] + bits, directory)
