"""perigee benchmark: seeded closed-loop sessions of CLI commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's list of ``perigee`` commands strictly one at a
time (a closed loop) and repeats the list as passes until S seconds are used.
Every command runs in a fresh interpreter through ``bench/child.py``, because
every real CLI call pays the import and cold ``lru_cache``s.  Each output is
checked independently and untimed (``bench/checks.py``); an output identical
to one already checked in the run (same op, same sha256 of stdout and of the
files it wrote) reuses that verdict.  An op that exits non-zero, is killed or
fails its check counts as failed.

Workloads (BENCHMARK.json says why each was chosen):

* ``construct-compensated``: ``construct --strategy compensated --max-n 3000``
  with plan and sequence output, C drawn from the seed (seed 0 gives C = 1).
* ``theory-and-sequences``: the number-theory ops ``construct --target
  infinite --max-n 29`` and ``primes --max-n 20000``, which have no random
  input, then the read side: ``analyze`` and ``zeta`` on a seeded realizable
  sequence R, ``zeta`` on a seeded toral sequence Q, ``lehmer`` on Lehmer's
  polynomial and ``oracle`` on a small compensated plan written at set-up.
  The two halves share one workload so that each run is long enough to
  ride out the host's speed drift (see BENCHMARK.json's run_seconds).

Every op is timed against a fixed reference computation run in the harness
just before and just after it (``probe.py``), because the host's speed drifts
by up to twofold in phases longer than a run.  The harness and its children
are pinned to one core, so that the probe gauges the core the ops run on.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``pass_probes``, the sum over the pass's ops of each op's median over the run
of op wall time / probe time (a typical pass takes that many probe-times);
``setup_s``, spawn until ``perigee.cli`` is imported, median over ops; and
``peak_rss_mb``.  With ``--trace 1`` each pass runs once untraced and once
traced (alternating which goes first); the traced copy must print
byte-identical stdout and repeat its counts exactly, and the last line holds
the per-layer metrics, among them the untraced wall-time medians ``pass_s``,
``probe_s`` and ``<command>_s``.  The line before the last holds the run
context: interpreter, mpmath backend, cores, commit, inputs, every pass's wall
time and probe ratio, and the sha256 of every op's stdout.

Which end-to-end figure each layer metric should move (``pass_probes`` through
the named command's ``<command>_s``):

* ``precision.*``, ``construction.build_plan.s`` and ``deficit_report.s``:
  ``construct_s`` on construct-compensated only, not on the infinite
  construct of theory-and-sequences.
* ``construction.fixed_count.calls``, ``least_count_exact.s``,
  ``claimed_vs_exact_report.s``, ``cli.self_s``, ``cli.stdout_bytes`` and
  ``orbits.write_sequence_csv.s``: ``construct_s`` and ``peak_rss_mb`` on
  construct-compensated.
* ``numtheory.factorize.s`` and ``primitive_root.s``: ``construct_s`` on
  theory-and-sequences (about 0.05 s of construct-compensated, so no change
  there);
  ``numtheory.is_prime.calls`` and ``least_prime_congruent_one.s``:
  ``primes_s``.
* ``zeta.*``: ``zeta_s`` on theory-and-sequences, the R op for the probe and Q
  for ``zeta_truncate``; ``toral.*``: ``lehmer_s``;
  ``construction.enumerate_oracle.s`` (with its points): ``oracle_s``;
  ``orbits.read_sequence_csv.s``, ``least_from_fixed.s`` and the
  ``divisors``/``mobius`` calls: ``analyze_s``.
* Import cost: ``setup_s`` on every workload.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import inputs
import probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

# Every run ends well inside 180 s: no pass starts after HARD_LIMIT_S / 2, and
# an op still running at HARD_LIMIT_S is killed.
HARD_LIMIT_S = 150

COMPENSATED_MAX_N = 3000
INFINITE_MAX_N = 29
PRIMES_MAX_N = 20000
R_ZETA_ORDER = 128
Q_ZETA_ORDER = 256
LEHMER_MAX_N = 1000
LEHMER_SAMPLE = 6
ORACLE_COMPONENTS = 7
ORACLE_MAX_N = 8
FIXTURE_MAX_N = 8

COMMANDS = ("construct", "primes", "analyze", "zeta", "lehmer", "oracle")

PER_LAYER_TIMES = (
    "numtheory.least_prime_congruent_one",
    "numtheory.primitive_root",
    "numtheory.factorize",
    "precision.adaptive_floor",
    "precision.adaptive_decide",
    "construction.build_plan",
    "construction.least_count_exact",
    "construction.claimed_vs_exact_report",
    "construction.deficit_report",
    "construction.enumerate_oracle",
    "construction.save_plan",
    "construction.load_plan",
    "orbits.write_sequence_csv",
    "orbits.read_sequence_csv",
    "orbits.least_from_fixed",
    "orbits.growth_diagnostics",
    "orbits.lemma_sandwich_check",
    "toral.toral_fix_sequence",
    "toral.mahler_measure",
    "toral.cyclotomic_factor_index",
    "zeta.zeta_truncate",
    "zeta.berlekamp_massey",
    "zeta.rationality_probe",
)
PER_LAYER_CALLS = (
    "numtheory.is_prime",
    "numtheory.factorize",
    "numtheory.divisors",
    "numtheory.mobius",
    "precision.adaptive_floor",
    "precision.adaptive_decide",
    "precision.log_interval",
    "construction.fixed_count",
)
LAYERS = ("numtheory", "precision", "construction", "orbits", "toral", "zeta", "cli")
# Tracer counters: name -> (metric, unit), summed over a pass except max_bits
# and recurrence_length, which are maxima.
COUNTERS = {
    "escalations": ("precision.escalations", "count"),
    "max_bits": ("precision.max_bits", "bits"),
    "points": ("construction.enumerate_oracle.points", "count"),
    "recurrence_length": ("zeta.recurrence_length", "count"),
}
MAX_COUNTERS = ("max_bits", "recurrence_length")


@dataclass
class Op:
    """One perigee command of a pass, with the files it writes and its check."""

    command: str
    args: list
    check: object  # stdout bytes -> list of problems
    outputs: list = field(default_factory=list)
    facts: object = None  # stdout bytes -> dict of deterministic counts

    @property
    def label(self):
        return " ".join(self.args)


@dataclass
class OpResult:
    op_index: int
    command: str
    wall_s: float
    probe_s: float  # mean of the probes just before and just after the op
    setup_s: float | None  # None when the child wrote no meta file
    rss_kb: int
    exit: int
    sha256: str
    stdout_bytes: int
    problems: list
    trace: dict | None
    facts: dict

    @property
    def ok(self):
        return self.exit == 0 and not self.problems


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Session:
    """Runs ops in fresh interpreters inside a private work directory."""

    def __init__(self, work, started):
        self.work = work
        self.started = started
        self._verdicts = {}  # (op index, stdout sha, output shas) -> (problems, facts)
        self._last_probe = None  # the probe after one op is the probe before the next

    def spawn(self, args, trace, stdout_path):
        """Run one command through the child runner; returns
        (wall seconds, meta dict or None, exit code)."""
        meta_path = os.path.join(self.work, "meta.json")
        if os.path.exists(meta_path):
            os.remove(meta_path)
        cmd = [sys.executable, CHILD, meta_path, "1" if trace else "0", "--"] + args
        with open(stdout_path, "wb") as out, open(
            os.path.join(self.work, "stderr.txt"), "wb"
        ) as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work)
            # A blocking wait returns the moment the child exits; wait(timeout=)
            # polls with sleeps of up to 50 ms, which would quantize every time.
            watchdog = threading.Timer(max(1.0, self.started + HARD_LIMIT_S - t0), proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
                wall = time.monotonic() - t0
            finally:
                watchdog.cancel()
                watchdog.join()
        meta = None
        if os.path.exists(meta_path):
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
            meta["setup_s"] = meta["imported_at"] - t0
        return wall, meta, code

    def run_op(self, index, op, trace):
        for name in op.outputs:
            path = os.path.join(self.work, name)
            if os.path.exists(path):
                os.remove(path)
        stdout_path = os.path.join(self.work, "stdout.txt")
        before = self._last_probe if self._last_probe is not None else probe.probe_s()
        wall, meta, code = self.spawn(op.args, trace, stdout_path)
        self._last_probe = probe.probe_s()
        sha = _sha256_file(stdout_path)
        problems, facts = [], {}
        if code != 0 or meta is None:
            with open(os.path.join(self.work, "stderr.txt"), "rb") as fh:
                tail = fh.read()[-300:].decode("utf-8", "replace").strip()
            # A negative code is a signal: the watchdog kills at HARD_LIMIT_S.
            problems = ["exit code %s: %s" % (code, tail)]
        else:
            key = (index, sha) + tuple(
                _sha256_file(os.path.join(self.work, name)) for name in op.outputs
            )
            if key not in self._verdicts:
                with open(stdout_path, "rb") as fh:
                    stdout = fh.read()
                try:
                    problems = op.check(stdout)
                    facts = op.facts(stdout) if op.facts else {}
                except (ValueError, KeyError, IndexError, OSError) as exc:
                    problems = ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
                self._verdicts[key] = (problems, facts)
            problems, facts = self._verdicts[key]
        return OpResult(
            op_index=index,
            command=op.command,
            wall_s=wall,
            probe_s=(before + self._last_probe) / 2,
            setup_s=meta["setup_s"] if meta else None,
            rss_kb=meta["maxrss_kb"] if meta else 0,
            exit=code,
            sha256=sha,
            stdout_bytes=os.path.getsize(stdout_path),
            problems=list(problems),
            trace=meta.get("trace") if meta else None,
            facts=facts,
        )


# --- workloads -----------------------------------------------------------------


def _probable_primes(stdout):
    from perigee.numtheory import DETERMINISTIC_LIMIT

    ps = checks.Table(stdout).int_column("p")
    return {"probable_primes": sum(p > DETERMINISTIC_LIMIT for p in ps)}


def construct_compensated(seed, session):
    C = inputs.growth_constant(seed)
    work = session.work
    op = Op(
        "construct",
        ["construct", "--C", str(C), "--strategy", "compensated",
         "--max-n", str(COMPENSATED_MAX_N), "--plan-out", "plan.json",
         "--sequence-out", "seq.csv"],
        lambda out: checks.check_compensated(
            out, os.path.join(work, "plan.json"), os.path.join(work, "seq.csv"),
            C, COMPENSATED_MAX_N,
        ),
        outputs=["plan.json", "seq.csv"],
        facts=_probable_primes,
    )
    return [op], {"C": str(C)}


def number_theory_ops(session):
    """The infinite construct and the prime scan; neither has a random input."""
    work = session.work
    return [
        Op(
            "construct",
            ["construct", "--target", "infinite", "--max-n", str(INFINITE_MAX_N),
             "--plan-out", "inf.json"],
            lambda out: checks.check_infinite(
                out, os.path.join(work, "inf.json"), INFINITE_MAX_N
            ),
            outputs=["inf.json"],
            facts=_probable_primes,
        ),
        Op(
            "primes",
            ["primes", "--max-n", str(PRIMES_MAX_N)],
            lambda out: checks.check_primes(out, PRIMES_MAX_N),
            facts=_probable_primes,
        ),
    ]


def sequence_ops(seed, session):
    """The read side: seeded sequence files R and Q, and the oracle fixture."""
    from perigee.orbits import CountSequence
    from perigee.zeta import orbit_product_form

    work = session.work
    r_values = inputs.realizable_sequence(seed)
    inputs.write_sequence(os.path.join(work, "R.csv"), r_values)
    matrix = inputs.toral_matrix(seed)
    inputs.write_sequence(os.path.join(work, "Q.csv"), inputs.toral_sequence(matrix))
    q_num, q_den = inputs.toral_zeta(matrix)
    _, _, code = session.spawn(
        ["construct", "--C", "1", "--strategy", "compensated",
         "--max-n", str(FIXTURE_MAX_N), "--plan-out", "P.json"],
        False,
        os.path.join(work, "fixture.txt"),
    )
    if code != 0:
        raise RuntimeError("writing the oracle plan fixture failed (exit %s)" % code)
    reference = [
        int(c)
        for c in orbit_product_form(CountSequence.fixed(r_values), R_ZETA_ORDER).coefficients
    ]
    sample = sorted(
        random.Random("%d:lehmer" % seed).sample(range(1, LEHMER_MAX_N + 1), LEHMER_SAMPLE)
    )
    poly = ",".join(str(c) for c in inputs.LEHMER_POLY)
    ops = [
        Op(
            "analyze",
            ["analyze", "--sequence", "R.csv"],
            lambda out: checks.check_analyze(out, inputs.R_LENGTH),
        ),
        Op(
            "zeta",
            ["zeta", "--sequence", "R.csv", "--max-m", str(R_ZETA_ORDER)],
            lambda out: checks.check_zeta_realizable(out, reference),
        ),
        Op(
            "zeta",
            ["zeta", "--sequence", "Q.csv", "--max-m", str(Q_ZETA_ORDER)],
            lambda out: checks.check_zeta_rational(out, q_num, q_den, Q_ZETA_ORDER),
        ),
        Op(
            "lehmer",
            ["lehmer", "--poly", poly, "--max-n", str(LEHMER_MAX_N)],
            lambda out: checks.check_lehmer(
                out, inputs.LEHMER_POLY, LEHMER_MAX_N, sample,
                inputs.LEHMER_MAHLER, inputs.LEHMER_MAHLER_DIGITS,
            ),
        ),
        Op(
            "oracle",
            ["oracle", "--plan", "P.json", "--components", str(ORACLE_COMPONENTS),
             "--max-n", str(ORACLE_MAX_N)],
            lambda out: checks.check_oracle(
                out, os.path.join(work, "P.json"), ORACLE_COMPONENTS, ORACLE_MAX_N
            ),
        ),
    ]
    info = {
        "R": "N=%d, sha256=%s" % (inputs.R_LENGTH, _sha256_file(os.path.join(work, "R.csv"))),
        "Q_matrix": matrix,
        "Q_trace": matrix[0][0] + matrix[1][1],
        "lehmer_sample": sample,
    }
    return ops, info


def theory_and_sequences(seed, session):
    ops, info = sequence_ops(seed, session)
    info["seed"] = "seeds R, Q and the lehmer sample; the number-theory ops ignore it"
    return number_theory_ops(session) + ops, info


WORKLOADS = {
    "construct-compensated": construct_compensated,
    "theory-and-sequences": theory_and_sequences,
}


# --- measurement -----------------------------------------------------------------


def run_pass(session, ops, trace, results):
    """One pass through the op list; returns its time, the sum of op wall
    times (checks and bookkeeping between ops are not timed)."""
    total = 0.0
    for index, op in enumerate(ops):
        result = session.run_op(index, op, trace)
        results.append(result)
        total += result.wall_s
    return total


def measure(session, ops, seconds, trace):
    """Repeat passes (untraced, or untraced+traced pairs) for `seconds`.

    A new pass starts only if the previous one suggests it ends in time, so
    a run uses about `seconds`; at least one pass always runs.
    """
    passes = {False: [], True: []}
    results = {False: [], True: []}
    start = time.monotonic()
    i = 0
    while True:
        t0 = time.monotonic()
        order = ((True, False) if i % 2 else (False, True)) if trace else (False,)
        for traced in order:
            passes[traced].append(run_pass(session, ops, traced, results[traced]))
        i += 1
        now = time.monotonic()
        if now + (now - t0) > start + seconds or now - session.started > HARD_LIMIT_S / 2:
            return passes, results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[1], q[2]


def pass_sums(results, n_ops, value):
    """Group per-op results into passes and sum value(result) per pass."""
    return [
        sum(value(r) for r in results[i : i + n_ops]) for i in range(0, len(results), n_ops)
    ]


def command_medians(results, n_ops):
    """Median over passes of each command's wall time (summed within a pass)."""
    out = {}
    for command in COMMANDS:
        per_pass = pass_sums(
            results, n_ops, lambda r: r.wall_s if r.command == command else 0.0
        )
        out[command + "_s"] = statistics.median(per_pass)
    return out


def pass_probes(results, n_ops):
    """Per pass, the sum over its ops of op wall time / probe time."""
    return pass_sums(results, n_ops, lambda r: r.wall_s / r.probe_s)


def op_probe_medians(results, n_ops):
    """Per op of the pass, the median over passes of op wall time / probe time.

    Their sum is the typical pass; with only three or four passes in a run of
    the longer workload, a slow phase that hits one op of a pass then moves
    only that op's median, not the pass's.
    """
    return [
        statistics.median(r.wall_s / r.probe_s for r in results[i::n_ops]) for i in range(n_ops)
    ]


def end_to_end(results, n_ops):
    return {
        "pass_probes": (sum(op_probe_medians(results, n_ops)), "probes"),
        "setup_s": (statistics.median(r.setup_s for r in results if r.setup_s is not None), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in results) / 1024.0, "MB"),
    }


def pass_trace_totals(results, n_ops):
    """Per traced pass: layer times, calls, counters and facts, summed over ops."""
    totals = []
    for i in range(0, len(results), n_ops):
        inclusive, self_time, calls, counters = {}, {}, {}, {}
        for r in results[i : i + n_ops]:
            t = r.trace or {"inclusive": {}, "self": {}, "calls": {}, "counters": {}}
            for src, dst in ((t["inclusive"], inclusive), (t["self"], self_time), (t["calls"], calls)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
            for k, v in list(t["counters"].items()) + list(r.facts.items()):
                counters[k] = max(counters.get(k, 0), v) if k in MAX_COUNTERS else counters.get(k, 0) + v
        totals.append((inclusive, self_time, calls, counters))
    return totals


def per_layer(passes, results, n_ops):
    """Per-layer metrics from a trace run, plus the problems it found."""
    untraced, traced = results[False], results[True]
    for a, b in zip(untraced, traced):
        if a.sha256 != b.sha256:
            b.problems.append("traced stdout differs from untraced stdout")
    totals = pass_trace_totals(traced, n_ops)
    counts = [(calls, counters) for (_, _, calls, counters) in totals]
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    calls, counters = counts[0]

    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (statistics.median(t[1].get(layer, 0.0) for t in totals), "s")
    for name in PER_LAYER_TIMES:
        metrics[name + ".s"] = (statistics.median(t[0].get(name, 0.0) for t in totals), "s")
    for name in PER_LAYER_CALLS:
        metrics[name + ".calls"] = (calls.get(name, 0), "count")
    for key, (metric, unit) in COUNTERS.items():
        metrics[metric] = (counters.get(key, 0), unit)
    metrics["numtheory.probable_primes"] = (counters.get("probable_primes", 0), "count")
    metrics["cli.stdout_bytes"] = (sum(r.stdout_bytes for r in untraced[:n_ops]), "bytes")
    metrics["trace.overhead_frac"] = (
        sum(op_probe_medians(traced, n_ops)) / sum(op_probe_medians(untraced, n_ops)) - 1.0,
        "frac",
    )
    metrics["pass_s"] = (statistics.median(passes[False]), "s")
    metrics["probe_s"] = (statistics.median(r.probe_s for r in untraced), "s")
    for name, value in command_medians(untraced, n_ops).items():
        metrics[name] = (value, "s")
    return metrics, problems


# --- run context -----------------------------------------------------------------


def run_context(workload, seed, seconds, trace, info, ops, passes, results):
    import mpmath

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or "unknown"
    src_hash = hashlib.sha256()
    package = os.path.join(SRC, "perigee")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            src_hash.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                src_hash.update(fh.read())
    op_shas = []
    for index, op in enumerate(ops):
        shas = {}
        for r in results[False] + results[True]:
            if r.op_index == index:
                shas[r.sha256] = shas.get(r.sha256, 0) + 1
        op_shas.append({"op": op.label, "stdout_sha256": shas})
    untraced = results[False]
    lo, mid, hi = quartiles(passes[False])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "loop": "closed, 1 client, ops strictly sequential",
        "inputs": info,
        "passes": len(passes[False]),
        "pass_s_quartiles": [lo, mid, hi],
        "pass_s_all": passes[False],
        "pass_probes_all": pass_probes(untraced, len(ops)),
        "op_probe_medians": op_probe_medians(untraced, len(ops)),
        "probe_s_median": statistics.median(r.probe_s for r in untraced),
        "command_medians_s": command_medians(untraced, len(ops)),
        "ops": op_shas,
        "problems": sorted({p for r in untraced + results[True] for p in r.problems}),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # The harness and every child it spawns share one core, so that each
    # probe gauges the speed of the core the ops around it run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not os.path.isfile(os.path.join(SRC, "perigee", "cli.py")):
        print("error: no perigee sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        session = Session(work, started)
        ops, info = WORKLOADS[args.workload](args.seed, session)
        # Warm-up: compile bytecode once, untimed, as an installed CLI would have.
        session.spawn(["primes", "--max-n", "1"], False, os.path.join(work, "warmup.txt"))
        passes, results = measure(session, ops, args.seconds, bool(args.trace))
        if args.trace:
            metrics, problems = per_layer(passes, results, len(ops))
        else:
            metrics, problems = end_to_end(results[False], len(ops)), []
        context = run_context(
            args.workload, args.seed, args.seconds, args.trace, info, ops, passes, results
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = results[False] + results[True]
    failed = sum(not r.ok for r in attempted)
    context["problems"] += problems
    for p in context["problems"]:
        print("problem: %s" % p, file=sys.stderr)
    print(json.dumps({"context": context}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": len(attempted),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
