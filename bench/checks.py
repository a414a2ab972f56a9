"""Independent checks of perigee's command outputs.

Each check takes an op's stdout (bytes) plus the files the op wrote, and
returns a list of problems; an empty list means the output is correct.  The
harness's own arithmetic (sieves, divisor sums, Moebius inversion, modular
orders) does the checking.  perigee itself is called only where the check is
its documented oracle: ``ConstructionPlan.validate``, ``delta_n_resultant``
and ``orbit_product_form``.

Columns are looked up by header name, never by position.
"""

import json
from fractions import Fraction

from inputs import divisor_lists


class Table:
    """A CSV table followed by '# key=value' summary lines."""

    def __init__(self, stdout):
        lines = stdout.decode("utf-8").splitlines()
        if not lines:
            raise ValueError("empty output")
        self.header = lines[0].split(",")
        self.rows = []
        self.summary = {}
        for line in lines[1:]:
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                self.summary[key] = value
            elif self.summary:
                raise ValueError("table row after the summary: %r" % line[:60])
            else:
                self.rows.append(line.split(","))

    def column(self, name):
        try:
            i = self.header.index(name)
        except ValueError:
            raise ValueError("no column %r in header %s" % (name, ",".join(self.header)))
        return [row[i] for row in self.rows]

    def int_column(self, name):
        return [int(v) for v in self.column(name)]


def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


def _expect_rows(problems, table, count, first="n", start=1):
    got = table.int_column(first)
    _expect(
        problems,
        got == list(range(start, start + count)),
        "expected %s = %d..%d, got %d rows" % (first, start, start + count - 1, len(got)),
    )


def _first_mismatch(name, got, want):
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            return "%s differs at row %d" % (name, i)
    if len(got) != len(want):
        return "%s has %d values, expected %d" % (name, len(got), len(want))
    return None


def mobius_table(n_max):
    """mu(1..n_max) by a linear sieve."""
    mu = [1] * (n_max + 1)
    is_composite = bytearray(n_max + 1)
    primes = []
    for i in range(2, n_max + 1):
        if not is_composite[i]:
            primes.append(i)
            mu[i] = -1
        for q in primes:
            if i * q > n_max:
                break
            is_composite[i * q] = 1
            if i % q == 0:
                mu[i * q] = 0
                break
            mu[i * q] = -mu[i]
    return mu


def prime_sieve(limit):
    """flags[k] == 1 exactly when k is prime, for 0 <= k <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return flags


def prime_factors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def least_from_fixed(values):
    """L_n = sum over d | n of mu(n/d) * F_d (harness's own inversion)."""
    n_max = len(values)
    mu = mobius_table(n_max)
    divs = divisor_lists(n_max)
    return [
        sum(mu[n // d] * values[d - 1] for d in divs[n] if mu[n // d])
        for n in range(1, n_max + 1)
    ]


def parse_factored(text):
    """'p1^e1*p2^e2*...' (or '1') as a value, multiplied out."""
    value = 1
    if text == "1":
        return value
    for part in text.split("*"):
        p, _, e = part.partition("^")
        value *= int(p) ** int(e)
    return value


def read_plan(path):
    """Plan JSON as (target, [(n, p, K, multiplier), ...]) with exact ints."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    comps = [
        (int(c["n"]), int(c["p"]), int(c["K"]), int(c["multiplier"]))
        for c in obj["components"]
    ]
    return obj["target"], comps


def read_sequence(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "n,value":
        raise ValueError("sequence file lacks the n,value header")
    rows = [line.split(",") for line in lines[1:]]
    if [int(n) for n, _ in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("sequence file rows are not n = 1..N")
    return [int(v) for _, v in rows]


def plan_products(comps):
    """F_n = product over d | n of p_d**K_d, re-multiplied from the plan."""
    n_max = len(comps)
    blocks = [1] + [p**K for (_, p, K, _) in comps]
    divs = divisor_lists(n_max)
    out = []
    for n in range(1, n_max + 1):
        f = 1
        for d in divs[n]:
            if blocks[d] != 1:
                f *= blocks[d]
        out.append(f)
    return out


# --- construct ------------------------------------------------------------------


def check_compensated(stdout, plan_path, sequence_path, C, max_n):
    from perigee import construction

    problems = []
    table = Table(stdout)
    _expect_rows(problems, table, max_n)
    _expect(
        problems,
        table.summary.get("deficit_unverified") == "none",
        "deficit_unverified=%s" % table.summary.get("deficit_unverified"),
    )
    target, comps = read_plan(plan_path)
    _expect(problems, Fraction(target.get("value", "0")) == C, "plan target is not C = %s" % C)
    _expect(problems, len(comps) == max_n, "plan has %d components" % len(comps))
    try:
        construction.load_plan(plan_path).validate()
    except ValueError as exc:
        problems.append("plan fails validate(): %s" % exc)
    _expect(problems, table.int_column("p") == [c[1] for c in comps], "p column differs from the plan")
    _expect(problems, table.int_column("K") == [c[2] for c in comps], "K column differs from the plan")
    fixed = plan_products(comps)
    factored = [parse_factored(v) for v in table.column("F_factored")]
    for msg in (
        _first_mismatch("F_factored", factored, fixed),
        _first_mismatch("L_exact", table.int_column("L_exact"), least_from_fixed(fixed)),
        _first_mismatch("--sequence-out", read_sequence(sequence_path), factored),
    ):
        if msg:
            problems.append(msg)
    return problems


def check_infinite(stdout, plan_path, max_n):
    problems = []
    table = Table(stdout)
    _expect_rows(problems, table, max_n)
    _expect(problems, table.int_column("K") == [1] * max_n, "K column is not all 1")
    _, comps = read_plan(plan_path)
    _expect(problems, table.int_column("p") == [c[1] for c in comps], "p column differs from the plan")
    for n, p, _, multiplier in comps:
        _expect(problems, p > n**n, "p_%d <= %d**%d" % (n, n, n))
        _expect(problems, (p - 1) % n == 0, "p_%d is not 1 mod %d" % (n, n))
        exact_order = pow(multiplier, n, p) == 1 and all(
            pow(multiplier, n // q, p) != 1 for q in prime_factors(n)
        )
        _expect(problems, exact_order, "multiplier at n = %d does not have order %d" % (n, n))
    return problems


# --- primes ----------------------------------------------------------------------


def check_primes(stdout, max_n):
    """Every p is prime and 1 mod n, and no smaller k*n + 1 (k >= 1) is prime."""
    problems = []
    table = Table(stdout)
    _expect_rows(problems, table, max_n)
    ps = table.int_column("p")
    flags = prime_sieve(max(ps))
    for n, p in zip(range(1, max_n + 1), ps):
        if not flags[p] or (p - 1) % n:
            problems.append("p = %d at n = %d is not a prime 1 mod n" % (p, n))
        elif any(flags[c] for c in range(n + 1, p, n)):
            problems.append("a prime 1 mod %d lies below %d" % (n, p))
        if len(problems) > 10:
            break
    return problems


# --- read-side ops -----------------------------------------------------------------


def check_analyze(stdout, length):
    problems = []
    table = Table(stdout)
    _expect_rows(problems, table, length)
    for key, want in (("sandwich_ok", "True"), ("skipped", "none")):
        got = table.summary.get(key)
        _expect(problems, got == want, "%s=%s, expected %s" % (key, got, want))
    return problems


def _probe(table):
    return json.loads(table.summary.get("probe", "{}"))


def check_zeta_realizable(stdout, reference):
    """R: integer coefficients equal to the Euler product over orbits, and
    the probe finds no low-order recurrence."""
    problems = []
    table = Table(stdout)
    _expect_rows(problems, table, len(reference), first="m", start=0)
    _expect(
        problems,
        all(d == "1" for d in table.column("denominator")),
        "a coefficient of a realizable sequence is not an integer",
    )
    msg = _first_mismatch("numerator", table.int_column("numerator"), list(reference))
    if msg:
        problems.append(msg)
    verdict = _probe(table).get("verdict")
    _expect(problems, verdict == "no-low-order-recurrence", "probe verdict %s" % verdict)
    return problems


def rational_series(num, den, order):
    """Power-series coefficients of num/den through z**order (den[0] = 1)."""
    out = []
    for m in range(order + 1):
        c = num[m] if m < len(num) else 0
        c -= sum(den[j] * out[m - j] for j in range(1, min(m, len(den) - 1) + 1))
        out.append(c)
    return out


def check_zeta_rational(stdout, num, den, order):
    """Q: the probe returns exactly num/den, and the coefficients are its
    power series."""
    problems = []
    table = Table(stdout)
    _expect_rows(problems, table, order + 1, first="m", start=0)
    coeffs = [
        Fraction(int(a), int(b))
        for a, b in zip(table.column("numerator"), table.column("denominator"))
    ]
    msg = _first_mismatch("coefficient", coeffs, rational_series(num, den, order))
    if msg:
        problems.append(msg)
    probe = _probe(table)
    want = {
        "verdict": "consistent-with-rational",
        "num_coeffs": [str(c) for c in num],
        "den_coeffs": [str(c) for c in den],
    }
    _expect(problems, probe == want, "probe %s, expected %s" % (probe, want))
    return problems


def check_lehmer(stdout, poly, max_n, sample, mahler, digits):
    from perigee import toral

    problems = []
    table = Table(stdout)
    _expect_rows(problems, table, max_n)
    deltas = table.int_column("delta")
    f = toral.IntegerPolynomial(tuple(poly))
    for n in sample:
        _expect(
            problems,
            deltas[n - 1] == toral.delta_n_resultant(f, n),
            "delta_%d differs from the resultant route" % n,
        )
    got = Fraction(table.summary.get("mahler", "nan"))
    _expect(
        problems,
        abs(got - mahler) < Fraction(1, 10**digits),
        "mahler=%s is not %s" % (table.summary.get("mahler"), mahler),
    )
    return problems


def check_oracle(stdout, plan_path, components, max_n):
    problems = []
    table = Table(stdout)
    _expect_rows(problems, table, max_n)
    _expect(problems, table.summary.get("mismatches") == "0", "oracle mismatches")
    _, comps = read_plan(plan_path)
    points = 1
    for _, p, K, _ in comps[:components]:
        points *= p**K
    _expect(
        problems,
        table.summary.get("points") == str(points),
        "points=%s, expected %d" % (table.summary.get("points"), points),
    )
    return problems
