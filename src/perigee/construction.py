"""Product-group automorphism plans with prescribed periodic-point growth.

A plan assembles, for each index n up to a horizon, a finite component: the
least prime p_n ≡ 1 (mod n) (optionally above a search floor), an exponent
K_n, and a multiplier of multiplicative order exactly n mod p_n, which acts on
(Z/p_n)^{K_n} by coordinate-wise multiplication.  The multiplier is
a**((p_n-1)/n) for the least base a that passes the exact-order test, so only
n is factored, never p_n - 1 (no primitive root is needed).  The product of
the components over all n is a compact group automorphism whose period counts
are exactly

    F_n = product over d | n of p_d**K_d,

carried here in factored form.  Exponent strategies:

  paper          K_n = floor(n*C / log p_n), each index independently
  compensated    K_n = max(0, floor((n*C - sum over proper divisors d of n
                   of K_d*log p_d) / log p_n)), ascending in n, so the
                   accumulated log F_n never overshoots the budget n*C
  subexponential K_n = floor(n**gamma) for a rational gamma in (0,1)
  infinite       K_n = 1 with p_n forced above n**n
  trivial        K_n = 0 (zero growth target)

Floors of (rational)/log(prime) are decided on exact integer balls (see
precision) at escalating precision; they are never integers, so every
decision terminates, and the precision it starts at changes no plan.

The compensated budgets and log F_n = sum over d | n of K_d*log p_d are
divisor sums, formed for every n by a sieve over multiples: once K_d is
known, K_d times the ball of log p_d is added once to the ball of each
multiple of d.  build_plan and deficit_report read the budgets' balls at the
first precision tried from that sieve, and sum the divisors afresh only when
a decision escalates; log_balls gives construct its first ball of each
log F_n.

count_table is the one place that forms the closed forms (F_n, least-period
counts L_n by Moebius inversion, and the bound p_n**K_n - 1), for the whole
plan or a truncation of it.  They are cross-checked by enumerating truncated
products: each block vector's least period is measured, blocks combine by lcm,
and neither the F_n product nor Moebius inversion is used.
"""

import decimal
import itertools
import math
import re
from collections import Counter, namedtuple
from fractions import Fraction

from . import precision
from .numtheory import (
    BudgetError,
    FactoredNatural,
    divisors,
    element_of_order,
    factorize,
    is_prime,
    least_prime_congruent_one,
    least_primes_congruent_one,
    mobius,
)
from .orbits import KIND_FIXED, KIND_LEAST, CountSequence, Rows
from .precision import LogReal, adaptive_decide, adaptive_floor, log_ball, unlimited_int_digits
from .targets import FINITE, INFINITE, ZERO, GrowthTarget

STRATEGY_PAPER = "paper"
STRATEGY_COMPENSATED = "compensated"
STRATEGY_SUBEXPONENTIAL = "subexponential"
STRATEGY_INFINITE = "infinite"
STRATEGY_TRIVIAL = "trivial"

# the strategies each target kind takes; the first is the one taken when none is given
_STRATEGIES = {
    ZERO: (STRATEGY_TRIVIAL,),
    INFINITE: (STRATEGY_INFINITE,),
    FINITE: (STRATEGY_PAPER, STRATEGY_COMPENSATED, STRATEGY_SUBEXPONENTIAL),
}

DEFAULT_ENUMERATION_BUDGET = 10**7

# Integers in decimal radix, whose str() is linear in the digits: a result that
# needs rounding, or more than MAX_EMAX digits, raises instead of losing a digit.
EXACT_CONTEXT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[
    decimal.InvalidOperation, decimal.Overflow, decimal.Inexact, decimal.Rounded])


class ComponentSpec(namedtuple("ComponentSpec", "n p K multiplier")):
    """One finite component: the map x -> multiplier * x on (Z/p)^K."""

    __slots__ = ()

    def group_order(self):
        return self.p**self.K


class ConstructionPlan(
    namedtuple("ConstructionPlan", "target strategy components gamma", defaults=(None,))
):
    __slots__ = ()

    @property
    def N(self):
        return len(self.components)

    def validate(self):
        """Deep invariant check (prime p, n | p-1, multiplier of order n)."""
        for comp in self.components:
            if comp.K < 0:
                raise ValueError("negative exponent at n = %d" % comp.n)
            if not is_prime(comp.p):
                raise ValueError("p = %d at n = %d is not prime" % (comp.p, comp.n))
            if (comp.p - 1) % comp.n != 0:
                raise ValueError("%d does not divide p - 1 at n = %d" % (comp.n, comp.n))
            if pow(comp.multiplier, comp.n, comp.p) != 1:
                raise ValueError("multiplier order does not divide n at n = %d" % comp.n)
            for q, _ in factorize(comp.n):
                if pow(comp.multiplier, comp.n // q, comp.p) == 1:
                    raise ValueError("multiplier order below n at n = %d" % comp.n)


class _LogSums:
    """Integer balls lo[n-1] <= S_n * 2**bits <= hi[n-1] of sums S_n of
    K_d*log p_d, one per n = 1..size, formed by a sieve over multiples:
    add(comp, first) adds K*log_ball(p, bits) of the component at d = comp.n
    once to the balls of first, first + d, ..., so no n's divisors are listed."""

    __slots__ = ("bits", "lo", "hi")

    def __init__(self, size, bits):
        self.bits, self.lo, self.hi = bits, [0] * size, [0] * size

    def add(self, comp, first):
        if comp.K:
            p_lo, p_hi = log_ball(comp.p, self.bits)
            p_lo, p_hi = comp.K * p_lo, comp.K * p_hi
            lo, hi = self.lo, self.hi
            for m in range(first - 1, len(lo), comp.n):
                lo[m] += p_lo
                hi[m] += p_hi


def log_balls(plan, bits):
    """Lists lo, hi with lo[n-1] <= log F_n * 2**bits <= hi[n-1] for n = 1..N:
    the sums over d | n of K_d*log_ball(p_d, bits), by one sieve over
    multiples.  These are the integers precision sums for the factored F_n,
    grouped by divisor rather than by prime, so the balls are equal."""
    sums = _LogSums(plan.N, bits)
    for comp in plan.components:
        sums.add(comp, comp.n)
    return sums.lo, sums.hi


def _spent(components, n, held):
    """bits -> integers (lo, hi) with lo <= (sum over the proper divisors d
    of n of K_d*log p_d) * 2**bits <= hi: read from the sieve held (which
    holds those sums) at its precision, and summed over the divisors at any
    other, which only an escalation asks for."""

    def ball(bits):
        if bits == held.bits:
            return held.lo[n - 1], held.hi[n - 1]
        lo = hi = 0
        for d in divisors(n)[:-1]:
            comp = components[d - 1]
            if comp.K:
                p_lo, p_hi = log_ball(comp.p, bits)
                lo, hi = lo + comp.K * p_lo, hi + comp.K * p_hi
        return lo, hi

    return ball


def _budget_ball(n, C, spent, bits):
    """Integers (lo, hi) with lo <= (n*C - spent) * 2**bits <= hi, for
    spent(bits) a ball of the spent logs, as _spent returns."""
    scaled = C.numerator * n << bits
    spent_lo, spent_hi = spent(bits)
    return scaled // C.denominator - spent_hi, -(-scaled // C.denominator) - spent_lo


def _exponent(n, C, p, spent):
    """max(0, floor((n*C - spent) / log p)), certified, for spent as in _budget_ball.

    Both floor bounds are clamped at 0, so a negative budget decides K = 0
    without escalating.  The floor is exact, so it takes no precision.
    """

    def build(bits):
        lo, hi = _budget_ball(n, C, spent, bits)
        log_lo, log_hi = log_ball(p, bits)
        return (
            max(0, min(lo // log_lo, lo // log_hi)),
            max(0, hi // log_lo, hi // log_hi),
        )

    return adaptive_floor(build)


def _power_floor(n, gamma):
    """floor(n**gamma) for a Fraction gamma = a/b in (0, 1), never forming n**a.

    k <= n**gamma exactly when b*log k <= a*log n, which LogReal decides on
    balls (a tie, k**b == n**a, by its exact test), so a float estimate is
    corrected to the exact floor in a step or two.
    """
    a, b = gamma.numerator, gamma.denominator
    log_power = LogReal(n, scale=a)

    def at_most(k):  # k <= n**gamma
        return not LogReal(k, scale=b) > log_power

    k = max(1, min(n, int(n ** float(gamma))))
    while not at_most(k):
        k -= 1
    while k < n and at_most(k + 1):
        k += 1
    return k


def _checked_gamma(strategy, gamma):
    """gamma as a Fraction in (0, 1) for the subexponential strategy; None for the others."""
    if strategy != STRATEGY_SUBEXPONENTIAL:
        if gamma is not None:
            raise ValueError("gamma only applies to the subexponential strategy")
        return None
    try:
        gamma = Fraction(gamma) if gamma is not None else None
    except ZeroDivisionError as exc:
        raise ValueError("cannot parse gamma %r" % gamma) from exc
    if gamma is None or not 0 < gamma < 1:
        raise ValueError("subexponential strategy needs gamma in (0, 1)")
    return gamma


def build_plan(target, strategy=None, n_max=1, gamma=None):
    """Build components n = 1..n_max for the given target and strategy.

    strategy None picks the target's own: trivial for zero, infinite for
    infinite and paper for a finite target.  It checks the strategy against
    its target, and gamma (a Fraction or anything Fraction parses) against
    the strategy, as plan_from_json does.  Components with K_n = 0 are
    still recorded (as trivial groups) so that indices stay aligned with the
    product over all n.
    """
    if n_max < 1:
        raise ValueError("horizon must be at least 1")
    allowed = _STRATEGIES[target.kind]
    strategy = strategy or allowed[0]
    if strategy not in allowed:
        raise ValueError("%s target takes strategy %s" % (target.kind, " or ".join(allowed)))
    gamma = _checked_gamma(strategy, gamma)
    C = target.value
    # every finite plan takes its p_n from one sieve; the infinite one scans above n**n
    primes = None if strategy == STRATEGY_INFINITE else least_primes_congruent_one(n_max)
    # the compensated budgets' spent logs at the first precision tried, each
    # K_d added to its proper multiples as soon as it is decided
    if strategy == STRATEGY_COMPENSATED:
        held = _LogSums(n_max, precision.DEFAULT_PRECISION_BITS)
    components = []
    for n in range(1, n_max + 1):
        p = primes[n - 1] if primes else least_prime_congruent_one(n, search_floor=n**n)
        if strategy == STRATEGY_TRIVIAL:
            K = 0
        elif strategy == STRATEGY_INFINITE:
            K = 1
        elif strategy == STRATEGY_SUBEXPONENTIAL:
            K = _power_floor(n, gamma)
        elif strategy == STRATEGY_PAPER:
            K = _exponent(n, C, p, lambda bits: (0, 0))
        else:
            K = _exponent(n, C, p, _spent(components, n, held))
        multiplier = element_of_order(p, n)
        components.append(ComponentSpec(n=n, p=p, K=K, multiplier=multiplier))
        if strategy == STRATEGY_COMPENSATED:
            held.add(components[-1], 2 * n)
    return ConstructionPlan(
        target=target, strategy=strategy, components=tuple(components), gamma=gamma
    )


# --- exact counts ------------------------------------------------------------


def _check_index(plan, n, component_limit):
    if n < 1:
        raise ValueError("n must be positive")
    if component_limit is None:
        if n > plan.N:
            raise ValueError("n = %d beyond plan horizon %d" % (n, plan.N))
        return plan.N
    if not 1 <= component_limit <= plan.N:
        raise ValueError("component limit outside 1..%d" % plan.N)
    return component_limit


CountTable = namedtuple("CountTable", "factored values least blocks discrepancy_count")


def _least(fixed, n):
    """L_n, the Moebius sum over d | n of the F_d in fixed, in EXACT_CONTEXT."""
    total = 0
    for d in divisors(n):
        if sign := mobius(n // d):
            total = (EXACT_CONTEXT.add if sign > 0 else EXACT_CONTEXT.subtract)(total, fixed[d - 1])
    return total


def count_table(plan, n_max=None, component_limit=None):
    """F_n (factored, and as Decimal values), L_n and the blocks p_n**K_n for
    n = 1..n_max (default N), in one pass in EXACT_CONTEXT (do any further
    arithmetic there too): each block is formed once, F_n is the product of
    the blocks over d | n, L_n its Moebius inversion, and no count is an int.
    Too large a count raises BudgetError.  Only values and blocks are held;
    factored and least are views that rebuild each n's on read.

    With component_limit = M the blocks past M are trivial, so F_n is the
    product over d | n with d <= M, the exact period count of the truncated
    product group, and n_max may exceed N.

    The blocks bound the least-period counts: L_n >= p_n**K_n - 1, since
    block n alone holds that many points of least period n.  For n >= 2,
    call a proper divisor d of n active when K_d > 0; equality holds exactly
    when K_n > 0 and no proper divisor is active, or K_n = 0 and the lcm of
    the active proper divisors is not n (a point's least period is the lcm of
    its blocks').  At n = 1 the zero point makes L_1 exceed the bound by one.
    discrepancy_count is the number of n with L_n != p_n**K_n - 1.
    """
    top = n_max if n_max is not None else plan.N
    limit = min(top, _check_index(plan, top, component_limit))
    # (p_n, K_n) at index n = 1..top after a trivial block at 0; past the truncation, trivial
    pairs = [(1, 0)] + [(c.p, c.K) for c in plan.components[:limit]] + [(1, 0)] * (top - limit)
    fixed, blocks, discrepancies = [], [], 0
    with decimal.localcontext(EXACT_CONTEXT):
        for n, (p, K) in enumerate(pairs[1:], start=1):
            try:
                blocks.append(decimal.Decimal(p) ** K)
                fixed.append(math.prod(blocks[d - 1] for d in divisors(n)))
                discrepancies += _least(fixed, n) != blocks[-1] - 1
            except (decimal.Overflow, MemoryError) as exc:
                raise BudgetError("F_%d has too many digits to form" % n) from exc
    fixed = tuple(fixed)
    return CountTable(
        Rows(top, lambda i: FactoredNatural.from_pairs(map(pairs.__getitem__, divisors(i + 1)))),
        fixed, Rows(top, lambda i: _least(fixed, i + 1)), tuple(blocks), discrepancies,
    )


def sigma_rate_target(plan, n):
    """C * sigma(n) / n: the nominal rate of the independent-floor strategy.

    Each divisor d of n contributes K_d*log p_d close to d*C, so the rate
    (1/n) log F_n tracks C * sigma(n)/n rather than C at composite n.
    """
    if plan.target.kind != FINITE:
        raise ValueError("sigma rate target needs a finite growth target")
    return plan.target.value * sum(divisors(n)) / n


# --- enumeration oracle -------------------------------------------------------


OracleCounts = namedtuple("OracleCounts", "fixed least points")


def _point_period(multiplier, p, vector):
    """Least j >= 1 with multiplier**j * vector = vector mod p, by iterating
    the block map.  A unit mod p returns within p - 1 steps; a non-unit never
    returns (0, ..., 0, 1), so the walk is cut after p steps."""
    point = vector
    for period in range(1, p + 1):
        point = tuple(multiplier * x % p for x in point)
        if point == vector:
            return period
    raise ValueError("multiplier is not a unit mod p")


def enumerate_oracle(plan, component_limit, n_max, max_points=DEFAULT_ENUMERATION_BUDGET):
    """Count periods over the truncated product group by enumeration.

    Each active block (Z/p)^K of the first component_limit components is
    enumerated on its own and every vector's least period is measured by
    _point_period, so neither p nor the multiplier's order is assumed.  A
    product point's least period is the lcm of its blocks' periods, so the
    block tallies fold by lcm of periods and product of counts: the work is
    the sum of p**K, while max_points still caps the product of p**K.
    """
    limit = _check_index(plan, 1, component_limit)
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if max_points < 1:  # the trivial group alone has one point
        raise ValueError("max_points must be positive")
    active = [c for c in plan.components[:limit] if c.K > 0]
    total = 1
    for c in active:
        total *= c.group_order()
        if total > max_points:
            raise BudgetError(
                "truncated group has more than %d points" % max_points
            )

    tally = Counter({1: 1})
    for c in active:
        block = Counter(
            _point_period(c.multiplier, c.p, vector)
            for vector in itertools.product(range(c.p), repeat=c.K)
        )
        folded = Counter()
        for a, count_a in tally.items():
            for b, count_b in block.items():
                folded[math.lcm(a, b)] += count_a * count_b
        tally = folded

    least = [tally[n] for n in range(1, n_max + 1)]
    fixed = [sum(tally[d] for d in divisors(n)) for n in range(1, n_max + 1)]
    return OracleCounts(
        fixed=CountSequence(KIND_FIXED, tuple(fixed)),
        least=CountSequence(KIND_LEAST, tuple(least)),
        points=total,
    )


# --- compensated-strategy deficit certification --------------------------------


DeficitReport = namedtuple("DeficitReport", "negative_budget unverified")


def deficit_report(plan):
    """Certify 0 <= n*C - log F_n < log p_n, for n = 1..N, wherever the
    running budget allows.

    For the compensated strategy the deficit n*C - log F_n is the floor
    remainder of the final budget division, so whenever the running budget
    n*C - sum over proper divisors of K_d*log p_d is nonnegative the deficit
    must land in [0, log p_n).  Both inequalities are certified on the budget
    balls build_plan floors, the final one taking p_n**K_n as one more spent
    term, at escalating precision (they are strict in exact arithmetic: n*C
    never equals the log of an integer, so no precision is a setting here).
    The report lists the n with a negative running budget, which are not
    checked, and the n whose deficit is certified outside the window.
    """
    if plan.strategy != STRATEGY_COMPENSATED:
        raise ValueError("deficit certification applies to the compensated strategy")
    C = plan.target.value
    held = _LogSums(plan.N, precision.DEFAULT_PRECISION_BITS)  # as build_plan holds them
    for comp in plan.components:
        held.add(comp, 2 * comp.n)
    negative_budget, unverified = [], []
    for n in range(1, plan.N + 1):
        comp = plan.components[n - 1]
        spent = _spent(plan.components, n, held)
        balls = {}  # bits -> the budget ball, which in_window takes p_n**K_n off

        def budget_positive(bits):
            lo, hi = balls[bits] = _budget_ball(n, C, spent, bits)
            return True if lo > 0 else False if hi <= 0 else None

        def in_window(bits):
            log_lo, log_hi = log_ball(comp.p, bits)
            lo, hi = balls[bits] if bits in balls else _budget_ball(n, C, spent, bits)
            lo, hi = lo - comp.K * log_hi, hi - comp.K * log_lo
            if hi <= 0 or lo >= log_hi:
                return False
            if lo > 0 and hi < log_lo:
                return True
            return None

        if not adaptive_decide(budget_positive):
            negative_budget.append(n)
        elif not adaptive_decide(in_window):
            unverified.append(n)
    return DeficitReport(tuple(negative_budget), tuple(unverified))


# --- plan files ----------------------------------------------------------------


@unlimited_int_digits()
def plan_to_json(plan):
    """Plan as a JSON-ready dict of decimal strings."""
    obj = {
        "target": plan.target.to_json(),
        "strategy": plan.strategy,
        "N": str(plan.N),
        "components": [
            {
                "n": str(c.n),
                "p": str(c.p),
                "K": str(c.K),
                "multiplier": str(c.multiplier),
            }
            for c in plan.components
        ],
    }
    if plan.gamma is not None:
        obj["gamma"] = str(plan.gamma)
    return obj


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _shaped(value, kind, what):
    """value, if it has the JSON shape (dict, list or str) plan_to_json writes."""
    if not isinstance(value, kind):
        raise ValueError("plan %s must be %s" % (what, _JSON_NAMES[kind]))
    return value


def _decimal_int(text, what):
    """int of an integer field, which plan_to_json writes as a decimal string."""
    if not (isinstance(text, str) and re.fullmatch(r"-?[0-9]+", text)):
        raise ValueError("plan %s must be a decimal string, not %r" % (what, text))
    return int(text)


@unlimited_int_digits()
def plan_from_json(obj):
    """Inverse of plan_to_json, accepting only the shapes it writes (every
    integer a decimal string); a component's legacy "g" field is ignored."""
    _shaped(obj, dict, "file")
    target = GrowthTarget.from_json(_shaped(obj["target"], dict, "target"))
    strategy = obj["strategy"]
    if strategy not in _STRATEGIES[target.kind]:
        raise ValueError("plan strategy %r does not fit a %s target" % (strategy, target.kind))
    gamma = _shaped(obj["gamma"], str, "gamma") if "gamma" in obj else None
    components = []
    for raw in _shaped(obj["components"], list, "components"):
        _shaped(raw, dict, "component")
        components.append(
            ComponentSpec(*(_decimal_int(raw[key], key) for key in ComponentSpec._fields))
        )
    if [c.n for c in components] != list(range(1, len(components) + 1)):
        raise ValueError("components must cover n = 1..N in order")
    if _decimal_int(obj["N"], "N") != len(components):
        raise ValueError("N disagrees with the component list")
    return ConstructionPlan(target=target, strategy=strategy, components=tuple(components),
                            gamma=_checked_gamma(strategy, gamma))


# one component as json.dump(..., indent=2, sort_keys=True) writes it, every value a decimal string
_COMPONENT_JSON = (
    '    {\n      "K": "%d",\n      "multiplier": "%d",\n      "n": "%d",\n      "p": "%d"\n    }'
)


@unlimited_int_digits()
def save_plan(plan, path):
    """Write plan_to_json(plan) to path as json.dump writes it, indented, keys
    sorted, and a newline: json writes the head, and each component fills
    _COMPONENT_JSON, as no decimal string needs escaping."""
    import json  # only plan files read it

    head = json.dumps(plan_to_json(plan._replace(components=())) | {"N": str(plan.N)},
                      indent=2, sort_keys=True)
    before, empty, after = head.partition('"components": []')
    blocks = (_COMPONENT_JSON % (c.K, c.multiplier, c.n, c.p) for c in plan.components)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(before)
        if plan.components:
            fh.write('"components": [\n' + next(blocks))
            fh.writelines(",\n" + block for block in blocks)
            fh.write("\n  ]")
        else:
            fh.write(empty)
        fh.write(after + "\n")


def load_plan(path):
    """Read a plan file and validate() it, so a plan whose closed forms would
    not hold (a composite p, a multiplier of the wrong order) is rejected with
    ValueError naming n instead of being tabulated."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        plan = plan_from_json(json.load(fh))
    plan.validate()
    return plan
