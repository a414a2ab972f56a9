import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import euler_phi
from perigee import numtheory
from perigee.construction import _point_period
from perigee.numtheory import (
    BudgetError,
    FactoredNatural,
    PRIME_BOUND_EXPONENT,
    TRIAL_BOUND,
    divisors,
    element_of_order,
    factorize,
    floor_root,
    is_prime,
    least_prime_congruent_one,
    least_primes_congruent_one,
    mobius,
)


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def test_is_prime_small_exhaustive():
    limit = 100_000
    flags = sieve(limit)
    for n in range(limit + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(561)  # 3 * 11 * 17, a Carmichael number
    assert is_prime(10**9 + 7)


def test_is_prime_strong_pseudoprime_traps():
    # smallest strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_474_749_660_383)
    # some large primes and a semiprime
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)
    assert not is_prime((2**89 - 1) * (2**127 - 1))


def test_is_prime_beyond_deterministic_range():
    # both primes sit above the deterministic base-set limit of ~3.3e24
    p = 10**25 + 13
    q = 10**25 + 223
    assert is_prime(p)
    assert is_prime(q)
    assert not is_prime(p * q)
    assert not is_prime(p + 2)


def test_least_prime_examples():
    assert least_prime_congruent_one(1) == 2
    assert least_prime_congruent_one(6) == 7
    assert least_prime_congruent_one(24) == 73
    assert least_prime_congruent_one(3, search_floor=27) == 31


def test_least_prime_minimality_and_congruence():
    for n in range(1, 300):
        p = least_prime_congruent_one(n)
        assert p % n == 1 % n
        assert is_prime(p)
        # minimality: no smaller candidate in the progression is prime
        q = n + 1
        while q < p:
            assert not (q >= 2 and is_prime(q)) or q % n != 1 % n or q == p
            q += n


def test_least_prime_with_floor():
    p = least_prime_congruent_one(12, search_floor=12**3)
    assert p > 12**3 and p % 12 == 1 and is_prime(p)


def test_sieved_least_primes_match_the_scan(monkeypatch):
    expected = [least_prime_congruent_one(n) for n in range(1, 3001)]
    assert least_primes_congruent_one(3000) == expected
    # a sieve up to 2 * 3000 + 1 misses p_n for over a thousand n, which
    # must then come from the scan above the bound
    scanned = []

    def recording(n, search_floor=0):
        scanned.append(n)
        return least_prime_congruent_one(n, search_floor=search_floor)

    monkeypatch.setattr(numtheory, "SIEVE_FACTOR", 2)
    monkeypatch.setattr(numtheory, "least_prime_congruent_one", recording)
    assert least_primes_congruent_one(3000) == expected
    assert len(scanned) > 1000
    with pytest.raises(ValueError):
        least_primes_congruent_one(0)


def test_sieved_least_primes_at_the_smallest_horizons():
    # n = 1 (p = 2, the even prime), n = 2 and 4 (every candidate odd) and
    # n = 3 (only even k give odd candidates) against the scan
    for n_max in range(1, 5):
        expected = [least_prime_congruent_one(n) for n in range(1, n_max + 1)]
        assert least_primes_congruent_one(n_max) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5000))
@example(0)
@example(1)
@example(2)
@example(3)
@example(9)
@example(25)
@example(5000)
def test_odd_sieve_marks_exactly_the_odd_primes(bound):
    flags = sieve(max(bound, 1))
    marks = numtheory._odd_prime_sieve(bound)
    assert len(marks) == len(range(1, bound + 1, 2))
    assert [2 * i + 1 for i, mark in enumerate(marks) if mark] == [
        m for m in range(3, bound + 1, 2) if flags[m]
    ]


def test_least_prime_budget_error():
    # 25 and 49 are composite, so two candidates are not enough for n = 24
    with pytest.raises(BudgetError):
        least_prime_congruent_one(24, max_candidates=2)


def test_prime_bound_small_sweep():
    # full 10**4 sweep lives in the acceptance suite
    for n in range(2, 500):
        p = least_prime_congruent_one(n)
        assert p <= n**PRIME_BOUND_EXPONENT


def test_element_of_order_examples():
    assert element_of_order(2, 1) == 1
    assert element_of_order(7, 1) == 1
    assert element_of_order(7, 3) == 4
    assert element_of_order(5, 4) == 2
    assert element_of_order(7, 6) == 3


def test_element_of_order_exact_order():
    # every n | p - 1 for p < 200, against brute-force power iteration: the
    # result is a**((p-1)/n) for the least base a whose power has order n
    for p in range(2, 200):
        if not is_prime(p):
            continue
        for n in divisors(p - 1):
            m = element_of_order(p, n)
            assert _point_period(m, p, (1,)) == n
            least = next(
                a for a in range(1, p)
                if _point_period(pow(a, (p - 1) // n, p), p, (1,)) == n
            )
            assert m == pow(least, (p - 1) // n, p)


def test_element_of_order_rejects_bad_order():
    with pytest.raises(ValueError):
        element_of_order(7, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        element_of_order(7, 0)


def test_divisors_and_mobius_examples():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_divisor_sums():
    for n in range(2, 500):
        assert sum(mobius(d) for d in divisors(n)) == 0
    assert sum(mobius(d) for d in divisors(1)) == 1


def test_factorize_reassembles():
    rng = random.Random(20260808)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        fact = factorize(n)
        prod = 1
        for q, e in fact:
            assert is_prime(q)
            prod *= q**e
        assert prod == n


def test_factorize_semiprime_above_trial_bound_is_a_budget_error():
    # both factors exceed TRIAL_BOUND, so trial division cannot split the product
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        factorize(1_000_003 * 1_000_033)
    assert time.perf_counter() - start < 1.0


def test_factorize_keeps_a_prime_cofactor_beyond_the_bound():
    q = 10**13 + 37
    assert is_prime(q) and q > TRIAL_BOUND**2
    assert factorize(2 * q) == ((2, 1), (q, 1))


def test_euler_phi():
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_factored_natural():
    f = FactoredNatural.from_pairs([(7, 2), (2, 1), (3, 1), (7, 1)])
    assert f.factors == ((2, 1), (3, 1), (7, 3))
    assert int(f) == 2058
    assert str(f) == "2^1*3^1*7^3"
    assert str(FactoredNatural.from_pairs([])) == "1"
    assert int(FactoredNatural.from_pairs([(5, 0)])) == 1


def test_floor_root_of_a_huge_index_is_one():
    # construct --strategy subexponential --gamma 1/10**30 asks for the
    # 10**30-th root of n; the first Newton step formed 2**(10**30 - 1)
    assert floor_root(2, 10**30) == floor_root(12, 10**400) == 1
    assert floor_root(2**64 - 1, 64) == 1 and floor_root(2**64, 64) == 2
    for x in range(200):
        for k in range(1, 10):
            r = floor_root(x, k)
            assert r**k <= x < (r + 1) ** k
