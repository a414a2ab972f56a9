"""Exact integer number theory.

Primality testing, least primes in the progression 1 mod n (one n at a time
by a scan, or every n up to a bound from one sieve), elements of prescribed
multiplicative order (found from the factorisation of the order alone, never
of p - 1), divisors, the Moebius function and exact integer roots.  Only
plan indices are ever factored, so factorize is trial division to a fixed
bound (no rho).
All routines are deterministic; pathological inputs raise BudgetError
instead of hanging.
"""

import math
import random
import sys
from collections import namedtuple
from functools import lru_cache

# Least prime p ≡ 1 (mod n) satisfies p <= B * n**5.5 for an effective but
# unpublished constant B (Heath-Brown's sharpening of Linnik's theorem).
# Empirically B = 1 already suffices at desk scale; the test suite sweeps
# 2 <= n <= 10**4 and reports the observed maximum of p / n**5.5.
PRIME_BOUND_EXPONENT = 5.5
PRIME_BOUND_CONSTANT = 1

# Below this limit the strong-pseudoprime base set in _STRONG_BASES is known
# to be complete, so is_prime is fully deterministic.
DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# Above the deterministic limit: Baillie-PSW plus this many random strong
# rounds; the random-round error probability alone is below 4**-64.
RANDOM_ROUNDS = 64

DEFAULT_SCAN_CEILING = 2**40
# least_primes_congruent_one sieves up to SIEVE_FACTOR * n_max + 1, which
# holds p_n for all but 2 of the first 20000 n.
SIEVE_FACTOR = 64
# factorize's trial-division bound: every n < TRIAL_BOUND**2 factors in full.
TRIAL_BOUND = 10**6


class BudgetError(RuntimeError):
    """A search budget or the trial-division bound was exhausted."""


class FactoredNatural(namedtuple("FactoredNatural", "factors")):
    """A positive integer carried as a sorted tuple of (prime, exponent)."""

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs):
        merged = {}
        for pair in pairs:
            p, e = pair
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                merged[p] = (p, merged[p][1] + e) if p in merged else tuple(pair)  # not copied
        return cls(tuple(sorted(merged.values())))

    def __int__(self):
        return math.prod(p**e for p, e in self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join("%d^%d" % (p, e) for p, e in self.factors)


# --- primality -------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# (limit, bases): the bases are a complete strong-pseudoprime witness set for
# every n below the limit.
_STRONG_BASES = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (DETERMINISTIC_LIMIT, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def _odd_prime_sieve(bound):
    """Sieve of Eratosthenes over the odd numbers only: a bytearray s with
    s[i] = 1 exactly when 2*i + 1 <= bound is prime (2 has no entry)."""
    if bound >= sys.maxsize:
        raise BudgetError("a sieve up to %d does not fit in memory" % bound)
    size = (bound + 1) // 2
    sieve = bytearray([1]) * size
    if size:
        sieve[0] = 0  # 1 is not prime
    # Every slice is cut from one zero buffer as long as the longest one, the
    # odd multiples of 3 from 9: about bound/6 bytes, allocated once.
    zeros = memoryview(bytes(len(range(4, size, 3))))
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:  # q = 2i + 1 marks its odd multiples from q**2, index q**2 // 2, step q
            q = 2 * i + 1
            sieve[q * q // 2 :: q] = zeros[: len(range(q * q // 2, size, q))]
    return sieve


_SMALL_PRIME_PRODUCT = 2 * math.prod(
    2 * i + 1 for i, prime in enumerate(_odd_prime_sieve(999)) if prime
)


def _strong_probable_prime(n, base, d, r):
    # n - 1 = d * 2**r with d odd
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _decompose(n):
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    return d, r


def _strong_lucas_probable_prime(n):
    # Selfridge parameters: first D in 5, -7, 9, -11, ... with Jacobi(D|n) = -1.
    def jacobi(a, m):
        a %= m
        result = 1
        while a:
            while a % 2 == 0:
                a //= 2
                if m % 8 in (3, 5):
                    result = -result
            a, m = m, a
            if a % 4 == 3 and m % 4 == 3:
                result = -result
            a %= m
        return result if m == 1 else 0

    if n % 2 == 0 or n < 3:
        return n == 2
    s = math.isqrt(n)
    if s * s == n:
        return False
    D = 5
    while True:
        j = jacobi(D % n, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    P = 1
    Q = (1 - D) // 4

    # Strong test on n + 1 = d * 2**s with d odd.
    d, s2 = _decompose(n + 2)

    # Lucas sequences by binary ladder: U_1 = 1, V_1 = P.
    U, V = 1, P
    Qk = Q % n
    inv2 = pow(2, -1, n)
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) * inv2 % n, (D * U + P * V) * inv2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s2 - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n):
    """Primality test, deterministic below DETERMINISTIC_LIMIT.

    Above the limit: Baillie-PSW plus RANDOM_ROUNDS random strong rounds
    (seeded from n, so the result is reproducible); a composite escaping this
    is less likely than 4**-64 per random round alone.
    """
    if n < 2:
        return False
    if n in _SMALL_PRIMES:
        return True
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return False
    if n > 10**6 and math.gcd(n, _SMALL_PRIME_PRODUCT) > 1:
        return False
    d, r = _decompose(n)
    if n < DETERMINISTIC_LIMIT:
        for limit, bases in _STRONG_BASES:
            if n < limit:
                return all(_strong_probable_prime(n, b, d, r) for b in bases)
    if not _strong_probable_prime(n, 2, d, r):
        return False
    if not _strong_lucas_probable_prime(n):
        return False
    rng = random.Random(n)
    for _ in range(RANDOM_ROUNDS):
        if not _strong_probable_prime(n, rng.randrange(2, n - 1), d, r):
            return False
    return True


# --- prime search ----------------------------------------------------------


def least_prime_congruent_one(n, search_floor=0, max_candidates=DEFAULT_SCAN_CEILING):
    """Least prime p > search_floor with p ≡ 1 (mod n), as an int, by linear scan.

    Scans p = k*n + 1 in increasing order (for n = 1 that is every integer
    above the floor).  Dirichlet guarantees termination; the candidate budget
    turns an absurd input into a BudgetError instead of a hang.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if search_floor < 0:
        raise ValueError("search floor must be nonnegative")
    k = max(1, (search_floor - 1) // n + 1)
    for _ in range(max_candidates):
        candidate = k * n + 1
        if candidate > search_floor and candidate >= 2 and is_prime(candidate):
            return candidate
        k += 1
    raise BudgetError(
        "no prime ≡ 1 (mod %d) above %d within %d candidates" % (n, search_floor, max_candidates)
    )


def least_primes_congruent_one(n_max):
    """[p_1, ..., p_n_max]: p_n = least_prime_congruent_one(n) for every n.

    One sieve of the odd numbers up to SIEVE_FACTOR * n_max + 1, a bytearray
    of about half that many bytes, serves every n: p_n is its least prime
    k*n + 1 with k >= 1.  For odd n >= 3 every odd k gives an even candidate,
    so only k = 2, 4, ... are read, one step of n entries (2n integers) at a
    time.  An n with no such prime below the bound continues with
    least_prime_congruent_one from the bound.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    bound = SIEVE_FACTOR * n_max + 1
    sieve = _odd_prime_sieve(bound)
    primes = [2]  # 1*1 + 1, the one even prime in any progression
    for n in range(2, n_max + 1):
        step = n if n % 2 else n // 2  # entries between consecutive odd candidates
        i = next((i for i in range(step, len(sieve), step) if sieve[i]), None)
        primes.append(2 * i + 1 if i else least_prime_congruent_one(n, search_floor=bound))
    return primes


def floor_root(x, k):
    """Largest r >= 0 with r**k <= x, exactly."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x
    if x.bit_length() <= k:  # 2 <= x < 2**k; for a huge k, r**(k - 1) is too large to form
        return 1
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


# --- factorisation ---------------------------------------------------------


def factorize(n):
    """Full factorisation as a sorted tuple of (prime, exponent) pairs.

    Trial division by 2, 3, 5 and a mod-30 wheel up to TRIAL_BOUND.  A
    cofactor left with no factor up to the bound is kept if is_prime accepts
    it; a composite one raises BudgetError.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    factors = {}
    for q in (2, 3, 5):
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f <= TRIAL_BOUND:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    # Stopped below the square root: the cofactor is undecided by division.
    if f * f <= n and not is_prime(n):
        raise BudgetError("%d has no factor up to %d and is not prime" % (n, TRIAL_BOUND))
    if n > 1:
        factors[n] = 1
    return tuple(sorted(factors.items()))


# --- prescribed orders --------------------------------------------------------


def element_of_order(p, n):
    """An element of multiplicative order exactly n mod the prime p.

    Returns h = a**((p-1)/n) mod p for the least base a >= 2 with
    h**(n/q) != 1 for every prime q | n (and 1 for n = 1).  Every such h has
    h**n = 1, so the test certifies order exactly n from the factorisation
    of n alone.  For prime p a fraction phi(n)/n of all bases succeeds, so
    the search ends quickly; p itself is not re-tested for primality.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if (p - 1) % n != 0:
        raise ValueError("%d does not divide p - 1 = %d" % (n, p - 1))
    if n == 1:
        return 1
    cofactor = (p - 1) // n
    exponents = [n // q for q, _ in factorize(n)]
    for a in range(2, p):
        h = pow(a, cofactor, p)
        if all(pow(h, e, p) != 1 for e in exponents):
            return h
    raise ArithmeticError("no element of order %d mod %d" % (n, p))  # unreachable for prime p


# --- divisors and Moebius ----------------------------------------------------


@lru_cache(maxsize=None)
def divisors(n):
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors needs a positive integer")
    divs = [1]
    for q, e in factorize(n):
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


@lru_cache(maxsize=None)
def mobius(n):
    """Moebius function: 0 on non-squarefree n, else (-1)**(number of primes)."""
    if n < 1:
        raise ValueError("mobius needs a positive integer")
    fact = factorize(n)
    if any(e > 1 for _, e in fact):
        return 0
    return -1 if len(fact) % 2 else 1
