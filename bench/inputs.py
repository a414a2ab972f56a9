"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of the seed, so the same seed always gives
byte-identical input files.  The arithmetic here (divisor sums, 2x2 matrix
powers) is the harness's own and never calls into perigee, so the inputs do
not depend on the code under test.
"""

import math
import random
from fractions import Fraction

DEFAULT_SEED = 0

# construct-compensated: C is drawn from the rationals in [9/10, 11/10] with
# denominator <= 100; the default seed pins the reference value C = 1.
C_LOW = Fraction(9, 10)
C_HIGH = Fraction(11, 10)
C_MAX_DENOMINATOR = 100

# Read-side inputs.
R_LENGTH = 3000
Q_LENGTH = 256
Q_TRACE_RANGE = (3, 6)

# Lehmer's degree-10 polynomial, low-to-high; its Mahler measure is the log of
# Lehmer's number 1.17628081825991750654...
LEHMER_POLY = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
LEHMER_MAHLER = Fraction("0.16235761200773813943")
LEHMER_MAHLER_DIGITS = 20


def _rng(seed, stream):
    # One independent stream per input, so adding an input never shifts
    # the values of another.
    return random.Random("%d:%s" % (seed, stream))


def growth_constant(seed):
    """The compensated-strategy growth target C for this seed."""
    if seed == DEFAULT_SEED:
        return Fraction(1)
    candidates = sorted(
        {
            Fraction(a, b)
            for b in range(1, C_MAX_DENOMINATOR + 1)
            for a in range(math.ceil(C_LOW * b), math.floor(C_HIGH * b) + 1)
        }
    )
    return _rng(seed, "C").choice(candidates)


def divisor_lists(n_max):
    """divs[n] = ascending divisors of n, for 1 <= n <= n_max (sieve)."""
    divs = [[] for _ in range(n_max + 1)]
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            divs[m].append(d)
    return divs


def realizable_sequence(seed, length=R_LENGTH):
    """R: F_n = sum over d | n of d * o_d with o_d uniform in [1, 2**d].

    o_d counts the orbits of length d, so R is realizable; random orbit
    counts make its zeta function non-rational.
    """
    rng = _rng(seed, "R")
    orbits = [0] + [rng.randint(1, 1 << d) for d in range(1, length + 1)]
    divs = divisor_lists(length)
    return [sum(d * orbits[d] for d in divs[n]) for n in range(1, length + 1)]


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def toral_matrix(seed):
    """A seeded A in SL2(Z) with trace in Q_TRACE_RANGE: a conjugate of the
    companion matrix of x**2 - t*x + 1 by a random unimodular P."""
    rng = _rng(seed, "Q")
    t = rng.randint(*Q_TRACE_RANGE)
    a, b = rng.randint(-4, 4), rng.randint(-4, 4)
    p = _mat_mul(((1, a), (0, 1)), ((1, 0), (b, 1)))
    p_inv = ((p[1][1], -p[0][1]), (-p[1][0], p[0][0]))
    return _mat_mul(_mat_mul(p, ((t, -1), (1, 0))), p_inv)


def toral_sequence(matrix, length=Q_LENGTH):
    """Q: F_n = |tr(A**n) - 2|, the period counts of the toral map of A."""
    values = []
    power = matrix
    for n in range(1, length + 1):
        if n > 1:
            power = _mat_mul(power, matrix)
        values.append(abs(power[0][0] + power[1][1] - 2))
    return values


def toral_zeta(matrix):
    """Q's zeta function (1 - z)**2 / (1 - t*z + z**2), coefficient lists
    low-to-high, as the probe must print them."""
    t = matrix[0][0] + matrix[1][1]
    return (1, -2, 1), (1, -t, 1)


def write_sequence(path, values):
    """The shared sequence CSV format: header n,value then one row per n."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,value\n")
        for n, v in enumerate(values, start=1):
            fh.write("%d,%d\n" % (n, v))
