"""Integer sequences |det(M^n - I)| for companion matrices, and Mahler measures.

For a monic integer polynomial f with roots a_1..a_d, the quantity
delta_n = product of |a_i^n - 1| is an integer: it equals |det(M^n - I)| for
the companion matrix M of f, and also |Res(f, x^n - 1)|.  Two routes:

* toral_fix_sequence, the sequence `lehmer` prints, steps each root's power
  a^n as a fixed-point Gaussian ball from its certified disk and reads delta_n
  as the one integer in the ball of the product of a^n - 1, at one scale sized
  from N and the Mahler measure (J. van der Hoeven, "Ball arithmetic", 2009).
* delta_n_resultant, the resultant oracle: the integer subresultant of f and
  (x^n - 1) mod f.  It shares _remainders with the square-free split that the
  roots' disks come from, but not the ball products.  The determinant oracle,
  a Bareiss determinant of M^n - I in tests/oracles.py, shares no code with
  either.

When f does not vanish at any root of unity, delta_n is the number of points
of period n of the toral automorphism induced by M, and its logarithmic
growth rate is the Mahler measure m(f) = sum of max(log |a_i|, 0).
mahler_measure certifies it as an integer ball over the square-free parts of
f, split by gcds from the integer subresultant remainder sequence: roots from
float Aberth-Ehrlich iteration, refined and enclosed in fixed-point Gaussian
integers.  Those enclosures are the disks toral_fix_sequence starts from, so
both raise PrecisionError where the roots do not certify.
"""

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .orbits import KIND_FIXED, CountSequence
from .precision import (DEFAULT_PRECISION_BITS, GUARD_BITS, PrecisionError, ball_digits,
                        digits_for_bits, escalate, log_enclosure)


class DegeneracyError(ValueError):
    """The polynomial vanishes at a root of unity (delta_n hits zero)."""

    def __init__(self, cyclotomic_index, message):
        super().__init__(message)
        self.cyclotomic_index = cyclotomic_index


class IntegerPolynomial(namedtuple("IntegerPolynomial", "coefficients")):
    """Monic integer polynomial, coefficients stored low-to-high."""

    __slots__ = ()

    def __new__(cls, coefficients):
        if len(coefficients) < 2:
            raise ValueError("degree must be at least 1")
        if coefficients[-1] != 1:
            raise ValueError("polynomial must be monic")
        if not all(isinstance(c, int) for c in coefficients):
            raise ValueError("coefficients must be integers")
        return super().__new__(cls, coefficients)

    # _replace builds through _make, which would skip __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def parse(cls, text):
        """Comma-separated integers c0,c1,...,cd with cd = 1."""
        try:
            coeffs = tuple(int(part.strip()) for part in text.split(","))
        except ValueError as exc:
            raise ValueError("cannot parse polynomial %r" % text) from exc
        return cls(coeffs)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __str__(self):
        return ",".join(str(c) for c in self.coefficients)


# --- polynomial plumbing (dense lists, low-to-high) ---------------------------


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_divmod_monic_int(a, b):
    """Exact integer divmod when b is monic with integer coefficients."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        coef = a[i]
        if coef:
            q[i - db] = coef
            for j in range(db + 1):
                a[i - db + j] -= coef * b[j]
    return q, _trim(a)


# --- cyclotomic degeneracy -----------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(k):
    """Coefficients of the k-th cyclotomic polynomial (low-to-high)."""
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = [-1] + [0] * (k - 1) + [1]  # x**k - 1
    for d in range(1, k):
        if k % d == 0:
            poly, rem = _poly_divmod_monic_int(poly, cyclotomic(d))
            assert not rem
    return tuple(poly)


def cyclotomic_factor_index(f):
    """Smallest k with gcd(f, Phi_k) nontrivial, or None.  Phi_k is irreducible,
    so that is Phi_k | f, a zero remainder of the exact division by monic Phi_k.

    Only k with phi(k) <= deg f can contribute; since phi(k) >= sqrt(k/2),
    scanning k <= 2*deg**2 + 6 is exhaustive.
    """
    d, bound = f.degree, 2 * f.degree**2 + 7
    phi = list(range(bound))  # Euler's totient by a sieve over the primes q
    for q in range(2, bound):
        if phi[q] == q:
            for m in range(q, bound, q):
                phi[m] -= phi[m] // q
    for k in range(1, bound):
        if phi[k] <= d and not _poly_divmod_monic_int(f.coefficients, cyclotomic(k))[1]:
            return k
    return None


# --- exact delta_n --------------------------------------------------------------


def _remainders(a, b):
    """The last pair (a, b), b zero or constant, of the subresultant remainder
    sequence of integer lists (low to high) a != 0 and b, deg a >= deg b, with its
    sign s and its h; if b is zero, a is a multiple of gcd(a, b).  Every division
    is exact, so no Fraction is formed (Collins 1967, Brown 1978; Cohen, Alg. 3.3.7
    without its optional content extraction)."""
    a, b = _trim(a), _trim(b)
    s = g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            s = -s
        # pseudo-remainder: lead(b)^(delta + 1) a = b q + r
        r, lead, db = a, b[-1], len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = r[i]
            r = [lead * x for x in r[:i]]
            for j in range(db):
                r[i - db + j] -= c * b[j]
        a, b = b, [x // (g * h**delta) for x in _trim(r)]
        g = a[-1]
        h = h * g**delta // h**delta
    return a, b, s, h


def _subresultant(a, b):
    """Res(a, b) for integer coefficient lists (low to high), a nonzero and
    deg a >= deg b: lead(a)^deg(b) times the product of b over the roots of a,
    read from the last pair of _remainders."""
    a, b, s, h = _remainders(a, b)
    if not b:
        return 0
    da = len(a) - 1
    return s * (h * b[0] ** da // h**da)


def delta_n_resultant(f, n):
    """|Res(f, x^n - 1)| = |Res(f, (x^n - 1) mod f)|, f monic, by _subresultant.

    Independent of the ball products and of the determinant route; all must agree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    r = _poly_divmod_monic_int([-1] + [0] * (n - 1) + [1], f.coefficients)[1]
    return abs(_subresultant(list(f.coefficients), r))


def _working_bits(n_max, degree, measure):
    """Scale of toral_fix_sequence's balls: delta_n <= 2**d M(f)**n, and a root's
    power and its factor widen by about n ulps each, so N m(f) / log 2 + 2d +
    2 log2 N and 16 bits of slack; at least the measure's scale."""
    bits = n_max * measure.hi * 14427 // (10000 << measure.scale)  # 1/log 2 < 1.4427
    return max(bits + 2 * degree + 2 * n_max.bit_length() + 16, measure.scale)


def _ball_products(f, n_max, bits):
    """(delta_1, ..., delta_N) from the roots' disks at scale bits, each the one
    integer in a ball of the product of a^n - 1; None if a disk does not certify
    or a ball holds more than one integer.  A disk above the real axis stands for
    its root a and the conjugate, by |a^n - 1|**2, and a disk below it is skipped,
    once no disk across the axis meets the mirror image of one off it."""
    found = _enclose(f, bits, DEFAULT_PRECISION_BITS)
    across = found and [r for r in found[2] if abs(r.y) <= r.bound]
    if not found or any((r.x - c.x) ** 2 + (r.y + c.y) ** 2 <= (r.bound + c.bound) ** 2
                        for r in found[2] if abs(r.y) > r.bound for c in across):
        return None
    one, values = 1 << bits, []
    # x, y and radius of a disk, a bound on |a|, whether it is a pair, and a^n's ball
    roots = [[r.x, r.y, r.bound, math.isqrt(r.x**2 + r.y**2) + 1 + r.bound, r.y > r.bound,
              one, 0, 0] for r in found[2] if r.y >= -r.bound]
    for n in range(1, n_max + 1):
        re, im, rad = one, 0, 0
        for root in roots:
            x, y, r, size, pair, px, py, pr = root
            # each part of a product rounds down, by less than 2 ulps in all
            root[5:] = px, py, pr = (px * x - py * y >> bits, px * y + py * x >> bits,
                                     ((abs(px) + abs(py)) * r + pr * size >> bits) + 3)
            px -= one
            if pair:
                px, py, pr = (px * px + py * py >> bits, 0,
                              (pr * (2 * abs(px) + 2 * abs(py) + pr) >> bits) + 2)
            re, im, rad = (re * px - im * py >> bits, re * py + im * px >> bits,
                           ((abs(re) + abs(im)) * pr + rad * (abs(px) + abs(py) + pr) >> bits) + 3)
        lo, hi = -(-(re - rad) >> bits), re + rad >> bits
        assert lo <= hi and abs(im) <= rad, "an empty ball at n = %d" % n
        if lo < hi:
            return None
        values.append(abs(lo))
    return tuple(values)


def toral_fix_sequence(f, n_max):
    """(delta_1, ..., delta_N) as a fixed-count sequence, from _ball_products at
    _working_bits, doubled at most three times.

    Rejects polynomials vanishing at a root of unity: those hit delta_n = 0,
    and the induced toral map no longer has finite period counts at every n.
    The exact scan for them runs only when a root's disk meets the unit circle
    or the roots do not certify; then mahler_measure raises PrecisionError.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    start = _enclose(f, DEFAULT_PRECISION_BITS + GUARD_BITS, DEFAULT_PRECISION_BITS)
    if not start or any(r.near_unit for r in start[2]):
        k = cyclotomic_factor_index(f)
        if k is not None:
            raise DegeneracyError(k, "polynomial shares a factor with cyclotomic index %d" % k)
    bits = _working_bits(n_max, f.degree, mahler_measure(f))
    for _ in range(4):
        values = _ball_products(f, n_max, bits)
        if values:
            return CountSequence(KIND_FIXED, values)
        bits *= 2
    raise PrecisionError("delta_n still undecided at %d bits" % (bits // 2))


# --- Mahler measure --------------------------------------------------------------


# A root within bound of x + iy, in a cluster with moduli in [lower, upper], all over 2**scale
RootEnclosure = namedtuple("RootEnclosure", "x y scale bound lower upper near_unit")


class MahlerResult(namedtuple("MahlerResult", "polynomial scale lo hi roots precision_bits")):
    """lo <= m(f) * 2**scale <= hi, a ball whose ends print alike at precision_bits."""

    __slots__ = ()
    flagged = property(lambda m: tuple(i for i, r in enumerate(m.roots) if r.near_unit))

    def ball(self, bits):
        """(lo, hi) with lo <= m(f) * 2**bits <= hi, refined above scale."""
        found = bits > self.scale and _enclose(self.polynomial, bits, self.precision_bits)
        lo, hi, scale = (*found[:2], bits) if found else (self.lo, self.hi, self.scale)
        return lo << bits >> scale, -(-hi << bits >> scale)


def _aberth(coeffs, edges):
    """The roots of monic f to float precision, or None, by Aberth-Ehrlich iteration
    from b - a points on the circle of radius |c_a / c_b|**(1/(b - a)) for each (a, b)
    of edges, with f(z)/f'(z) from the reversed polynomial in 1/z where |z| > 1 (O. Aberth,
    Math. Comp. 27, 1973; D. A. Bini and G. Fiorentino, Numer. Algorithms 23, 2000)."""
    d = len(coeffs) - 1
    try:
        low = [complex(c) for c in coeffs]
        roots = [abs(low[a] / low[b]) ** (1 / (b - a))
                 * cmath.exp(1j * (2 * math.pi * k / (b - a) + 2 * math.pi * a / d + 0.4))
                 for a, b in edges for k in range(b - a)]
        for _ in range(100):
            done = True
            for i, z in enumerate(roots):
                big = abs(z) > 1
                y, p, q = 1 / z if big else z, 0, 0
                for c in low if big else reversed(low):
                    p, q = p * y + c, q * y + p
                ratio = z * p / (d * p - y * q) if big else p / q
                w = ratio / (1 - ratio * sum(1 / (z - u) for u in roots[:i] + roots[i + 1:]))
                roots[i] = z = z - w
                done = done and abs(w) <= 1e-10 * abs(z)
            if done and all(map(cmath.isfinite, roots)):
                return tuple(roots)
    except (OverflowError, ZeroDivisionError):
        return None


@lru_cache(maxsize=16)
def _float_start(coeffs):
    """_aberth's roots of monic f, f(0) != 0, from the circle of radius
    |f(0)|**(1/d); if that fails, from the edges of the upper convex hull of the
    points (i, log |c_i|), so that roots of very different sizes start near their
    own moduli (D. A. Bini, Numer. Algorithms 13, 1996)."""
    hull = []
    for i, c in enumerate(coeffs):
        if c:
            y = math.log(abs(c))
            while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (i - hull[-1][0])
                                     <= (y - hull[-1][1]) * (hull[-1][0] - hull[-2][0])):
                hull.pop()
            hull.append((i, y))
    edges = [(a, b) for (a, _), (b, _) in zip(hull, hull[1:])]
    found = _aberth(coeffs, [(0, len(coeffs) - 1)])
    return _aberth(coeffs, edges) if found is None and len(edges) > 1 else found


def _newton(coeffs, start, b):
    """The float start refined by Newton steps on x + iy = z * 2**b, each root
    until a step moves it under 2**(b/2) ulps; None if one does not get there.
    A start keeps 60 fractional bits, and 60 bits past its lead if |z| < 1/2."""
    roots = []
    for z in start or ():
        shift = 60 - min(0, math.frexp(abs(z))[1])
        x, y = (int(Fraction(t) * 2**shift) << b >> shift for t in (z.real, z.imag))
        for _ in range(b.bit_length() + 4):
            pr, pi, qr, qi = 1 << b, 0, 0, 0  # f(z) and f'(z) times 2**b, by Horner
            for c in reversed(coeffs[:-1]):
                qr, qi = (qr * x - qi * y >> b) + pr, (qr * y + qi * x >> b) + pi
                pr, pi = (pr * x - pi * y >> b) + (c << b), pr * y + pi * x >> b
            norm = qr * qr + qi * qi
            if not norm:
                return None
            dx, dy = (pr * qr + pi * qi << b) // norm, (pi * qr - pr * qi << b) // norm
            x, y = x - dx, y - dy
            if abs(dx) + abs(dy) < 1 << b // 2:
                break
        else:
            return None
        roots.append((x, y))
    return None if start is None else roots


def _square_free_parts(coeffs):
    """Monic P_1, P_2, ... with product f, P_i = g_(i-1) / g_i for g_0 = f and g_i =
    gcd(g_(i-1), g_(i-1)'): the roots of multiplicity at least i, each once.  The gcd
    is _remainders' last a over its lead, exact since g is monic, or 1."""
    parts, g = [], list(coeffs)
    while len(g) > 1:
        a, b = _remainders(g, [i * c for i, c in enumerate(g)][1:])[:2]
        a = [1] if b else [c // a[-1] for c in a]
        parts.append(tuple(_poly_divmod_monic_int(g, a)[0]))
        g = a
    return parts


def _certify(coeffs, roots, b, precision_bits):
    """(lo, hi, enclosures), lo <= m(f) * 2**b <= hi, from approximations (x, y)
    = z * 2**b of the roots of monic f; None if two coincide or a cluster
    straddles the unit circle wider than 2**-precision_bits.  Each root lies in
    a disk D(z_i, d |f(z_i)| / prod over j != i of |z_i - z_j|), a component of
    k disks holding k roots (D. Braess and K. P. Hadeler, Numer. Math. 21, 1973);
    its squared radius is an exact rational, rounded up; each enclosure's bound
    reaches over its component, so the k roots of a component can be matched to
    its k enclosures one to one.  A cluster of k roots
    with moduli in [lo, hi] adds [k log lo, k log hi] outside the circle and
    [0, k log hi] across it."""
    if roots is None:
        return None
    d, one, g, band = len(roots), 1 << b, GUARD_BITS, 1 << b - precision_bits
    radii, cluster = [], list(range(d))
    for i, (x, y) in enumerate(roots):
        re, im = 1, 0
        for k, c in enumerate(reversed(coeffs[:-1]), start=1):
            re, im = re * x - im * y + (c << b * k), re * y + im * x
        sep = [(x - u) ** 2 + (y - v) ** 2 for j, (u, v) in enumerate(roots) if j != i]
        while len(sep) > 1:  # in pairs, so that Karatsuba multiplies balanced halves
            sep = [math.prod(sep[k:k + 2]) for k in range(0, len(sep), 2)]
        sep = math.prod(sep)
        if not sep:
            return None
        radii.append(math.isqrt(d * d * (re * re + im * im) // sep) + 1)
        for j, (u, v) in enumerate(roots[:i]):
            if (x - u) ** 2 + (y - v) ** 2 <= (radii[i] + radii[j]) ** 2:
                cluster = [cluster[j] if c == cluster[i] else c for c in cluster]
    lo = hi = 0
    log2_lo, log2_hi = log_enclosure(2, b + g)
    enclosures = [None] * d
    for label in set(cluster):
        group = [i for i in range(d) if cluster[i] == label]
        moduli = [(math.isqrt(roots[i][0] ** 2 + roots[i][1] ** 2), radii[i]) for i in group]
        low, high = max(min(m - r for m, r in moduli), 0), max(m + r + 1 for m, r in moduli)
        near = low <= one <= high
        if near and not one - band <= low <= high <= one + band:
            return None
        if high > one:
            hi += len(group) * (log_enclosure(high << g, b + g)[1] - (b + g) * log2_lo)
        if low > one:
            lo += len(group) * max(log_enclosure(low << g, b + g)[0] - (b + g) * log2_hi, 0)
        for i in group:  # a disk about z_i over the whole component holds a root
            x, y = roots[i]
            reach = max(math.isqrt((x - roots[j][0]) ** 2 + (y - roots[j][1]) ** 2) + 1 + radii[j]
                        for j in group)
            enclosures[i] = RootEnclosure(x, y, b, reach, low, high, near)
    lo, hi = lo >> g, -(-hi >> g)
    # m(f) > 0 forces m(f) > 1/(104 d log 6d) (A. Blanksby and H. L. Montgomery,
    # Acta Arith. 18, 1971: M(a) > 1 + 1/(52 d log 6d) unless a is a root of unity)
    if hi * 1024 * d * (6 * d).bit_length() < one:
        lo = hi = 0
    return lo, hi, tuple(enclosures)


@lru_cache(maxsize=16)
def _enclose(f, bits, precision_bits):
    """_certify's balls and enclosures for f at scale bits, summed over the
    square-free parts of f, each from its own float start refined by Newton; a
    root at 0 is exact.  None if a part does not certify, as when a coefficient
    is beyond float range."""
    zeros = next(i for i, c in enumerate(f.coefficients) if c)
    parts = [_certify(part, _newton(part, _float_start(part), bits), bits, precision_bits)
             for part in _square_free_parts(f.coefficients[zeros:])]
    if None in parts:
        return None
    zero = RootEnclosure(0, 0, bits, 0, 0, 0, False)
    return (sum(part[0] for part in parts), sum(part[1] for part in parts),
            sum((part[2] for part in parts), (zero,) * zeros))


def mahler_measure(f, precision_bits=DEFAULT_PRECISION_BITS):
    """Certified Mahler measure m(f), the sum of max(log |root|, 0), as an integer
    ball at b = precision_bits + guard bits, doubled until its ends print alike
    at precision_bits; roots within 2**-precision_bits of the unit circle are
    flagged."""
    dps = digits_for_bits(precision_bits)

    def attempt(bits):
        found = _enclose(f, bits, precision_bits)
        return found and ball_digits(*found[:2], bits, dps) and MahlerResult(
            f, bits, *found, precision_bits)

    return escalate(attempt, precision_bits + GUARD_BITS)
