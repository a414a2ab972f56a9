"""Integer sequences |det(M^n - I)| for companion matrices, and Mahler measures.

For a monic integer polynomial f with roots a_1..a_d, the quantity
delta_n = product of |a_i^n - 1| is an integer: it equals |det(M^n - I)| for
the companion matrix M of f, and also |Res(f, x^n - 1)|.  Three routes:

* toral_fix_sequence, the sequence `lehmer` prints, steps r_n = x^n mod f by
  one monic division per n and takes Res(f, r_n - 1) = Res(f, x^n - 1) (f is
  monic) by the integer subresultant remainder sequence, O(d^2) per n.
* delta_n, the determinant oracle: M is multiplication by x on Z[x]/(f), so
  column j of M^n is r_(n+j).  It finds r_n by square-and-multiply and ends
  in a fraction-free (Bareiss) determinant of M^n - I.
* delta_n_resultant, the resultant oracle: a rational remainder chain on
  x^n - 1 that shares no code with the other two.

When f does not vanish at any root of unity, delta_n is the number of points
of period n of the toral automorphism induced by M, and its logarithmic
growth rate is the Mahler measure

    m(f) = sum of max(log |a_i|, 0),

which this module computes from numerically isolated roots with certified
error radii.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .numtheory import euler_phi
from .orbits import KIND_FIXED, CountSequence
from .precision import DEFAULT_PRECISION_BITS, digits_for_bits, working_precision


class DegeneracyError(ValueError):
    """The polynomial vanishes at a root of unity (delta_n hits zero)."""

    def __init__(self, cyclotomic_index, message):
        super().__init__(message)
        self.cyclotomic_index = cyclotomic_index


class ConvergenceError(ArithmeticError):
    """Root isolation did not certify within the iteration budget."""


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


def _poly_divmod(a, b):
    """Quotient and remainder over the rationals; b must be nonzero."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in _trim(b)]
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    lead = b[db]
    q = [Fraction(0)] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        coef = a[i] / lead
        if coef:
            q[i - db] = coef
            for j in range(db + 1):
                a[i - db + j] -= coef * b[j]
    return q, _trim(a)


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


def _resultant(a, b):
    """Resultant of dense rational coefficient lists, by remainder chains."""
    a = [Fraction(x) for x in _trim(a)]
    b = [Fraction(x) for x in _trim(b)]
    if not a or not b:
        return Fraction(0)
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    if da < db:
        sign = -1 if (da * db) % 2 else 1
        return sign * _resultant(b, a)
    _, r = _poly_divmod(a, b)
    r = _trim(r)
    if not r:
        return Fraction(0)
    dr = len(r) - 1
    sign = -1 if (da * db) % 2 else 1
    return sign * b[-1] ** (da - dr) * _resultant(b, r)


# --- cyclotomic degeneracy -----------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(k):
    """Coefficients of the k-th cyclotomic polynomial (low-to-high)."""
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = [-1] + [0] * (k - 1) + [1]  # x**k - 1
    for d in range(1, k):
        if k % d == 0:
            poly, rem = _poly_divmod_monic_int(poly, list(cyclotomic(d)))
            assert not rem
    return tuple(poly)


def cyclotomic_factor_index(f):
    """Smallest k with gcd(f, Phi_k) nontrivial, that is Res(f, Phi_k) = 0, or None.

    Only k with phi(k) <= deg f can contribute; since phi(k) >= sqrt(k/2),
    scanning k <= 2*deg**2 + 6 is exhaustive.
    """
    d = f.degree
    for k in range(1, 2 * d * d + 7):
        if euler_phi(k) <= d and _subresultant(list(f.coefficients), list(cyclotomic(k))) == 0:
            return k
    return None


# --- exact delta_n --------------------------------------------------------------


def _residues(f, n=1):
    """Yield x^k mod f for k = n, n + 1, ..., as the module docstring says."""
    residue = [1]
    for bit in bin(n)[2:]:
        square = [0] * (2 * len(residue) - 1)
        for i, a in enumerate(residue):
            for j, b in enumerate(residue):
                square[i + j] += a * b
        _, residue = _poly_divmod_monic_int([0] * int(bit) + square, f.coefficients)
    while True:
        yield residue
        _, residue = _poly_divmod_monic_int([0] + residue, f.coefficients)


def _subresultant(a, b):
    """Res(a, b) for integer coefficient lists (low to high), a nonzero and
    deg a >= deg b: lead(a)^deg(b) times the product of b over the roots of a.

    The subresultant remainder sequence (Collins 1967, Brown 1978; Cohen,
    Alg. 3.3.7 without its optional content extraction): every division is
    exact, so no Fraction is formed.
    """
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
    if not b:
        return 0
    da = len(a) - 1
    return s * (h * b[0] ** da // h**da)


def _det_bareiss(m):
    """Exact integer determinant by fraction-free elimination."""
    a = [row[:] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def delta_n(f, n):
    """|det(M^n - I)| with exact integer arithmetic (x^n mod f, then Bareiss)."""
    if n < 1:
        raise ValueError("n must be positive")
    d = f.degree
    columns = [r + [0] * (d - len(r)) for r in islice(_residues(f, n), d)]
    for j, column in enumerate(columns):
        column[j] -= 1
    # the rows are the columns of M^n - I; transposing keeps the determinant
    return abs(_det_bareiss(columns))


def delta_n_resultant(f, n):
    """|Res(f, x^n - 1)| by exact remainder-chain resultants.

    Independent of the determinant route; the two must agree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    g = [-1] + [0] * (n - 1) + [1]
    res = _resultant(list(f.coefficients), g)
    assert res.denominator == 1
    return abs(res.numerator)


def toral_fix_sequence(f, n_max):
    """(delta_1, ..., delta_N) as a fixed-count sequence.

    Rejects polynomials vanishing at a root of unity: those hit delta_n = 0,
    and the induced toral map no longer has finite period counts at every n.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    k = cyclotomic_factor_index(f)
    if k is not None:
        raise DegeneracyError(k, "polynomial shares a factor with cyclotomic index %d" % k)
    coeffs = list(f.coefficients)
    residues = islice(_residues(f), n_max)  # x^n mod f is [] when f is a power of x
    values = (abs(_subresultant(coeffs, [(r or [0])[0] - 1] + r[1:])) for r in residues)
    return CountSequence(KIND_FIXED, tuple(values))


# --- Mahler measure --------------------------------------------------------------


# value is an mpc approximation; radius an mpf, a certified distance bound to
# the residing cluster, and the modulus bounds mpfs
RootEnclosure = namedtuple(
    "RootEnclosure", "value radius modulus_lower modulus_upper near_unit"
)


class MahlerResult(namedtuple("MahlerResult", "measure error_bound roots precision_bits")):
    __slots__ = ()

    @property
    def flagged(self):
        return tuple(i for i, r in enumerate(self.roots) if r.near_unit)


def _certified_enclosures(coeffs_desc, degree, tol):
    """Roots with certified radii at the current working precision.

    Radii use the classical covering bound for monic f: every root of f lies
    in the union of disks D(z_i, d*|f(z_i)| / prod_{j != i} |z_i - z_j|), and
    a connected component of k disks holds exactly k roots.  Returns None if
    the disks are not yet tight enough to classify every modulus against the
    unit circle at tolerance tol.
    """
    from mpmath import mp
    from mpmath.libmp import NoConvergence

    try:
        roots = mp.polyroots(coeffs_desc, maxsteps=200, extraprec=mp.prec)
    except NoConvergence:
        return None
    # Guard factor absorbs rounding in the radius evaluation itself.
    guard = 1 + mp.mpf(2) ** (-mp.prec // 2)
    radii = []
    for i, z in enumerate(roots):
        sep = mp.mpf(1)
        for j, w in enumerate(roots):
            if i != j:
                sep *= abs(z - w)
        if sep == 0:
            return None
        residual = abs(mp.polyval(coeffs_desc, z))
        radii.append(degree * residual / sep * guard)

    # Union-find over intersecting disks.
    parent = list(range(degree))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(degree):
        for j in range(i + 1, degree):
            if abs(roots[i] - roots[j]) <= radii[i] + radii[j]:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj

    clusters = {}
    for i in range(degree):
        clusters.setdefault(find(i), []).append(i)

    enclosures = [None] * degree
    for members in clusters.values():
        lo = min(max(abs(roots[i]) - radii[i], mp.mpf(0)) for i in members)
        hi = max(abs(roots[i]) + radii[i] for i in members)
        if hi - lo > tol / 2:
            return None
        if lo > 1 or hi < 1:
            near = False
        elif lo >= 1 - tol and hi <= 1 + tol:
            near = True
        else:
            return None
        for i in members:
            enclosures[i] = RootEnclosure(
                value=roots[i],
                radius=radii[i],
                modulus_lower=lo,
                modulus_upper=hi,
                near_unit=near,
            )
    return enclosures


def mahler_measure(f, precision_bits=DEFAULT_PRECISION_BITS):
    """Certified Mahler measure: sum of max(log |root|, 0).

    Roots are isolated by simultaneous iteration at escalating working
    precision until every certified modulus interval is decisively above the
    unit circle, below it, or within 2**-precision_bits of it.  Near-unit
    roots contribute zero and are flagged; their possible contribution is
    folded into error_bound, as is the rounding of the working logs and of
    the returned measure.
    """
    from mpmath import mp

    degree = f.degree
    dps = max(30, 2 * digits_for_bits(precision_bits), 3 * degree)
    for _ in range(12):
        with mp.workdps(dps):
            coeffs = [mp.mpf(c) for c in reversed(f.coefficients)]
            tol = mp.mpf(2) ** (-precision_bits)
            enclosures = _certified_enclosures(coeffs, degree, tol)
            if enclosures is not None:
                measure = mp.mpf(0)
                error = mp.mpf(0)
                for enc in enclosures:
                    if enc.near_unit:
                        error += max(mp.log(enc.modulus_upper), mp.mpf(0))
                    elif enc.modulus_lower > 1:
                        lo = mp.log(enc.modulus_lower)
                        hi = mp.log(enc.modulus_upper)
                        measure += (lo + hi) / 2
                        error += (hi - lo) / 2
                # each log, sum and halving above is off by at most an ulp, and
                # rounding to the returned precision moves the measure by gap
                error += 8 * degree * mp.eps * (1 + measure)
                with working_precision(precision_bits):
                    rounded = +measure
                    gap = abs(mp.fsub(rounded, measure, exact=True))
                    return MahlerResult(
                        measure=rounded,
                        error_bound=mp.fadd(error, gap, rounding="c"),
                        roots=tuple(enclosures),
                        precision_bits=precision_bits,
                    )
        dps *= 2
    raise ConvergenceError(
        "root certification failed for %s at %d working digits" % (f, dps // 2)
    )
