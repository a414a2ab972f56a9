"""Growth targets: the prescribed logarithmic rate for periodic-point counts.

A target is zero, an exact positive rational, or infinity.  Irrational rates
cannot be represented; callers supply a rational approximation (for example
6932/10000 for log 2) and the exactness of everything downstream is relative
to that rational.

A finite target's numerator and denominator, as written, are at most
10**MAX_TARGET_DIGITS, decided from the text: Fraction('1e-10000000') alone
forms 10**10000000, which takes seconds.
"""

import re
from collections import namedtuple
from fractions import Fraction

ZERO = "zero"
FINITE = "finite"
INFINITE = "infinite"
MAX_TARGET_DIGITS = 10**5

# every text Fraction reads, and more: a numerator, then a denominator or a
# fraction part and an exponent
_WRITTEN = re.compile(r"[-+]?([\d_]*)(?:\s*/\s*([\d_]+)|(?:\.([\d_]*))?(?:e([-+]?)([\d_]+))?)", re.I)


def _check_size(text):
    """Refuse text that Fraction would read as a numerator or a denominator
    above 10**MAX_TARGET_DIGITS, before it forms either."""
    written = _WRITTEN.fullmatch(text.strip())
    if written is None:
        return  # Fraction refuses it too
    num, den, point, sign, exp = (part.replace("_", "") for part in written.groups(""))
    # an exponent of 10**6 or more puts either end far past the limit
    exp = int(sign + exp[-7:] or "0") if len(exp.lstrip("0")) < 7 else 2 * MAX_TARGET_DIGITS
    for digits, shift in ((num + point, max(exp, 0)), (den or "1", len(point) - min(exp, 0))):
        lead = digits.lstrip("0")
        size = len(lead) + shift  # int(digits) * 10**shift < 10**size
        if size > MAX_TARGET_DIGITS and (size > MAX_TARGET_DIGITS + 1 or lead.rstrip("0") != "1"):
            raise ValueError("growth target too large: its numerator and denominator may be "
                             "at most 10**%d" % MAX_TARGET_DIGITS)


class GrowthTarget(namedtuple("GrowthTarget", "kind value")):
    __slots__ = ()

    def __new__(cls, kind, value=None):
        if kind not in (ZERO, FINITE, INFINITE):
            raise ValueError("unknown growth-target kind %r" % (kind,))
        if kind == FINITE:
            if not isinstance(value, Fraction) or value <= 0:
                raise ValueError("finite growth target must be a positive Fraction")
        elif value is not None:
            raise ValueError("%s target carries no value" % kind)
        return super().__new__(cls, kind, value)

    # _replace builds through _make, which would skip __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def zero(cls):
        return cls(ZERO)

    @classmethod
    def finite(cls, value):
        if isinstance(value, str):
            _check_size(value)
        return cls(FINITE, Fraction(value))

    @classmethod
    def infinite(cls):
        return cls(INFINITE)

    @classmethod
    def parse(cls, text):
        """Parse 'zero', 'infinite'/'inf', 'a/b' or an exact decimal literal."""
        t = text.strip().lower()
        if t == ZERO:
            return cls.zero()
        if t in (INFINITE, "inf", "infinity"):
            return cls.infinite()
        _check_size(t)
        try:
            value = Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("cannot parse growth target %r" % text) from exc
        if value == 0:
            return cls.zero()
        return cls.finite(value)

    def describe(self):
        if self.kind == FINITE:
            return str(self.value)
        return self.kind

    def to_json(self):
        if self.kind == FINITE:
            return {"kind": FINITE, "value": str(self.value)}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json: a finite target's value must be a string."""
        kind = obj.get("kind")
        if kind == FINITE and isinstance(obj.get("value"), str):
            try:
                return cls.finite(obj["value"])
            except ZeroDivisionError as exc:
                raise ValueError("bad growth-target value %r" % obj["value"]) from exc
        if kind == ZERO:
            return cls.zero()
        if kind == INFINITE:
            return cls.infinite()
        raise ValueError("bad growth-target object %r" % (obj,))
