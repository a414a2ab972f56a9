"""Growth targets: the prescribed logarithmic rate for periodic-point counts.

A target is zero, an exact positive rational, or infinity.  Irrational rates
cannot be represented; callers supply a rational approximation (for example
6932/10000 for log 2) and the exactness of everything downstream is relative
to that rational.
"""

from collections import namedtuple
from fractions import Fraction

ZERO = "zero"
FINITE = "finite"
INFINITE = "infinite"


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
                return cls.finite(Fraction(obj["value"]))
            except ZeroDivisionError as exc:
                raise ValueError("bad growth-target value %r" % obj["value"]) from exc
        if kind == ZERO:
            return cls.zero()
        if kind == INFINITE:
            return cls.infinite()
        raise ValueError("bad growth-target object %r" % (obj,))
