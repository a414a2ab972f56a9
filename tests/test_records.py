"""The package's records are immutable namedtuples: checked, frozen, and
printed as the dataclasses they replaced printed."""

from fractions import Fraction

import pytest

from perigee.construction import ComponentSpec
from perigee.numtheory import FactoredNatural
from perigee.orbits import CountSequence
from perigee.targets import GrowthTarget
from perigee.toral import IntegerPolynomial
from perigee.zeta import ProbeVerdict, ZetaSeries

# (a valid record, fields that make it invalid, the error message)
VALIDATED = [
    (GrowthTarget.finite(1), {"value": Fraction(-1)}, "positive Fraction"),
    (GrowthTarget.zero(), {"value": Fraction(1)}, "carries no value"),
    (GrowthTarget.zero(), {"kind": "huge"}, "unknown growth-target kind"),
    (CountSequence.fixed([1, 3]), {"kind": "other"}, "'fixed' or 'least'"),
    (CountSequence.fixed([1, 3]), {"values": (1, 1.5)}, "exact integers"),
    (IntegerPolynomial((-1, -1, 1)), {"coefficients": (1, 2)}, "monic"),
    (IntegerPolynomial((-1, -1, 1)), {"coefficients": (1,)}, "degree"),
    (ZetaSeries((Fraction(1), Fraction(2))), {"coefficients": (Fraction(2),)}, "c_0 = 1"),
]


@pytest.mark.parametrize("record, fields, message", VALIDATED)
def test_invalid_fields_raise_at_construction_and_through_replace(record, fields, message):
    with pytest.raises(ValueError, match=message):
        type(record)(**dict(record._asdict(), **fields))
    with pytest.raises(ValueError, match=message):
        record._replace(**fields)


@pytest.mark.parametrize("record", [
    GrowthTarget.finite(1),
    CountSequence.fixed([1, 3]),
    IntegerPolynomial((-1, -1, 1)),
    ZetaSeries((Fraction(1), Fraction(2))),
])
def test_valid_replace_keeps_the_type(record):
    copy = record._replace()
    assert copy == record and type(copy) is type(record)


@pytest.mark.parametrize("record, field", [
    (FactoredNatural.from_pairs([(2, 1)]), "factors"),
    (GrowthTarget.zero(), "kind"),
    (CountSequence.fixed([1]), "values"),
    (ComponentSpec(1, 2, 1, 1), "K"),
    (IntegerPolynomial((-1, 1)), "coefficients"),
    (ZetaSeries((Fraction(1),)), "coefficients"),
])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # __slots__ = (): no instance dict either


def test_repr_is_the_dataclass_repr():
    assert [repr(record) for record in (
        FactoredNatural.from_pairs([(3, 2), (2, 1)]),
        GrowthTarget.finite(1),
        CountSequence.fixed([1, 3]),
        ComponentSpec(1, 2, 1, 1),
        IntegerPolynomial((-1, -1, 1)),
        ProbeVerdict("no-low-order-recurrence", None, None, 4),
    )] == [
        "FactoredNatural(factors=((2, 1), (3, 2)))",
        "GrowthTarget(kind='finite', value=Fraction(1, 1))",
        "CountSequence(kind='fixed', values=(1, 3))",
        "ComponentSpec(n=1, p=2, K=1, multiplier=1)",
        "IntegerPolynomial(coefficients=(-1, -1, 1))",
        "ProbeVerdict(verdict='no-low-order-recurrence', numerator=None, denominator=None, "
        "recurrence_length=4)",
    ]
