"""The size limit on a finite growth target, decided from its text."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigee import targets
from perigee.targets import GrowthTarget

DIGITS = st.text("0123456789", min_size=1, max_size=5)


@st.composite
def written_targets(draw):
    """(text, numbers): a target as a/b or as a decimal with an optional
    fraction part and exponent, with the numbers the text writes before any
    reduction: numerator and denominator, and the power of ten of a positive
    exponent, which Fraction forms even when the digits are zero."""
    num = draw(DIGITS)
    if draw(st.booleans()):
        den = draw(DIGITS)
        return "%s/%s" % (num, den), (int(num), int(den))
    point = draw(st.one_of(st.none(), st.text("0123456789", max_size=4)))
    exp = draw(st.one_of(st.none(), st.integers(-8, 8)))
    text = num + ("" if point is None else "." + point) + ("" if exp is None else "e%d" % exp)
    point, exp = point or "", exp or 0
    power = 10 ** max(exp, 0)
    return text, (int(num + point) * power, 10 ** (len(point) - min(exp, 0)), power)


@settings(max_examples=400, deadline=None, database=None)
@given(written_targets())
def test_target_size_is_decided_from_the_text(written):
    # with the limit at 10**3, a target parses exactly when every number it
    # writes is at most 1000
    text, numbers = written
    with mock.patch.object(targets, "MAX_TARGET_DIGITS", 3):
        if max(numbers) > 1000:
            with pytest.raises(ValueError, match="at most 10\\*\\*3"):
                GrowthTarget.parse(text)
        elif numbers[1]:
            assert GrowthTarget.parse(text).value in (None, Fraction(*numbers[:2]))


def test_every_text_route_is_held_to_the_limit():
    # parse, from_json and finite all read text; each refuses a target past
    # the limit before Fraction forms 10**10000000
    text = "1e-10000000"
    for read in (GrowthTarget.parse, GrowthTarget.finite,
                 lambda t: GrowthTarget.from_json({"kind": "finite", "value": t})):
        with pytest.raises(ValueError, match="growth target too large"):
            read(text)
