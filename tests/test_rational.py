from fractions import Fraction

import pytest

from netcontagion.errors import ParameterError
from netcontagion.rational import (
    as_rational,
    as_unit_rational,
    decimal_render,
    rational_json,
    rational_str,
)

F = Fraction


def test_as_rational_accepts_exact_forms():
    assert as_rational("1/3") == F(1, 3)
    assert as_rational("0.25") == F(1, 4)
    assert as_rational(2) == 2
    assert as_rational(F(7, 5)) == F(7, 5)


def test_as_rational_rejects_floats_and_junk():
    with pytest.raises(ParameterError):
        as_rational(0.1)
    with pytest.raises(ParameterError):
        as_rational("one half")
    with pytest.raises(ParameterError):
        as_rational("1/0")


@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_rationals(value):
    # bool is an int subclass, so Fraction(True) would read it as 1.
    with pytest.raises(ParameterError, match="not a boolean"):
        as_rational(value, "c")
    with pytest.raises(ParameterError, match="not a boolean"):
        as_unit_rational(value, "alpha")


def test_as_unit_rational_range():
    assert as_unit_rational("1") == 1
    with pytest.raises(ParameterError):
        as_unit_rational("7/5", "q")


def test_decimal_render_half_even():
    assert decimal_render(F(1, 3)) == "0.333333"
    assert decimal_render(F(2, 3)) == "0.666667"
    assert decimal_render(F(1)) == "1.000000"
    # Exactly half a ulp: round to the even neighbor.
    assert decimal_render(F(25, 1000), 2) == "0.02"
    assert decimal_render(F(35, 1000), 2) == "0.04"
    assert decimal_render(F(5, 10), 0) == "0"
    assert decimal_render(F(-1, 3), 3) == "-0.333"


def test_rational_str():
    assert rational_str(F(1, 2)) == "1/2"
    assert rational_str(F(4, 2)) == "2"
    assert rational_str(F(0)) == "0"


def test_rational_json():
    assert rational_json(F(1, 3)) == {"num": 1, "den": 3, "decimal": "0.333333"}
    assert rational_json(F(2**70, 3)) == {"num": 2**70, "den": 3,
                                          "decimal": decimal_render(F(2**70, 3))}
