"""Helpers for exact rational parameters.

All incentive comparisons in this package are exact.  Floats are rejected
at the API boundary because values like ``0.1`` silently become binary
approximations; pass strings (``"0.1"``, ``"1/3"``), ints, or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

import numpy as np

from .errors import ParameterError


def as_rational(value, name: str = "value") -> Fraction:
    """Convert ``value`` to an exact Fraction, rejecting floats and booleans."""
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be a rational, not a boolean; got {value!r}")
    if isinstance(value, float):
        raise ParameterError(
            f"{name} must be an exact rational (int, Fraction, or string like "
            f"'1/3' or '0.25'); got float {value!r} whose binary value may not "
            f"be what you meant"
        )
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParameterError(f"{name} is not a rational: {value!r}") from exc


def as_integer(value, name: str = "value") -> int:
    """``operator.index(value)``; booleans (numpy's too) are a ParameterError, as is
    anything ``operator.index`` refuses, so nothing is truncated or parsed."""
    if type(value) is int:  # the common case, ahead of the checks
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer; got {value!r}")


def as_unit_rational(value, name: str = "value") -> Fraction:
    """Convert to a Fraction and require it to lie in [0, 1]."""
    q = as_rational(value, name)
    if not 0 <= q <= 1:
        raise ParameterError(f"{name} must be in [0, 1]; got {q}")
    return q


def decimal_render(value: Fraction, places: int = 6) -> str:
    """Exact fixed-point rendering, rounding half to even.

    This is a *rendering* of the exact rational, used for reports and CSV
    columns next to the num/den pair; it never feeds back into comparisons.
    """
    return decimal_ratio(value.numerator, value.denominator, places)


def decimal_ratio(num: int, den: int, places: int = 6) -> str:
    """:func:`decimal_render` of ``num / den`` (``den > 0``), from the integers."""
    if places < 0:
        raise ParameterError("places must be nonnegative")
    sign = "-" if num < 0 else ""
    scale = 10**places
    q, r = divmod(abs(num) * scale, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def rational_json(value: Fraction) -> dict:
    """JSON form ``{num, den, decimal}``: the exact pair and its rendering."""
    return {"num": value.numerator, "den": value.denominator, "decimal": decimal_render(value)}


def rational_str(value: Fraction) -> str:
    """Canonical ``num/den`` (or bare integer) string form."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
