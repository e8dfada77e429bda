"""Exact rational scalars shared by every module.

All coordinates, probabilities and LP data are rationals, never floats:
the decision procedures are exact, and a tolerance anywhere would turn
their yes/no answers into guesses. The one rational type is
fractions.Fraction, and this is the only module that imports it: every
other module gets its rationals from here (as_ratio, parse_ratio, ZERO,
ONE). The simplex and elimination pivot on Python ints
(``vecs.pivot``), reading values through .numerator and .denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Named in benchmark metadata; Fraction is the only rational type.
RATIONAL_BACKEND = "fractions"

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIO_RE = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*", re.ASCII)


def as_ratio(value, denominator=None) -> Rational:
    """Coerce an int, rational or "p/q" string to a Fraction.

    A second argument builds the quotient value/denominator, each side
    coerced by the one-argument rule first. Floats are rejected
    outright; they would smuggle rounding into code whose whole point is
    exactness.
    """
    if denominator is None:
        if type(value) is Fraction:
            return value  # already exact, and immutable
        if isinstance(value, float):
            raise TypeError(f"floats are not exact rationals: {value!r}")
        if isinstance(value, str):
            return parse_ratio(value)
        return Fraction(value)
    if not (type(value) is int and type(denominator) is int):
        value, denominator = as_ratio(value), as_ratio(denominator)
    if denominator == 0:
        raise ValueError("zero denominator")
    return Fraction(value, denominator)


def parse_ratio(text: str) -> Rational:
    """Parse "p/q" or "n", integer p and positive integer q, amid ASCII whitespace."""
    match = _RATIO_RE.fullmatch(text)
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_ratio(value) -> str:
    """Canonical "p/q" form in lowest terms with q >= 1, e.g. "-1/2", "3/1"."""
    q = as_ratio(value)
    return f"{q.numerator}/{q.denominator}"
