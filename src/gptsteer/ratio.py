"""Exact rational scalars shared by every module.

All coordinates, probabilities and LP data are rationals, never floats:
the decision procedures are exact, and a tolerance anywhere would turn
their yes/no answers into guesses. gmpy2's mpq is used when present;
fractions.Fraction is a drop-in fallback with identical semantics. The
simplex and elimination pivot on Python ints (``vecs.pivot``) with
either backend, reading values through .numerator and .denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

try:
    from gmpy2 import mpq as _make
    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _make = Fraction
    RATIONAL_BACKEND = "fractions"

# Nominal annotation for exact rationals (Fraction or gmpy2.mpq).
Rational = Any

ZERO = _make(0)
ONE = _make(1)
_RATIONAL_TYPE = type(ONE)

_RATIO_RE = re.compile(r"[+-]?\d+(/\d+)?")


def as_ratio(value, denominator=None) -> Rational:
    """Coerce an int, rational or "p/q" string to the rational backend.

    A second argument builds the quotient value/denominator. Floats are
    rejected outright; they would smuggle rounding into code whose whole
    point is exactness.
    """
    if denominator is None and type(value) is _RATIONAL_TYPE:
        return value  # already exact, and immutable
    if isinstance(value, float) or isinstance(denominator, float):
        raise TypeError(f"floats are not exact rationals: {value!r}")
    if denominator is not None:
        if denominator == 0:
            raise ValueError("zero denominator")
        if type(value) is int and type(denominator) is int:
            return _make(value, denominator)
        return _make(value) / _make(denominator)
    if isinstance(value, str):
        return parse_ratio(value)
    return _make(value)


def parse_ratio(text: str) -> Rational:
    """Parse "p/q" or "n" with integer p and positive integer q."""
    stripped = text.strip()
    if not _RATIO_RE.fullmatch(stripped):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = stripped.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return _make(int(num), int(den))
    return _make(int(num))


def format_ratio(value) -> str:
    """Canonical "p/q" form in lowest terms with q >= 1, e.g. "-1/2", "3/1"."""
    q = as_ratio(value)
    return f"{q.numerator}/{q.denominator}"
