"""The noise bracket is computed by arithmetic from the critical level; it
must be the bracket a plain-Fraction bisection reaches (oracles.py)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gptsteer.compatibility import _level_bracket
from oracles import bisection_bracket

levels = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)
precisions = st.fractions(min_value=0, max_value=3, max_denominator=10 ** 9).filter(
    lambda p: p > 0)
dyadic_levels = st.tuples(st.integers(0, 40), st.integers(0, 2 ** 40)).map(
    lambda pair: Fraction(pair[1] % (2 ** pair[0] + 1), 2 ** pair[0]))


def _assert_same(critical, precision):
    bracket = _level_bracket(critical, precision, "JM")
    assert bracket == bisection_bracket(critical, precision)
    assert [type(x) for x in bracket] == [Fraction, Fraction]


@settings(max_examples=300, deadline=None)
@given(st.one_of(levels, dyadic_levels, st.just(Fraction(0))), precisions)
def test_bracket_matches_bisection(critical, precision):
    _assert_same(critical, precision)


def test_bracket_edges_match_bisection():
    # precisions of 1 and more, a zero level, dyadic levels on the grid and
    # off it, and the level 1 that returns (1, 1)
    for critical in (Fraction(0), Fraction(1, 2), Fraction(3, 8), Fraction(1, 3), Fraction(1)):
        for precision in (Fraction(1), Fraction(5, 2), Fraction(1, 2), Fraction(1, 8),
                          Fraction(3, 16), Fraction(1, 2 ** 30)):
            _assert_same(critical, precision)
    assert _level_bracket(Fraction(1), Fraction(1, 8), "JM") == (1, 1)


def test_fine_bracket_is_exact():
    lo, hi = _level_bracket(Fraction(1, 3), Fraction(1, 2 ** 20000), "LHS")
    assert hi - lo == Fraction(1, 2 ** 20000)
    assert lo <= Fraction(1, 3) < hi
