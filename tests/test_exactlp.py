"""Exact LP core: feasibility, certificates, optimization, enumeration.

Frozen expected values were computed first with the Fraction-based
reference code in oracles.py; the hypothesis blocks then check the
witness/certificate contract on arbitrary small systems against the
same independent verifiers.
"""

import hashlib
import logging
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptsteer.compatibility as compatibility
import gptsteer.exactlp as exactlp
from gptsteer.compatibility import jm_critical_visibility, jm_linear_system
from gptsteer.composites import canonical_max_entangled, separability_system
from gptsteer.errors import UnboundedRegionError, VerificationError
from gptsteer.exactlp import (FEASIBLE, INFEASIBLE, OPTIMAL, RAY_CAP,
                              UNBOUNDED, LinearSystem, _Tableau, certifies_optimum,
                              cone_member, convex_member, lp_feasible,
                              lp_optimize, membership_system, refutes,
                              satisfies, vertex_enumerate)
from gptsteer.kernel import (Observable, depolarize_observable, dichotomic_observable,
                             StateSpace, extremal_effects, state_cone_facets,
                             zoo_classical, zoo_gbit, zoo_polygon)
from gptsteer.ratio import RATIONAL_BACKEND, Rational, as_ratio, format_ratio, parse_ratio
from gptsteer.sampler import (SamplerConfig, make_rng, random_observable_set,
                              random_separable_state)
from gptsteer.steering import assemblage_from, lhs_critical_visibility, lhs_linear_system
from gptsteer.vecs import (combine, dot, independent_rows, pivot, primitive_row, solve_unique,
                           sparse_row)

from oracles import (brute_force_vertices, check_farkas, check_optimum,
                     check_point, fdot, gauss_solve, jm_rows, lhs_rows, rank_of,
                     separability_rows)

r = as_ratio


# --- rational scalars -------------------------------------------------------

def test_ratio_parsing_and_formatting():
    assert parse_ratio("3/6") == r(1, 2)
    assert parse_ratio("-2/4") == r(-1, 2)
    assert parse_ratio("7") == r(7)
    assert parse_ratio(" +1/3 ") == r(1, 3)
    assert format_ratio(r(4, 8)) == "1/2"
    assert format_ratio(r(-3)) == "-3/1"
    assert format_ratio(0) == "0/1"


def test_ratio_rejects_floats_and_bad_literals():
    with pytest.raises(TypeError):
        r(0.5)
    with pytest.raises(ValueError):
        parse_ratio("1/0")
    with pytest.raises(ValueError):
        parse_ratio("a/b")
    with pytest.raises(ValueError):
        parse_ratio("1.5")
    with pytest.raises(ValueError):
        r(1, 0)


def test_ratio_accepts_ascii_digits_only():
    # \d would match any Unicode digit, and int() would read it
    for literal in ("\u0663/\u0664", "\uff13", "3/\u0664", "\u00b2", "-\uff11/2"):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_ratio(literal)
        with pytest.raises(ValueError, match="not a rational literal"):
            r(literal)


def test_ratio_quotient_form():
    assert r(3, 6) == r(1, 2)
    assert r(-1, 2) + r(1, 2) == 0


def test_ratio_quotient_coerces_each_side_like_one_argument():
    assert r("1/2", "3") == r(1, 6)
    assert r(r(1, 2), r(1, 3)) == r(3, 2)
    assert r(-4, r(2, 3)) == r(-6)
    # what the one-argument form refuses, the quotient refuses too
    for literal in ("0.5", "1e-3"):
        with pytest.raises(ValueError, match="not a rational literal"):
            r(literal)
        with pytest.raises(ValueError, match="not a rational literal"):
            r(literal, 1)
        with pytest.raises(ValueError, match="not a rational literal"):
            r(1, literal)
    with pytest.raises(TypeError, match="floats"):
        r(1, 0.5)
    # a zero denominator is caught after coercion, whatever its form
    for zero in (0, "0", "0/5", r(0)):
        with pytest.raises(ValueError, match="zero denominator"):
            r(1, zero)


def test_fraction_is_the_rational_type():
    assert Rational is Fraction
    assert type(r(1)) is Fraction
    assert type(r(1, 2)) is Fraction
    assert type(parse_ratio("3/4")) is Fraction
    assert RATIONAL_BACKEND == "fractions"


# --- feasibility and Farkas certificates ------------------------------------

def test_empty_interval_certificate():
    # x >= 1 together with -x >= 0 is infeasible; adding the two rows
    # yields 0 >= 1, so (1, 1) is the canonical refutation.
    system = LinearSystem.build(1, (), (((1,), 1), ((-1,), 0)))
    result = lp_feasible(system)
    assert result.status == INFEASIBLE
    assert not result.feasible
    assert result.witness is None
    assert result.certificate == (r(1), r(1))
    assert refutes(system, result.certificate)
    assert check_farkas([], [((1,), 1), ((-1,), 0)], result.certificate)


def test_trivial_halfline_witness():
    system = LinearSystem.build(1, (), (((1,), 0),))
    result = lp_feasible(system)
    assert result.status == FEASIBLE
    assert result.witness == (r(0),)
    assert satisfies(system, result.witness)


def test_equality_system_feasible():
    # x + y == 1, x >= 0, y >= 0
    system = LinearSystem.build(2, (((1, 1), 1),), (((1, 0), 0), ((0, 1), 0)))
    result = lp_feasible(system)
    assert result.feasible
    assert satisfies(system, result.witness)


def test_equality_system_infeasible_certificate_order():
    # x + y == 1 with x >= 1 and y >= 1; certificate rows must line up
    # as equalities first, then inequalities.
    equalities = (((1, 1), 1),)
    inequalities = (((1, 0), 1), ((0, 1), 1))
    system = LinearSystem.build(2, equalities, inequalities)
    result = lp_feasible(system)
    assert result.status == INFEASIBLE
    assert refutes(system, result.certificate)
    assert check_farkas(equalities, inequalities, result.certificate)


def test_redundant_equalities_are_fine():
    system = LinearSystem.build(2, (((1, 1), 1), ((2, 2), 2)),
                                (((1, 0), 0), ((0, 1), 0)))
    result = lp_feasible(system)
    assert result.feasible
    assert satisfies(system, result.witness)


def test_satisfies_and_refutes_are_substitution_checks():
    system = LinearSystem.build(2, (((1, 1), 1),), (((1, 0), 0),))
    assert satisfies(system, (r(1, 2), r(1, 2)))
    assert satisfies(system, (r(2), r(-1)))
    assert not satisfies(system, (r(-1), r(2)))
    assert not satisfies(system, (r(1, 2), r(1, 4)))
    # a certificate with a negative inequality multiplier is rejected
    assert not refutes(system, (r(1), r(-1)))


# --- optimization -----------------------------------------------------------

UNIT_SQUARE_ROWS = (((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1))


def test_optimize_unit_square():
    square = LinearSystem.build(2, (), UNIT_SQUARE_ROWS)
    result = lp_optimize((1, 1), square, "max")
    assert result.status == OPTIMAL
    assert result.value == r(2)
    assert result.point == (r(1), r(1))
    # the two upper-bound rows add up to -x - y >= -2, and only they do
    assert result.certificate == (r(0), r(0), r(1), r(1))
    low = lp_optimize((1, 1), square, "min")
    assert low.value == r(0)
    assert low.point == (r(0), r(0))
    assert low.certificate == (r(1), r(1), r(0), r(0))
    for opt, sense in ((result, "max"), (low, "min")):
        assert check_optimum((), UNIT_SQUARE_ROWS, (1, 1), sense,
                             Fraction(format_ratio(opt.value)), _fractions(opt.certificate))


def test_optimality_check_rejects_near_misses():
    square = LinearSystem.build(2, (), UNIT_SQUARE_ROWS)
    certificate = (r(0), r(0), r(1), r(1))
    assert certifies_optimum(square, (1, 1), r(2), certificate, "max")
    # one unit off in the value, in a multiplier, or in the sense
    assert not certifies_optimum(square, (1, 1), r(3), certificate, "max")
    assert not certifies_optimum(square, (1, 1), r(1), certificate, "max")
    assert not certifies_optimum(square, (1, 1), r(2), (r(1), r(0), r(1), r(1)), "max")
    assert not certifies_optimum(square, (1, 1), r(2), certificate, "min")
    # a negative inequality multiplier, or one too few
    assert not certifies_optimum(square, (1, 1), r(2), (r(-1), r(0), r(0), r(1)), "max")
    assert not certifies_optimum(square, (1, 1), r(2), certificate[:3], "max")


def test_optimality_certificate_one_unit_off_raises(monkeypatch):
    clean = _Tableau.phase_two

    def off_by_one(self, objective):
        status, value, certificate = clean(self, objective)
        return status, value, (certificate[0] + 1,) + certificate[1:]

    monkeypatch.setattr(_Tableau, "phase_two", off_by_one)
    square = LinearSystem.build(2, (), UNIT_SQUARE_ROWS)
    with pytest.raises(VerificationError, match="optimality certificate"):
        lp_optimize((1, 1), square, "max")


def test_optimize_reports_unbounded():
    halfline = LinearSystem.build(1, (), (((1,), 0),))
    result = lp_optimize((1,), halfline, "max")
    assert result.status == UNBOUNDED
    assert result.point is None
    # minimizing the same objective is fine
    assert lp_optimize((1,), halfline, "min").value == r(0)


def test_optimize_infeasible_passes_certificate_through():
    system = LinearSystem.build(1, (), (((1,), 1), ((-1,), 0)))
    result = lp_optimize((1,), system, "max")
    assert result.status == INFEASIBLE
    assert refutes(system, result.certificate)


def test_optimize_rejects_bad_sense():
    system = LinearSystem.build(1, (), (((1,), 0),))
    with pytest.raises(ValueError):
        lp_optimize((1,), system, "maximize")


@pytest.mark.parametrize("sense", ["maximum", "Max", "minimize", ""])
def test_optimality_check_rejects_unknown_sense(sense):
    # the minimum certificate of x + y (value 0) must not pass as anything
    # else; the true maximum is 2
    square = LinearSystem.build(2, (), UNIT_SQUARE_ROWS)
    minimum = (r(1), r(1), r(0), r(0))
    assert certifies_optimum(square, (1, 1), 0, minimum, "min")
    with pytest.raises(ValueError, match="sense must be 'max' or 'min'"):
        certifies_optimum(square, (1, 1), 0, minimum, sense)
    with pytest.raises(ValueError, match="sense must be 'max' or 'min'"):
        lp_optimize((1, 1), square, sense)


# --- bound rows x_j >= 0 ---------------------------------------------------

def test_only_unit_rows_with_zero_rhs_are_bounds():
    # x0 >= 0 (bound), 2 x0 >= 0, x0 >= 1, x0 >= 0 again, -x1 >= 0, x1 >= -1
    rows = (((1, 0), 0), ((2, 0), 0), ((1, 0), 1), ((1, 0), 0), ((0, -1), 0),
            ((0, 1), -1))
    tableau = _Tableau(LinearSystem.build(2, (), rows))
    assert tableau.bound_row == {0: 0}
    assert tableau.minus_col == {1: 2}
    assert len(tableau.rows) == 5
    assert tableau.struct_cols == 2 + 1 + 5  # x, x1's minus part, slacks
    result = lp_feasible(LinearSystem.build(2, (), rows))
    assert check_point((), rows, [format_ratio(x) for x in result.witness])


def test_bound_row_alone_refutes():
    # x0 == -1 with x0 >= 0: only the bound row can close the contradiction,
    # so its multiplier is positive.
    equalities, inequalities = (((1,), -1),), (((1,), 0),)
    system = LinearSystem.build(1, equalities, inequalities)
    assert len(_Tableau(system).rows) == 1
    result = lp_feasible(system)
    assert result.status == INFEASIBLE
    assert result.certificate[1] > 0
    assert check_farkas(equalities, inequalities,
                        [Fraction(format_ratio(m)) for m in result.certificate])


def test_optimize_over_bounded_columns():
    # x + y == 1, x >= 0, y >= 0: both columns bounded, one tableau row
    simplex = LinearSystem.build(2, (((1, 1), 1),), (((1, 0), 0), ((0, 1), 0)))
    assert len(_Tableau(simplex).rows) == 1
    high = lp_optimize((1, 2), simplex, "max")
    assert (high.status, high.value, high.point) == (OPTIMAL, r(2), (r(0), r(1)))
    low = lp_optimize((1, 2), simplex, "min")
    assert (low.status, low.value, low.point) == (OPTIMAL, r(1), (r(1), r(0)))
    # x - y == 0 with both bounded is the ray x = y >= 0
    ray = LinearSystem.build(2, (((1, -1), 0),), (((1, 0), 0), ((0, 1), 0)))
    assert lp_optimize((1, 0), ray, "max").status == UNBOUNDED
    assert lp_optimize((1, 0), ray, "min").value == r(0)


def test_gbit_lhs_tableau_has_no_bound_rows(phi, fiducials):
    # 16 cone weights, 12 equalities, 16 rows w_i >= 0: the weights are
    # bounded columns, so no minus column, slack or row for the bounds.
    system = lhs_linear_system(assemblage_from(phi, fiducials))
    assert (system.variable_count, len(system.equalities),
            len(system.inequalities)) == (16, 12, 16)
    tableau = _Tableau(system)
    assert len(tableau.rows) == 12
    assert tableau.struct_cols == 16
    assert tableau.minus_col == {}
    assert len(tableau.bound_row) == 16


def test_debug_line_per_solve(caplog, phi, fiducials):
    noisy = tuple(depolarize_observable(o, r(1, 2)) for o in fiducials)
    system = lhs_linear_system(assemblage_from(phi, noisy))
    with caplog.at_level(logging.INFO, logger="gptsteer.exactlp"):
        lp_feasible(system)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="gptsteer.exactlp"):
        lp_feasible(system)
        lp_optimize((1,) + (0,) * 15, system, "max")
    lines = [rec.getMessage() for rec in caplog.records]
    assert len(lines) == 2
    pattern = (r"{}: full store, 12 rows x 16 structural columns, 16 bounded, "
               r"pivots (\d+) \+ (\d+)")
    feasible = re.fullmatch(pattern.format("lp_feasible"), lines[0])
    optimize = re.fullmatch(pattern.format("lp_optimize"), lines[1])
    assert feasible and optimize
    assert int(feasible[1]) > 0 and feasible[2] == "0"
    assert optimize[1] == feasible[1]  # phase one runs the same pivots


# --- the integer pivot -----------------------------------------------------

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.lists(small_rationals, min_size=4, max_size=4),
                          # integer rows (denominator 1), with entries that
                          # share a factor with the pivot short of the pivot
                          st.lists(st.integers(-12, 12).map(Fraction), min_size=4, max_size=4)),
                min_size=1, max_size=6),
       st.integers(0, 5), st.integers(0, 3))
def test_pivot_is_the_rational_gauss_jordan_step(matrix, r, c):
    r %= len(matrix)
    if matrix[r][c] == 0:
        matrix[r][c] = Fraction(-3, 2)
    pairs = [primitive_row(row) for row in matrix]
    rows, dens = [sparse_row(ints) for ints, _ in pairs], [den for _, den in pairs]
    assert all(math.gcd(den, *ints) == 1 for ints, den in pairs)
    assert all(0 not in row.values() for row in rows)
    pivot(rows, dens, r, c)
    prow = [x / matrix[r][c] for x in matrix[r]]
    expected = [prow if i == r else [x - row[c] * y for x, y in zip(row, prow)]
                for i, row in enumerate(matrix)]
    assert [[Fraction(row.get(j, 0), den) for j in range(4)]
            for row, den in zip(rows, dens)] == expected
    assert all(den > 0 and math.gcd(den, *row.values()) == 1 for row, den in zip(rows, dens))
    # only nonzeros are stored, and only in the matrix's columns
    assert all(0 not in row.values() and set(row) <= set(range(4)) for row in rows)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from((0, 0, 1, -2, Fraction(1, 2), Fraction(-3, 4))),
                         min_size=3, max_size=3), max_size=6))
def test_independent_rows_match_the_oracle(rows):
    # the greedy choice: each row that raises the rank of the rows kept before it
    kept = []
    for i, row in enumerate(rows):
        if rank_of([rows[k] for k in kept] + [row]) > len(kept):
            kept.append(i)
    assert independent_rows(rows) == kept


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from((0, 1, -1, 2, Fraction(1, 3))), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.lists(small_rationals, min_size=3, max_size=3), min_size=n, max_size=n))))
def test_solve_unique_matches_the_oracle(case):
    # one elimination solves every column of right-hand sides; each column
    # is what the oracle's solve gives, and a singular matrix gives None
    matrix, rhs = case
    columns = [gauss_solve(matrix, column) for column in zip(*rhs)]
    expected = None if None in columns else tuple(zip(*columns))
    assert solve_unique(matrix, rhs) == expected


def test_solve_unique_refuses_singular_and_inconsistent_systems():
    identity = [[1, 0], [0, 1]]
    assert solve_unique([[1, 2], [3, 4]], identity) == ((-2, 1), (Fraction(3, 2), Fraction(-1, 2)))
    assert solve_unique([[1, 2], [2, 4]], identity) is None  # singular
    # overdetermined: consistent in every column, then inconsistent in one
    assert solve_unique([[1], [2]], [[1, 3], [2, 6]]) == ((1, 3),)
    assert solve_unique([[1], [2]], [[1, 3], [2, 5]]) is None
    assert solve_unique([], []) is None


def test_pivot_sequence_and_evidence_are_frozen(gbit, phi, fiducials, monkeypatch):
    # The (row, column) of every simplex pivot and every result, witnesses
    # and certificates included, of a fixed set of solves: the gbit X/Y JM
    # and LHS systems sharp (infeasible phase ones) and at visibility 1/2,
    # the X/Y JM and LHS critical-level LPs, and one polygon-8 critical
    # level. The evidence digest was taken from the rational (Fraction)
    # tableau that the integer one replaced. The octagon is built before
    # the recording starts, so only the listed solves are frozen, not
    # whatever LP its geometry runs; the pivot count and digest were taken
    # with that order on the integer tableau of the active-set enumeration
    # (147a1a9), and the double description gives the same.
    octagon = zoo_polygon(8)
    facets = state_cone_facets(octagon)
    pivots, results = [], []
    step = _Tableau.step
    monkeypatch.setattr(_Tableau, "step",
                        lambda self, *args: pivots.append(args[-2:]) or step(self, *args))
    optimize = compatibility.lp_optimize
    monkeypatch.setattr(compatibility, "lp_optimize",
                        lambda *args: results.append(optimize(*args)) or results[-1])
    half = tuple(depolarize_observable(o, r(1, 2)) for o in fiducials)
    for family in (fiducials, half):
        results.append(lp_feasible(jm_linear_system(family, gbit)))
        results.append(lp_feasible(lhs_linear_system(assemblage_from(phi, family))))
    jm_critical_visibility(fiducials, gbit)
    lhs_critical_visibility(fiducials, phi)
    jm_critical_visibility((dichotomic_observable("a", octagon, facets[0]),
                            dichotomic_observable("b", octagon, facets[2])), octagon)

    def ratios(values):
        if values is None:
            return "-"
        return ",".join(map(format_ratio, values if isinstance(values, tuple) else (values,)))

    text = "\n".join(f"{res.status} {ratios(getattr(res, 'witness', None))} "
                     f"{ratios(getattr(res, 'value', None))} "
                     f"{ratios(getattr(res, 'point', None))} {ratios(res.certificate)}"
                     for res in results)
    assert [res.status for res in results] == [INFEASIBLE, INFEASIBLE, FEASIBLE, FEASIBLE,
                                               OPTIMAL, OPTIMAL, OPTIMAL]
    assert len(pivots) == 112
    assert hashlib.sha256(repr(pivots).encode()).hexdigest() == \
        "66f0727fa9a88a1a7c7ba0e7ca345741ad25dae71fcaa0bb8a88f81690d32322"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "aa5550a072f14daacecbc3a05103deac277eac54071eee9f5eefc1cabd7cb07e"


def _seeded_system(rng):
    """A random system: 1-5 columns, some bounded by a row x_j >= 0 and the
    rest free, 0-2 equalities and 0-5 other inequalities, sparse rational
    entries, right-hand sides below, at and above zero, and half the time
    a box |x_j| <= 3 so that more optima are finite."""
    n = rng.randint(1, 5)

    def entry():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 1, 2, 3))) if rng.random() < 0.6 else 0

    def rhs():
        return rng.choice((Fraction(-rng.randint(1, 6), rng.choice((1, 2))), 0,
                           Fraction(rng.randint(1, 6), rng.choice((1, 3)))))

    equalities = [(tuple(entry() for _ in range(n)), rhs()) for _ in range(rng.randint(0, 2))]
    inequalities = [(tuple(entry() for _ in range(n)), rhs()) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.5:
        for j in range(n):
            inequalities += [(tuple(-int(i == j) for i in range(n)), -3),
                             (tuple(int(i == j) for i in range(n)), -3)]
    for j in range(n):
        if rng.random() < 0.5:
            inequalities.insert(rng.randint(0, len(inequalities)),
                                (tuple(int(i == j) for i in range(n)), 0))
    objective = tuple(entry() for _ in range(n))
    return LinearSystem.build(n, equalities, inequalities), objective


def test_seeded_lp_results_are_frozen():
    # lp_feasible and lp_optimize, both senses, on 320 seeded random
    # systems: every status, witness, point, value and certificate. The
    # digest was taken before the tableau's rows were stored sparse, so
    # the row form of the tableau can change no result.
    rng = random.Random(20261019)

    def ratios(values):
        if values is None:
            return "-"
        return ",".join(map(format_ratio, values if isinstance(values, tuple) else (values,)))

    lines, statuses = [], set()
    for _ in range(320):
        system, objective = _seeded_system(rng)
        feasible = lp_feasible(system)
        lines.append(f"{feasible.status} {ratios(feasible.witness)} "
                     f"{ratios(feasible.certificate)}")
        statuses.add(feasible.status)
        for sense in ("max", "min"):
            res = lp_optimize(objective, system, sense)
            lines.append(f"{res.status} {ratios(res.value)} {ratios(res.point)} "
                         f"{ratios(res.certificate)}")
            statuses.add(res.status)
    assert statuses == {FEASIBLE, INFEASIBLE, OPTIMAL, UNBOUNDED}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "9479afa25bd801e9701812dc6e7818c54a65f9a830d09468873de51d96d6e63b"


def _sphere_space():
    """A 5-point polytope on the unit sphere, by inverse stereographic
    projection of a south pole, a ring of three and one high point."""
    points = []
    for u, v in ((0, 0), (Fraction(1, 2), Fraction(3, 4)), (Fraction(-3, 4), 1),
                 (Fraction(-1, 4), Fraction(-5, 4)), (2, 2)):
        u, v = Fraction(u), Fraction(v)
        s = 1 + u * u + v * v
        points.append((Fraction(1), 2 * u / s, 2 * v / s, (s - 2) / s))
    return StateSpace("sphere-5", 4, sorted(points))


def _solved_with(store_ratio, monkeypatch, solves):
    """Every (store, row, column) step and every result of the solves, with
    WIDE_RATIO set so that one store takes every system."""
    steps = []
    step = _Tableau.step
    monkeypatch.setattr(_Tableau, "step",
                        lambda self, *args: steps.append((self.store, *args)) or step(self, *args))
    monkeypatch.setattr(exactlp, "WIDE_RATIO", store_ratio)
    results = [solve() for solve in solves]
    monkeypatch.undo()
    return steps, results


def test_both_stores_take_the_same_steps(monkeypatch):
    # The 320 seeded systems of the frozen test and the separability LPs
    # of the geometry-cold shapes, each solved with the full tableau and
    # with the basis-inverse store: the same pivots, the same results.
    rng = random.Random(20261019)
    solves = []
    for _ in range(320):
        system, objective = _seeded_system(rng)
        solves += [lambda system=system: lp_feasible(system)]
        solves += [lambda system=system, objective=objective, sense=sense:
                   lp_optimize(objective, system, sense) for sense in ("max", "min")]
    rng = random.Random(21)
    spaces = [zoo_polygon(n) for n in (5, 6, 7, 8)] + [_sphere_space()]
    for space in spaces:
        system = separability_system(random_separable_state(space, space, rng))
        solves.append(lambda system=system: lp_feasible(system))
    full_steps, full_results = _solved_with(math.inf, monkeypatch, solves)
    inverse_steps, inverse_results = _solved_with(0, monkeypatch, solves)
    assert {store for store, _, _ in full_steps} == {"full"}
    assert {store for store, _, _ in inverse_steps} == {"basis-inverse"}
    assert [step[1:] for step in inverse_steps] == [step[1:] for step in full_steps]
    assert inverse_results == full_results
    assert {res.status for res in full_results} == {FEASIBLE, INFEASIBLE, OPTIMAL, UNBOUNDED}


def test_store_follows_the_shape(gbit, phi, fiducials):
    # polygon-8 separability: 64 columns over 10 rows; gbit X/Y LHS 16
    # over 12 and JM 40 over 31
    octagon = zoo_polygon(8)
    wide = separability_system(random_separable_state(octagon, octagon, random.Random(8)))
    lhs = lhs_linear_system(assemblage_from(phi, fiducials))
    jm = jm_linear_system(fiducials, gbit)
    assert [exactlp._tableau(system).store for system in (wide, lhs, jm)] == \
        ["basis-inverse", "full", "full"]


def test_debug_line_names_the_store(caplog, phi, fiducials):
    octagon = zoo_polygon(8)
    wide = separability_system(random_separable_state(octagon, octagon, random.Random(8)))
    narrow = lhs_linear_system(assemblage_from(phi, fiducials))
    with caplog.at_level(logging.DEBUG, logger="gptsteer.exactlp"):
        lp_feasible(wide)
        lp_feasible(narrow)
    stores = [re.match(r"lp_feasible: (\S+) store, (\d+) rows x (\d+) structural columns",
                       rec.getMessage()).groups() for rec in caplog.records]
    assert stores == [("basis-inverse", "10", "64"), ("full", "12", "16")]


# --- vertex enumeration -----------------------------------------------------

def test_unit_square_corners():
    square = LinearSystem.build(
        2, (), (((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)))
    corners = vertex_enumerate(square)
    assert corners == ((r(0), r(0)), (r(0), r(1)), (r(1), r(0)), (r(1), r(1)))


def test_simplex_vertices_from_equality():
    simplex = LinearSystem.build(
        3, (((1, 1, 1), 1),),
        (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)))
    points = vertex_enumerate(simplex)
    assert points == ((r(0), r(0), r(1)), (r(0), r(1), r(0)), (r(1), r(0), r(0)))


def test_vertex_enumeration_matches_brute_force():
    # a lopsided pentagon-ish region
    rows = (((1, 0), 0), ((0, 1), 0), ((-1, -2), -4), ((-3, -1), -6),
            ((1, -1), -3))
    system = LinearSystem.build(2, (), rows)
    expected = brute_force_vertices([(tuple(map(Fraction, c)), Fraction(b))
                                     for c, b in rows], 2)
    got = [tuple(Fraction(format_ratio(c)) for c in point)
           for point in vertex_enumerate(system)]
    assert got == list(expected)


def test_vertex_enumeration_unbounded_raises():
    with pytest.raises(UnboundedRegionError):
        vertex_enumerate(LinearSystem.build(2, (), (((1, 0), 0), ((0, 1), 0))))
    with pytest.raises(UnboundedRegionError):
        vertex_enumerate(LinearSystem.build(1, (), ()))
    # a strip in the plane is nonempty but has no vertex: it holds a line
    strip = LinearSystem.build(2, (), (((1, 0), 0), ((-1, 0), -1)))
    with pytest.raises(UnboundedRegionError, match="contains a line"):
        vertex_enumerate(strip)
    # the quadrant x >= 0, y >= 1 has the vertex (0, 1) and two rays
    quadrant = LinearSystem.build(2, (), (((1, 0), 0), ((0, 1), 1)))
    with pytest.raises(UnboundedRegionError, match="recession ray"):
        vertex_enumerate(quadrant)
    # the half-line x + y == 1, x >= 0 has the vertex (0, 1) and one ray
    halfline = LinearSystem.build(2, (((1, 1), 1),), (((1, 0), 0),))
    with pytest.raises(UnboundedRegionError, match="recession ray"):
        vertex_enumerate(halfline)


def test_vertex_enumeration_infeasible_is_empty():
    system = LinearSystem.build(1, (), (((1,), 1), ((-1,), 0)))
    assert vertex_enumerate(system) == ()
    # x + y >= 1 and -x - y >= 0 have no vertex either, and no point
    empty = LinearSystem.build(2, (), (((1, 1), 1), ((-1, -1), 0)))
    assert vertex_enumerate(empty) == ()
    inconsistent = LinearSystem.build(2, (((1, 1), 1), ((1, 1), 2)))
    assert vertex_enumerate(inconsistent) == ()


def test_vertex_enumeration_of_equalities_alone():
    point = LinearSystem.build(2, (((1, 1), 1), ((1, -1), 0), ((2, 2), 2)))
    assert vertex_enumerate(point) == ((r(1, 2), r(1, 2)),)
    # rows of plain ints still give exact rational vertices
    ints = LinearSystem(1, (), (((1,), 0), ((-1,), -1)))
    assert [type(x) for p in vertex_enumerate(ints) for x in p] == [type(r(0))] * 2
    # and rows given as lists work as tuples do
    listed = LinearSystem(2, [((1, 1), 1)], [((1, 0), 0), ((0, 1), 0)])
    assert vertex_enumerate(listed) == ((r(0), r(1)), (r(1), r(0)))


def test_vertex_enumeration_solves_one_lp(monkeypatch):
    # A bounded polytope solves no LP; rows of rank below n solve exactly
    # one feasibility LP, here for a strip, which contains a line.
    import gptsteer.exactlp as exactlp
    calls = []
    clean = exactlp.lp_feasible

    def counted(system):
        calls.append("lp_feasible")
        return clean(system)

    def forbidden(*args, **kwargs):
        calls.append("lp_optimize")

    monkeypatch.setattr(exactlp, "lp_feasible", counted)
    monkeypatch.setattr(exactlp, "lp_optimize", forbidden)
    simplex = LinearSystem.build(
        3, (((1, 1, 1), 1),),
        (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)))
    assert len(vertex_enumerate(simplex)) == 3
    assert calls == []
    strip = LinearSystem.build(2, (), (((1, 0), 0), ((-1, 0), -1)))
    with pytest.raises(UnboundedRegionError, match="contains a line"):
        vertex_enumerate(strip)
    assert calls == ["lp_feasible"]


def test_vertex_enumeration_refuses_too_many_active_sets(monkeypatch):
    import gptsteer.exactlp as exactlp

    def forbidden(*args, **kwargs):
        raise AssertionError("the enumeration ran")

    # classical-30's effect polytope: 60 rows and t >= 0 in ambient 30,
    # McMullen's bound C(46, 15) + C(45, 14) on the rays of a 30-polytope
    # with 61 facets.
    space = zoo_classical(30)
    monkeypatch.setattr(exactlp, "solve_unique", forbidden)
    monkeypatch.setattr(exactlp, "lp_feasible", forbidden)
    count = math.comb(46, 15) + math.comb(45, 14)
    assert count == 678610095504
    with pytest.raises(ValueError, match=f"up to {count} rays.*cap of {RAY_CAP}"):
        extremal_effects(space)


def test_vertex_enumeration_eliminates_its_start_once(monkeypatch):
    # One elimination picks the starting basis and one solve gives all its
    # rays, on the effect polytope and on a state space's polar slice.
    import gptsteer.exactlp as exactlp
    import gptsteer.kernel as kernel
    import gptsteer.vecs as vecs
    calls = []

    def counted(module, name):
        clean = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or clean(*args))

    counted(kernel, "vertex_enumerate")
    counted(exactlp, "independent_rows")
    counted(exactlp, "solve_unique")
    gbit = zoo_gbit()
    assert calls == ["vertex_enumerate", "independent_rows", "solve_unique"]
    calls.clear()
    assert len(extremal_effects(gbit)) == 6
    assert calls == ["vertex_enumerate", "independent_rows", "solve_unique"]
    assert not hasattr(vecs, "rank")


def _oracle_vertices(n, eqs, ineqs):
    """brute_force_vertices of the system, each equality as two opposite rows."""
    rows = [(tuple(map(Fraction, c)), Fraction(b)) for c, b in ineqs]
    for c, b in eqs:
        rows.append((tuple(map(Fraction, c)), Fraction(b)))
        rows.append((tuple(-Fraction(x) for x in c), -Fraction(b)))
    return brute_force_vertices(rows, n)


def _enumerated(n, eqs, ineqs):
    return tuple(tuple(Fraction(format_ratio(c)) for c in point)
                 for point in vertex_enumerate(LinearSystem.build(n, eqs, ineqs)))


SQUARE_ROWS = (((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1))


@pytest.mark.parametrize("extra", [
    (((1, 0), 0), ((1, 0), 0)),            # a row twice more
    (((2, 0), 0), ((0, 3), 0)),            # positive multiples of rows
    (((-3, 0), -3), ((-1, 0), -1)),        # a multiple and a repeat of x <= 1
    (((1, 1), 0), ((-2, -2), -4)),         # rows tight only at a corner
])
def test_vertex_enumeration_of_repeated_and_scaled_rows(extra):
    ineqs = SQUARE_ROWS + extra
    assert _enumerated(2, (), ineqs) == _oracle_vertices(2, (), ineqs)
    assert len(_enumerated(2, (), ineqs)) == 4


@pytest.mark.parametrize("eqs, extra, count", [
    ((), (((0, 0), -1),), 4),              # 0 . x >= -1 holds everywhere
    ((), (((0, 0), 1),), 0),               # 0 . x >= 1 holds nowhere
    ((((0, 0), 0),), (), 4),               # 0 . x == 0 holds everywhere
    ((((0, 0), 1),), (), 0),               # 0 . x == 1 holds nowhere
])
def test_vertex_enumeration_of_zero_rows(eqs, extra, count):
    ineqs = SQUARE_ROWS + extra
    assert _enumerated(2, eqs, ineqs) == _oracle_vertices(2, eqs, ineqs)
    assert len(_enumerated(2, eqs, ineqs)) == count


def test_vertex_enumeration_with_more_than_d_facets_at_a_vertex():
    # the apex of a square pyramid lies on its four side facets
    pyramid = (((0, 0, 1), 0), ((1, 0, -1), 0), ((0, 1, -1), 0),
               ((-1, 0, -1), -2), ((0, -1, -1), -2))
    assert _enumerated(3, (), pyramid) == _oracle_vertices(3, (), pyramid)
    assert (1, 1, 1) in _enumerated(3, (), pyramid)
    # each vertex of the octahedron |x| + |y| + |z| <= 1 lies on four facets
    octahedron = tuple(((-a, -b, -c), -1) for a in (1, -1) for b in (1, -1) for c in (1, -1))
    assert _enumerated(3, (), octahedron) == _oracle_vertices(3, (), octahedron)
    assert len(_enumerated(3, (), octahedron)) == 6


def test_vertex_enumeration_of_an_equality_slice_of_the_cube():
    cube = tuple((tuple(s * int(i == j) for j in range(3)), min(s, 0))
                 for i in range(3) for s in (1, -1))
    hexagon = (((2, 2, 2), 3),)  # x + y + z == 3/2
    points = _enumerated(3, hexagon, cube)
    assert points == _oracle_vertices(3, hexagon, cube)
    assert len(points) == 6 and (0, Fraction(1, 2), 1) in points
    # a slice through one corner only is that corner
    assert _enumerated(3, (((1, 1, 1), 3),), cube) == ((1, 1, 1),)


# --- cone and convex membership ---------------------------------------------

def test_cone_membership_of_square_center(gbit):
    result = cone_member((1, 0, 0), gbit.vertices)
    assert result.feasible
    weights = result.witness
    assert all(w >= 0 for w in weights)
    combo = [sum(w * v[i] for w, v in zip(weights, gbit.vertices))
             for i in range(3)]
    assert tuple(combo) == (r(1), r(0), r(0))
    # the uniform weights are another valid (non-basic) solution
    uniform = [r(1, 4)] * 4
    combo = [sum(w * v[i] for w, v in zip(uniform, gbit.vertices))
             for i in range(3)]
    assert tuple(combo) == (r(1), r(0), r(0))


def test_cone_membership_outside_certificate(gbit):
    result = cone_member((0, 0, 1), gbit.vertices)  # not in the cone
    assert not result.feasible
    assert result.certificate is not None


def test_cone_membership_empty_generators():
    assert cone_member((0, 0), ()).feasible
    assert not cone_member((1, 0), ()).feasible


def test_convex_membership(gbit):
    assert convex_member((1, 0, 0), gbit.vertices).feasible
    assert not convex_member((1, 2, 0), gbit.vertices).feasible
    # scaled center is in the cone but not the convex hull
    assert cone_member((2, 0, 0), gbit.vertices).feasible
    assert not convex_member((2, 0, 0), gbit.vertices).feasible


# --- membership systems against rows written from their documented order ----

def _fraction_rows(rows):
    return [(tuple(Fraction(format_ratio(c)) for c in coeffs),
             Fraction(format_ratio(rhs))) for coeffs, rhs in rows]


def _membership_case(name):
    """(state, observables on its A side): canonical state or a separable mix."""
    rng = make_rng(SamplerConfig(seed=29))
    config = SamplerConfig(seed=29, min_observables=2, max_observables=3)
    if name == "gbit x classical-2":
        space = zoo_gbit()
        state = random_separable_state(space, zoo_classical(2), rng)
    else:
        space = {"gbit": zoo_gbit(), "classical-3": zoo_classical(3),
                 "polygon-3": zoo_polygon(3)}[name]
        state = canonical_max_entangled(space)
    return state, random_observable_set(space, rng, config)


MEMBERSHIP_CASES = ("gbit", "classical-3", "polygon-3", "gbit x classical-2")


def _three_outcome(observable):
    """The dichotomic observable with its first effect split 1/4 : 3/4."""
    effect, rest = observable.effects
    return Observable(observable.label + "3", observable.space, ("a", "b", "c"),
                      (r(1, 4) * effect, r(3, 4) * effect, rest))


@pytest.mark.parametrize("name", MEMBERSHIP_CASES + ("gbit three-outcome",))
def test_lhs_system_matches_oracle_rows(name):
    state, observables = _membership_case(name.removesuffix(" three-outcome"))
    if name.endswith(" three-outcome"):
        observables = (_three_outcome(observables[0]),) + observables[1:]
    asm = assemblage_from(state, observables)
    equalities, inequalities = lhs_rows(asm.space.vertices, asm.elements)
    system = lhs_linear_system(asm)
    assert system.variable_count == len(inequalities)
    assert _fraction_rows(system.equalities) == equalities
    assert _fraction_rows(system.inequalities) == inequalities


@pytest.mark.parametrize("three_outcome", (False, True))
@pytest.mark.parametrize("name", ("gbit", "classical-3", "polygon-5"))
def test_jm_system_matches_oracle_rows(name, three_outcome):
    space = {"gbit": zoo_gbit(), "classical-3": zoo_classical(3),
             "polygon-5": zoo_polygon(5)}[name]
    config = SamplerConfig(seed=31, min_observables=2, max_observables=3)
    observables = random_observable_set(space, make_rng(config), config)
    if three_outcome:
        observables = (_three_outcome(observables[0]),) + observables[1:]
    equalities, inequalities = jm_rows(
        space.vertices, [[e.coeffs for e in obs.effects] for obs in observables])
    system = jm_linear_system(observables, space)
    assert system.variable_count == len(inequalities[0][0])
    assert _fraction_rows(system.equalities) == equalities
    assert _fraction_rows(system.inequalities) == inequalities


@pytest.mark.parametrize("name", MEMBERSHIP_CASES)
def test_separability_system_matches_oracle_rows(name):
    state, _ = _membership_case(name)
    equalities, inequalities = separability_rows(
        state.space_a.vertices, state.space_b.vertices, state.matrix)
    system = separability_system(state)
    assert system.variable_count == len(inequalities)
    assert _fraction_rows(system.equalities) == equalities
    assert _fraction_rows(system.inequalities) == inequalities


def test_membership_system_row_order():
    system = membership_system((r(3), r(1)), [(r(1), r(0)), (r(1), r(1))], convex=True)
    assert system == LinearSystem.build(
        2, equalities=(((1, 1), 3), ((0, 1), 1), ((1, 1), 1)),
        inequalities=(((1, 0), 0), ((0, 1), 0)))


# --- property tests ----------------------------------------------------------

small_int = st.integers(min_value=-4, max_value=4)


@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    n_eq = draw(st.integers(min_value=0, max_value=2))
    n_ineq = draw(st.integers(min_value=0, max_value=4))
    eqs = tuple((tuple(draw(small_int) for _ in range(n)), draw(small_int))
                for _ in range(n_eq))
    ineqs = tuple((tuple(draw(small_int) for _ in range(n)), draw(small_int))
                  for _ in range(n_ineq))
    return n, eqs, ineqs


@settings(max_examples=120, deadline=None)
@given(small_systems())
def test_feasibility_always_justified(data):
    n, eqs, ineqs = data
    system = LinearSystem.build(n, eqs, ineqs)
    result = lp_feasible(system)
    if result.feasible:
        assert satisfies(system, result.witness)
        assert check_point(eqs, ineqs, [format_ratio(x) for x in result.witness])
    else:
        assert refutes(system, result.certificate)
        assert check_farkas(eqs, ineqs,
                            [Fraction(format_ratio(m)) for m in result.certificate])


@st.composite
def systems_with_bound_rows(draw):
    """Bound rows x_j >= 0, some repeated, among look-alikes and ordinary rows."""
    n = draw(st.integers(min_value=1, max_value=3))
    index = st.integers(min_value=0, max_value=n - 1)

    def unit(j, scale=1):
        return tuple(scale if i == j else 0 for i in range(n))

    row = st.one_of(
        index.map(lambda j: (unit(j), 0)),
        index.map(lambda j: (unit(j, 2), 0)),
        index.map(lambda j: (unit(j), 1)),
        index.map(lambda j: (unit(j), -1)),
        index.map(lambda j: (unit(j, -1), 0)),
        st.tuples(st.tuples(*[small_int] * n), small_int))
    ineqs = draw(st.lists(row, max_size=6))
    if ineqs and draw(st.booleans()):
        ineqs.append(draw(st.sampled_from(ineqs)))
    eqs = draw(st.lists(st.tuples(st.tuples(*[small_int] * n), small_int), max_size=2))
    return n, tuple(eqs), tuple(ineqs)


@settings(max_examples=150, deadline=None)
@given(systems_with_bound_rows(), st.tuples(small_int, small_int, small_int))
def test_bound_rows_keep_evidence(data, objective):
    n, eqs, ineqs = data
    system = LinearSystem.build(n, eqs, ineqs)
    result = lp_feasible(system)
    if result.feasible:
        assert check_point(eqs, ineqs, [format_ratio(x) for x in result.witness])
    else:
        assert check_farkas(eqs, ineqs,
                            [Fraction(format_ratio(m)) for m in result.certificate])
    optimum = lp_optimize(objective[:n], system, "max")
    assert (optimum.status == INFEASIBLE) == (not result.feasible)
    if optimum.status == OPTIMAL:
        assert check_point(eqs, ineqs, [format_ratio(x) for x in optimum.point])
        assert sum(r(c) * x for c, x in zip(objective[:n], result.witness)) <= optimum.value
    elif optimum.status == INFEASIBLE:
        assert check_farkas(eqs, ineqs,
                            [Fraction(format_ratio(m)) for m in optimum.certificate])


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_systems(), systems_with_bound_rows()))
def test_integer_rows_give_the_rational_rows_back(data):
    n, eqs, ineqs = data
    system = LinearSystem.build(n, eqs, ineqs)
    again = LinearSystem.from_integer_rows(n, len(eqs), system.integer_rows)
    assert again.equalities == system.equalities
    assert again.inequalities == system.inequalities
    assert all(type(x) is Fraction for coeffs, b in again.equalities + again.inequalities
               for x in (*coeffs, b))
    assert again == system
    if system.row_count:  # the same rows, split elsewhere, are another system
        assert LinearSystem.from_integer_rows(n, (len(eqs) + 1) % (system.row_count + 1),
                                              system.integer_rows) != system


STORED_FIELDS = {"variable_count", "n_eq", "row_count", "integer_rows"}


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_systems(), systems_with_bound_rows()), st.sampled_from((1, 2, 3, 6)),
       st.data())
def test_with_rhs_is_the_read_of_the_rows_at_that_rhs(rows, q, data):
    # an rhs b / q gives a row a denominator that its coefficients lack,
    # which with_rhs divides out before it adds the target's
    n, eqs, ineqs = rows
    eqs = tuple((coeffs, Fraction(b, q)) for coeffs, b in eqs)
    target = tuple(data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
                   for _ in eqs)
    system = LinearSystem.build(n, eqs, ineqs)
    moved = system.with_rhs(target)
    assert set(vars(system)) == set(vars(moved)) == STORED_FIELDS
    assert moved == LinearSystem.build(n, [(coeffs, t) for (coeffs, _), t in zip(eqs, target)],
                                       ineqs)
    for (coeffs, b, den), (new, _, _), t in zip(system.integer_rows, moved.integer_rows, target):
        assert (new is coeffs) == (b == 0 and den % t.denominator == 0)
    assert all(new is old for new, old in zip(moved.integer_rows[len(eqs):],
                                              system.integer_rows[len(eqs):], strict=True))
    with pytest.raises(ValueError):
        system.with_rhs(target + (Fraction(1),))


def test_integer_rows_the_solver_would_misread_are_refused():
    # unchecked, column 2 of two variables lands on the rhs key of the
    # certificate check (INFEASIBLE, certificate (1,), accepted by
    # refutes), n_eq -1 comes out FEASIBLE and n_eq 3 over one row raises
    # IndexError in the tableau; a row that is not primitive is not the
    # read's form: 2 x_0 == 2 over 2 would be unequal to the system of
    # x_0 == 1, and x_0 >= 0 over 2 would be missed as a bound row
    for n_eq, rows in ((1, (({2: 1}, 1, 1),)), (1, (({-1: 1}, 1, 1),)),
                       (-1, (({0: 1}, 1, 1),)), (3, (({0: 1}, 1, 1),)),
                       (1, (({0: 1}, 1, 0),)), (1, (({0: 1}, 1, -2),)),
                       (1, (({0: 2}, 2, 2),)), (0, (({0: 2}, 0, 2),))):
        with pytest.raises(ValueError):
            LinearSystem.from_integer_rows(2, n_eq, rows)
    # 2 x_0 == 1 over 2 is primitive through its rhs alone
    system = LinearSystem.from_integer_rows(2, 2, (({1: 1}, 1, 1), ({0: 2}, 1, 2)))
    assert set(vars(system)) == STORED_FIELDS
    assert lp_feasible(system).witness == (Fraction(1, 2), 1)


@st.composite
def bounded_systems(draw):
    """A box -k <= x_i <= k, more inequalities and 0-2 equalities."""
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(st.tuples(*[small_int] * n), small_int)
    ineqs = draw(st.lists(row, max_size=3))
    for i in range(n):
        unit = tuple(int(i == j) for j in range(n))
        ineqs += [(unit, -k), (tuple(-u for u in unit), -k)]
    eqs = draw(st.lists(row, max_size=2))
    if len(eqs) == 2 and draw(st.booleans()):
        eqs[1] = eqs[0]
    return n, tuple(eqs), tuple(ineqs)


@settings(max_examples=100, deadline=None)
@given(bounded_systems())
def test_vertex_enumeration_matches_brute_force_with_equalities(data):
    n, eqs, ineqs = data
    # the oracle knows only inequalities: each equality is two opposite rows
    rows = [(tuple(map(Fraction, c)), Fraction(b)) for c, b in ineqs]
    for c, b in eqs:
        rows.append((tuple(map(Fraction, c)), Fraction(b)))
        rows.append((tuple(-Fraction(x) for x in c), -Fraction(b)))
    got = [tuple(Fraction(format_ratio(c)) for c in point)
           for point in vertex_enumerate(LinearSystem.build(n, eqs, ineqs))]
    assert got == list(brute_force_vertices(rows, n))


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.tuples(small_int, small_int, small_int))
def test_optimum_dominates_feasible_points(data, objective):
    n, eqs, ineqs = data
    system = LinearSystem.build(n, eqs, ineqs)
    result = lp_optimize(objective[:n], system, "max")
    if result.status != OPTIMAL:
        return
    assert satisfies(system, result.point)
    assert result.value == sum(r(c) * x for c, x in zip(objective[:n], result.point))
    feas = lp_feasible(system)
    assert feas.feasible
    value_at_witness = sum(r(c) * x for c, x in zip(objective[:n], feas.witness))
    assert value_at_witness <= result.value


def _fractions(values):
    return [Fraction(format_ratio(x)) for x in values]


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_systems(), systems_with_bound_rows(), bounded_systems()),
       st.tuples(small_int, small_int, small_int), st.sampled_from(("max", "min")))
def test_optimal_results_carry_checked_certificates(data, objective, sense):
    n, eqs, ineqs = data
    result = lp_optimize(objective[:n], LinearSystem.build(n, eqs, ineqs), sense)
    if result.status == OPTIMAL:
        assert check_optimum(eqs, ineqs, objective[:n], sense,
                             Fraction(format_ratio(result.value)),
                             _fractions(result.certificate))
    elif result.status == INFEASIBLE:
        assert check_farkas(eqs, ineqs, _fractions(result.certificate))


@st.composite
def substitution_cases(draw):
    """A system, as ints through the plain constructor or as rationals
    through build, with a candidate point, certificate and optimum: the
    solver's own (then maybe nudged by one) or drawn at random, some of
    the wrong length and some with negative inequality multipliers."""
    n, eqs, ineqs = draw(st.one_of(small_systems(), systems_with_bound_rows(),
                                   bounded_systems()))
    if draw(st.booleans()):
        system = LinearSystem(n, tuple((tuple(c), b) for c, b in eqs),
                              tuple((tuple(c), b) for c, b in ineqs))
    else:
        scale = draw(st.sampled_from((1, 2, 3)))
        eqs = tuple((tuple(Fraction(x, scale) for x in c), Fraction(b, scale)) for c, b in eqs)
        ineqs = tuple((tuple(Fraction(x, scale) for x in c), Fraction(b, scale)) for c, b in ineqs)
        system = LinearSystem.build(n, eqs, ineqs)
    rows = len(eqs) + len(ineqs)
    objective = tuple(draw(st.lists(small_rationals, min_size=n, max_size=n)))
    sense = draw(st.sampled_from(("max", "min")))
    feasible = lp_feasible(system)
    optimum = lp_optimize(objective, system, sense)
    point = feasible.witness or optimum.point or ()
    certificate = feasible.certificate or optimum.certificate or ()
    value = optimum.value if optimum.value is not None else Fraction(0)

    def nudged(values, length):
        values = list(values)
        choice = draw(st.sampled_from(("keep", "nudge", "random", "resize")))
        if choice == "nudge" and values:
            k = draw(st.integers(0, len(values) - 1))
            values[k] += draw(st.sampled_from((1, -1, Fraction(1, 2))))
        elif choice == "random" or (choice == "nudge" and not values):
            values = draw(st.lists(small_rationals, min_size=length, max_size=length))
        elif choice == "resize":
            values = values[:-1] if values and draw(st.booleans()) else values + [Fraction(1)]
        return tuple(values)

    point = nudged(point or (0,) * n, n)
    certificate = nudged(certificate or (0,) * rows, rows)
    if draw(st.booleans()):
        value += draw(st.sampled_from((1, -1)))
    return system, eqs, ineqs, objective, sense, point, certificate, value


@settings(max_examples=250, deadline=None)
@given(substitution_cases())
def test_integer_substitution_checks_match_the_oracles(case):
    system, eqs, ineqs, objective, sense, point, certificate, value = case
    if len(point) == system.variable_count:
        assert satisfies(system, point) == check_point(eqs, ineqs, point)
    else:
        assert not satisfies(system, point)
    assert refutes(system, certificate) == check_farkas(eqs, ineqs, certificate)
    assert certifies_optimum(system, objective, value, certificate, sense) == \
        check_optimum(eqs, ineqs, objective, sense, value, certificate)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(small_int, small_int), min_size=1, max_size=5),
       st.tuples(small_int, small_int))
def test_convex_membership_hull_property(points, target):
    result = convex_member(target, points)
    if result.feasible:
        weights = result.witness
        assert all(w >= 0 for w in weights)
        assert sum(weights) == 1
        mix = (sum(w * r(p[0]) for w, p in zip(weights, points)),
               sum(w * r(p[1]) for w, p in zip(weights, points)))
        assert mix == (r(target[0]), r(target[1]))
    else:
        assert result.certificate is not None


# Scalars as the kernels meet them: ints, zeros of both types, and
# Fractions over mixed denominators or over pairwise-coprime (prime) ones.
PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.just(0), st.just(Fraction(0)),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
    st.builds(Fraction, st.integers(min_value=-999, max_value=999), st.sampled_from(PRIMES)))


def _long_row(rng, length):
    """A seeded row over prime denominators up to 997, with ints and zeros mixed in."""
    row = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.1:
            row.append(0)
        elif kind < 0.2:
            row.append(rng.randint(-999, 999))
        else:
            row.append(Fraction(rng.randint(-999, 999), rng.choice(PRIMES)))
    return row


def _naive_combine(weights, vectors):
    return tuple(sum((Fraction(w) * Fraction(vec[j]) for w, vec in zip(weights, vectors)),
                     Fraction(0)) for j in range(len(vectors[0])))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(st.lists(scalars, min_size=n, max_size=n),
                        st.lists(scalars, min_size=n, max_size=n))))
def test_dot_is_the_fraction_sum(pair):
    a, b = pair
    result = dot(a, b)
    assert type(result) is Fraction
    assert result == fdot(a, b)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=500, max_value=700))
def test_dot_on_long_rows_with_coprime_denominators(seed, length):
    rng = random.Random(seed)
    a, b = _long_row(rng, length), _long_row(rng, length)
    result = dot(a, b)
    assert type(result) is Fraction
    assert result == fdot(a, b)


def test_dot_and_combine_types_and_length_errors():
    assert type(dot((), ())) is Fraction and dot((), ()) == 0
    assert type(dot((2, 3), (4, 0))) is Fraction and dot((2, 3), (4, 0)) == 8
    assert [type(x) for x in combine((2,), ((1, 0),))] == [Fraction, Fraction]
    with pytest.raises(ValueError):
        dot((1, 2), (1,))
    with pytest.raises(ValueError):
        dot((r(1, 2),), (r(1, 3), 0))
    with pytest.raises(ValueError, match="at least one vector"):
        combine((), ())
    with pytest.raises(ValueError, match="differ in length"):
        combine((1, 1), ((1, 2), (1,)))
    with pytest.raises(ValueError):
        combine((1, 1, 1), ((1, 2), (3, 4)))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.tuples(scalars, st.lists(scalars, min_size=n, max_size=n)),
                       min_size=1, max_size=8)))
def test_combine_is_the_weighted_sum(terms):
    weights = [w for w, _ in terms]
    vectors = [tuple(vec) for _, vec in terms]
    naive = _naive_combine(weights, vectors)
    assert combine(weights, vectors) == naive
    assert combine([0] * len(vectors), vectors) == (r(0),) * len(vectors[0])
    assert [type(x) for x in combine(weights, vectors)] == [Fraction] * len(naive)


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_combine_on_long_vectors_with_coprime_denominators(seed):
    rng = random.Random(seed)
    weights = _long_row(rng, 8)
    vectors = [_long_row(rng, 500) for _ in weights]
    assert combine(weights, vectors) == _naive_combine(weights, vectors)
