"""The shape part of the JM, LHS and membership LPs, memoized per space
and outcome counts, the separability and conditioning LPs built from
integer vertices, and the critical-level LP built from the sharp
system's integer rows.

Each of these systems is built from integer rows alone, and no package
LP reads rational rows. Every one is
compared with the read of rational rows written independently of its
builder, by ``tests/oracles.py``: the read (``integer_rows`` of a
system built from rationals) is the definition of the integer form.
"""

import copy
import functools
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptsteer.compatibility as compatibility
import gptsteer.exactlp as exactlp
import gptsteer.steering as steering
from gptsteer.compatibility import (check_joint_measurability, jm_critical_visibility,
                                    jm_linear_system)
from gptsteer.composites import (VERTEX_PAIR_CAP, canonical_max_entangled, is_separable,
                                 product_state, separability_system, subnormalized_conditional)
from gptsteer.exactlp import LinearSystem, cone_member, convex_member, membership_system
from gptsteer.kernel import (Observable, barycenter, depolarize_observable, extremal_effects,
                             square_fiducials, zoo_by_name, zoo_gbit, zoo_polygon)
from gptsteer.ratio import ZERO, as_ratio
from gptsteer.sampler import random_effect, random_separable_state, random_state
from gptsteer.steering import (assemblage_from, check_lhs, conditioning_system,
                               find_conditioning_effect, lhs_critical_visibility,
                               lhs_linear_system)

from oracles import (conditioning_rows, jm_rows, lhs_rows, membership_rows,
                     separability_rows)
from test_exactlp import _sphere_space

r = as_ratio
F = Fraction
NAMES = ("gbit", "classical-3", "polygon-5", "polygon-8", "sphere-5")
# what a system built from integer rows stores: no rational row
INTEGER_FIELDS = {"variable_count", "n_eq", "row_count", "integer_rows"}


@functools.cache
def _space(name):
    return _sphere_space() if name == "sphere-5" else zoo_by_name(name)


def _observable(space, rng, label, outcomes):
    """A random valid observable: (e, u - e), or (t e, (1 - t) e, u - e)."""
    e = random_effect(space, rng)
    rest = space.unit - e
    if outcomes == 2:
        return Observable(label, space, ("+", "-"), (e, rest))
    t = r(rng.randint(0, 4), 4)
    return Observable(label, space, ("0", "1", "2"), (t * e, (1 - t) * e, rest))


def _effects(family):
    return [[e.coeffs for e in obs.effects] for obs in family]


def _assert_rows_are(system, rows):
    """The system stores integer rows and nothing rational, and they are
    the read of rows, (equalities, inequalities) written by an oracle; its
    rational view gives those rows back."""
    assert set(vars(system)) == INTEGER_FIELDS
    equalities, inequalities = rows
    reference = LinearSystem(system.variable_count, tuple(equalities), tuple(inequalities))
    assert system.integer_rows == reference.integer_rows
    assert system.equalities == reference.equalities
    assert system.inequalities == reference.inequalities
    assert system == reference
    for coeffs, rhs, den in system.integer_rows:
        assert all(type(x) is int and x for x in coeffs.values())
        assert type(rhs) is int and type(den) is int and den > 0


def _eta_rows(sharp, zero):
    """The critical-level LP over (x, eta) from the oracle rows at level 1
    and level 0: A x + eta (b0 - b1) == b0, each inequality with eta
    entry 0, then eta >= 0 and -eta >= -1."""
    (equalities, inequalities), (at_zero, _) = sharp, zero
    n = len(inequalities[0][0])
    eta = (F(0),) * n + (F(1),)
    return ([(coeffs + (b0 - b1,), b0)
             for (coeffs, b1), (_, b0) in zip(equalities, at_zero, strict=True)],
            [(coeffs + (F(0),), b) for coeffs, b in inequalities]
            + [(eta, F(0)), (tuple(-x for x in eta), F(-1))])


class _Stop(Exception):
    pass


def _eta_system(run):
    """The critical-level LP that run() builds, caught before it is solved."""
    def capture(objective, system, sense):
        raise _Stop(system)

    with mock.patch.object(compatibility, "lp_optimize", capture):
        with pytest.raises(_Stop) as stopped:
            run()
    return stopped.value.args[0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NAMES), st.lists(st.sampled_from((2, 3)), min_size=1, max_size=3),
       st.integers(0, 2 ** 16))
def test_integer_built_systems_are_the_oracle_rows(name, counts, seed):
    space = _space(name)
    rng = random.Random(seed)
    family = tuple(_observable(space, rng, f"o{i}", n) for i, n in enumerate(counts))
    noise = tuple(depolarize_observable(o, ZERO) for o in family)
    state = random_separable_state(space, space, rng)
    assemblage = assemblage_from(state, family)
    gens = space.vertices[:rng.randint(1, len(space.vertices))]
    point = random_state(space, rng).coords
    target = tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(space.ambient_dim))
    jm = jm_rows(space.vertices, _effects(family))
    lhs = lhs_rows(space.vertices, assemblage.elements)
    for system, rows in (
            (jm_linear_system(family, space), jm),
            (lhs_linear_system(assemblage), lhs),
            (separability_system(state),
             separability_rows(space.vertices, space.vertices, state.matrix)),
            (membership_system(point, gens, convex=False), membership_rows(point, gens, False)),
            (membership_system(point, gens, convex=True), membership_rows(point, gens, True)),
            (conditioning_system(state, target),
             conditioning_rows(state.matrix, space.vertices, target)),
            (_eta_system(lambda: jm_critical_visibility(family, space)),
             _eta_rows(jm, jm_rows(space.vertices, _effects(noise)))),
            (_eta_system(lambda: lhs_critical_visibility(family, state)),
             _eta_rows(lhs, lhs_rows(space.vertices,
                                     assemblage_from(state, noise).elements)))):
        _assert_rows_are(system, rows)


@pytest.mark.parametrize("name_b", NAMES)
@pytest.mark.parametrize("name_a", NAMES)
def test_separability_system_is_the_membership_system_of_the_products(name_a, name_b):
    # every ordered pair of spaces, sphere-5 (ambient dimension 4) with the
    # others (3) too: the rows built from integer vertices are the
    # membership builder's read of the rational products va (x) vb
    space_a, space_b = _space(name_a), _space(name_b)
    state = random_separable_state(space_a, space_b, random.Random(f"{name_a}|{name_b}"))
    gens = [tuple([x * y for x in a for y in b])
            for a, b in itertools.product(space_a.vertices, space_b.vertices)]
    expected = membership_system(tuple(c for row in state.matrix for c in row), gens,
                                 convex=True)
    system = separability_system(state)
    assert system.variable_count == len(gens)
    assert system == expected
    _assert_rows_are(system, separability_rows(space_a.vertices, space_b.vertices,
                                               state.matrix))


def test_separability_lp_at_the_cap_is_small_and_never_made_rational(monkeypatch):
    # polygon-64 with itself, 4096 vertex pairs, the cap: building the LP
    # allocates a few MiB, where the dense rational rows w >= 0 alone took
    # 129.6 MB, and deciding it never reads the rows back as rationals
    space = zoo_polygon(64)
    state = product_state(space, barycenter(space), space, barycenter(space))
    tracemalloc.start()
    try:
        system = separability_system(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.variable_count == VERTEX_PAIR_CAP
    assert peak < 16 * 2 ** 20
    read = []

    class Spy:  # a non-data descriptor: rows stored in a system shadow it
        def __init__(self, view):
            self.view = view

        def __get__(self, system, owner=None):
            read.append(self.view.attrname)
            return self.view.__get__(system, owner)

    for name in ("equalities", "inequalities"):
        monkeypatch.setattr(LinearSystem, name, Spy(vars(LinearSystem)[name]))
    assert is_separable(state).separable
    assert read == []


def test_a_seen_shape_builds_no_row_and_runs_no_read(monkeypatch):
    space = zoo_gbit()
    phi = canonical_max_entangled(space)
    x, y = square_fiducials(space)
    jm_linear_system((x, y), space)
    lhs_linear_system(assemblage_from(phi, (x, y)))
    assert set(space.lp_shapes) == {("jm", (2, 2)), ("lhs", (2, 2))}
    noisy = (depolarize_observable(x, r(1, 2)), depolarize_observable(y, r(1, 3)))
    assemblage = assemblage_from(phi, noisy)

    def forbidden(*args):
        raise AssertionError("a coefficient row was built")

    def no_read(*args):
        raise AssertionError("rational rows were read")

    monkeypatch.setattr(compatibility, "_slot_stack", forbidden)
    monkeypatch.setattr(steering, "_slot_stack", forbidden)
    monkeypatch.setattr(exactlp, "_read_rows", no_read)
    built = [jm_linear_system(noisy, space), lhs_linear_system(assemblage)]
    monkeypatch.undo()
    _assert_rows_are(built[0], jm_rows(space.vertices, _effects(noisy)))
    _assert_rows_are(built[1], lhs_rows(space.vertices, assemblage.elements))
    assert len(space.lp_shapes) == 2


def test_a_refused_family_stores_no_shape(gbit, fiducials, monkeypatch):
    # the cap is checked once per shape, before the build: seven X/Y copies
    # are refused without a row built or a key kept, so the second call is
    # refused the same way
    copies = [depolarize_observable(fiducials[i % 2], r(1, 2)) for i in range(7)]

    def forbidden(*args):
        raise AssertionError("a refused shape was built")

    monkeypatch.setattr(compatibility, "_jm_shape", forbidden)
    for _ in range(2):
        with pytest.raises(ValueError, match="512 \\(outcome tuple, vertex\\) pairs"):
            jm_linear_system(copies, gbit)
        assert ("jm", (2,) * 7) not in gbit.lp_shapes


def test_no_package_lp_reads_rational_rows(monkeypatch):
    # with the read of rational rows made to raise, a new space is built
    # and every family of package LPs is built and solved on it
    def no_read(*args):
        raise AssertionError("rational rows were read")

    monkeypatch.setattr(exactlp, "_read_rows", no_read)
    space = zoo_polygon(5)
    assert len(extremal_effects(space)) == 12
    rng = random.Random(11)
    family = (_observable(space, rng, "a", 2), _observable(space, rng, "b", 3))
    state = random_separable_state(space, space, rng)
    check_joint_measurability(family, space)
    check_lhs(assemblage_from(state, family))
    assert is_separable(state).separable
    effect = random_effect(space, rng)
    target = subnormalized_conditional(state, effect, "A")
    assert subnormalized_conditional(state, find_conditioning_effect(state, target),
                                     "A") == target
    point = barycenter(space).coords
    assert cone_member(point, space.vertices).feasible
    assert convex_member(point, space.vertices).feasible
    jm_critical_visibility(family, space)
    lhs_critical_visibility(family, state)
    assert set(space.lp_shapes) == {("jm", (2, 3)), ("lhs", (2, 3))}


@pytest.mark.parametrize("name", ["gbit", "polygon-5"])
def test_memoized_shapes_are_systems_at_rhs_zero(name):
    space = zoo_by_name(name)
    rng = random.Random(7)
    family = (_observable(space, rng, "a", 2), _observable(space, rng, "b", 3))
    check_joint_measurability(family, space)
    check_lhs(assemblage_from(random_separable_state(space, space, rng), family))
    assert set(space.lp_shapes) == {("jm", (2, 3)), ("lhs", (2, 3))}
    for shape in space.lp_shapes.values():
        assert type(shape) is LinearSystem and set(vars(shape)) == INTEGER_FIELDS
        assert shape.n_eq and all(b == 0 for _, b, _ in shape.integer_rows[:shape.n_eq])


@pytest.mark.parametrize("name", ["gbit", "polygon-5"])
def test_shape_memo_stays_out_of_equality_hash_and_repr(name):
    space, again = zoo_by_name(name), zoo_by_name(name)
    rng = random.Random(5)
    family = (_observable(space, rng, "a", 2), _observable(space, rng, "b", 3))
    check_joint_measurability(family, space)
    assert space.lp_shapes and not again.lp_shapes
    assert "lp_shapes" not in repr(space) and "LinearShape" not in repr(space)
    assert space == again and hash(space) == hash(again) and repr(space) == repr(again)


def test_solving_shares_the_memo_rows_and_never_changes_them(gbit, phi, fiducials):
    x, y = fiducials
    half = (depolarize_observable(x, r(1, 2)), depolarize_observable(y, r(1, 2)))
    for family in (fiducials, half):  # an incompatible and a compatible pair
        check_joint_measurability(family, gbit)
        check_lhs(assemblage_from(phi, family))
    shapes = [gbit.lp_shapes[("jm", (2, 2))], gbit.lp_shapes[("lhs", (2, 2))]]
    before = copy.deepcopy([s.integer_rows for s in shapes])
    systems = [jm_linear_system(half, gbit), lhs_linear_system(assemblage_from(phi, half))]
    # the JM unit rows have integer targets, so they share their dicts
    assert all(systems[0].integer_rows[c][0] is shapes[0].integer_rows[c][0] for c in range(3))
    for shape, system in zip(shapes, systems):
        n_eq = shape.n_eq
        assert all(row is ints for row, ints
                   in zip(system.integer_rows[n_eq:], shape.integer_rows[n_eq:], strict=True))
    for family in (fiducials, half, (x, y, half[0])):
        check_joint_measurability(family, gbit)
        check_lhs(assemblage_from(phi, family))
        jm_critical_visibility(family, gbit)
        lhs_critical_visibility(family, phi)
    assert [s.integer_rows for s in shapes] == before


def test_a_target_denominator_rescales_a_copy_of_the_row():
    # rows (1/2, 1) and (1, 0) over targets 1/3 and 2: the first row's ints
    # (1, 2) / 2 go to (3, 6) / 6, the second keeps its dict
    system = membership_system((Fraction(1, 3), Fraction(2)),
                               [(Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))],
                               convex=False)
    assert system.integer_rows[:2] == (({0: 3, 1: 6}, 2, 6), ({0: 1}, 2, 1))
    _assert_rows_are(system, membership_rows((F(1, 3), F(2)), [(F(1, 2), F(1)), (F(1), F(0))],
                                             False))
    again = membership_system((Fraction(1, 2), Fraction(1)),
                              [(Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))],
                              convex=False)
    assert again.integer_rows[:2] == (({0: 1, 1: 2}, 1, 2), ({0: 1}, 1, 1))
