"""The three membership tests (state cone, effect validity, maximal tensor
product) against the rational formulas they decide in integers."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptsteer.composites
import gptsteer.kernel
from gptsteer.composites import BipartiteState, in_max_tensor, max_tensor_violation
from gptsteer.kernel import (Effect, barycenter, in_state_cone, is_valid_effect,
                             is_valid_state, zoo_by_name)

from oracles import (effect_in_unit_range, facet_cone_member, fdot,
                     first_negative_facet_pair)
from test_exactlp import _sphere_space

F = Fraction
NAMES = ("gbit", "polygon-5", "polygon-8", "classical-4", "sphere-5")


@functools.cache
def _space(name):
    return _sphere_space() if name == "sphere-5" else zoo_by_name(name)


_SMALL = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 8, 64)))
_SCALE = st.sampled_from((F(1), F(1, 3), F(7, 2), F(64, 63)))


def _facet_point(space, data):
    """A positive mix of the vertices tight on one facet, times a positive scale."""
    facet = data.draw(st.sampled_from(space.facets))
    tight = [v for v in space.vertices if fdot(facet, v) == 0]
    weights = data.draw(st.lists(st.integers(0, 5), min_size=len(tight),
                                 max_size=len(tight)).filter(any))
    scale = data.draw(_SCALE)
    return tuple(scale * sum((w * v[i] for w, v in zip(weights, tight)), F(0))
                 for i in range(space.ambient_dim))


def _point(space, data):
    kind = data.draw(st.sampled_from(("facet", "nudged", "vertex", "zero", "grid")))
    if kind == "vertex":
        return data.draw(st.sampled_from(space.vertices))
    if kind == "zero":
        return (F(0),) * space.ambient_dim
    if kind == "grid":
        return tuple(data.draw(_SMALL) for _ in range(space.ambient_dim))
    point = _facet_point(space, data)
    if kind == "nudged":  # a step of 1/512 along a small direction, in or out
        step = [data.draw(st.integers(-1, 1)) for _ in range(space.ambient_dim)]
        point = tuple(x + F(s, 512) for x, s in zip(point, step))
    return point


def _effect(space, data):
    facet = data.draw(st.sampled_from(space.facets))  # 0 and 1 on some vertices
    unit = (F(1),) + (F(0),) * (space.ambient_dim - 1)
    kind = data.draw(st.sampled_from(("facet", "complement", "scaled", "grid", "zero")))
    if kind == "facet":
        return facet
    if kind == "complement":
        return tuple(u - f for u, f in zip(unit, facet))
    if kind == "scaled":
        return tuple(data.draw(_SCALE) * f for f in facet)
    if kind == "grid":
        return tuple(data.draw(_SMALL) for _ in range(space.ambient_dim))
    return (F(0),) * space.ambient_dim


def _matrix(space_a, space_b, data):
    """The product of two normalized boundary or inner points, perturbed off
    entry (0, 0) on a grid, and now and then scaled off normalization."""
    a, b = (_normalized_cone_point(space, data) for space in (space_a, space_b))
    den = data.draw(st.sampled_from((8, 64, 4096)))
    bumps = data.draw(st.lists(st.integers(-2, 2), min_size=len(a) * len(b),
                               max_size=len(a) * len(b)))
    matrix = [[x * y + (0 if i == j == 0 else F(bumps[i * len(b) + j], den))
               for j, y in enumerate(b)] for i, x in enumerate(a)]
    if data.draw(st.integers(0, 5)) == 0:
        matrix = [[2 * x for x in row] for row in matrix]
    return tuple(tuple(row) for row in matrix)


def _normalized_cone_point(space, data):
    point = data.draw(st.sampled_from(("facet", "vertex", "center")))
    if point == "vertex":
        return data.draw(st.sampled_from(space.vertices))
    if point == "center":
        return barycenter(space).coords
    vec = _facet_point(space, data)
    return tuple(x / vec[0] for x in vec)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_state_cone_agrees_with_the_facet_formula(name, data):
    space = _space(name)
    vec = _point(space, data)
    expected = facet_cone_member(space.facets, vec)
    assert in_state_cone(vec, space) == expected
    assert is_valid_state(vec, space) == (vec[0] == 1 and expected)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_effect_validity_agrees_with_the_vertex_formula(name, data):
    space = _space(name)
    effect = _effect(space, data)
    assert is_valid_effect(effect, space) == effect_in_unit_range(space.vertices, effect)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(NAMES), st.data())
def test_max_tensor_agrees_with_the_facet_pair_loop(name_a, name_b, data):
    space_a, space_b = _space(name_a), _space(name_b)
    matrix = _matrix(space_a, space_b, data)
    state = BipartiteState(space_a, space_b, matrix)
    pair = first_negative_facet_pair(space_a.facets, space_b.facets, matrix)
    violation = max_tensor_violation(state)
    if matrix[0][0] != 1:
        assert violation is None and not in_max_tensor(state)
        return
    assert violation == (None if pair is None else (Effect(pair[0]), Effect(pair[1])))
    assert in_max_tensor(state) == (pair is None)


def _refuse(*args, **kwargs):
    raise AssertionError("a membership test took a rational sum")


@pytest.mark.parametrize("name", ["gbit", "polygon-8"])
def test_membership_builds_no_rational_sum(name, monkeypatch):
    space = _space(name)
    center = barycenter(space).coords
    outside = (F(1), F(2), F(0))
    facet = space.facets[0]
    stretched = tuple(F(3, 2) * f for f in facet)
    inner = BipartiteState(space, space, tuple(tuple(x * y for y in center) for x in center))
    far = BipartiteState(space, space, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    expected_pair = first_negative_facet_pair(space.facets, space.facets, far.matrix)
    assert expected_pair is not None
    for module, attr in ((gptsteer.kernel, "dot"), (gptsteer.composites, "dot"),
                         (gptsteer.composites, "combine")):
        monkeypatch.setattr(module, attr, _refuse)
    assert in_state_cone(center, space) and not in_state_cone(outside, space)
    assert is_valid_state(center, space) and not is_valid_state(outside, space)
    assert is_valid_state(space.vertices[0], space)
    assert is_valid_effect(facet, space) and not is_valid_effect(stretched, space)
    assert in_max_tensor(inner) and not in_max_tensor(far)
    assert max_tensor_violation(far) == (Effect(expected_pair[0]), Effect(expected_pair[1]))
