"""State spaces, effects, observables, the zoo and noise."""

import gc
import hashlib
import itertools
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsteer.composites import mix_bipartite_states
from gptsteer.exactlp import convex_member
from gptsteer.kernel import (Effect, Observable, State,
                             StateSpace, barycenter,
                             depolarize_observable, dichotomic_observable,
                             extremal_effects, in_state_cone, is_valid_effect,
                             is_valid_observable, is_valid_state, mix_effects,
                             mix_states, mother_outcome_tuples, probability,
                             square_fiducials, state_cone_facets,
                             trivial_observable, unit_effect, zero_effect,
                             zoo_by_name, zoo_classical, zoo_gbit, zoo_names,
                             zoo_polygon)
from gptsteer.ratio import as_ratio, format_ratio
from gptsteer.vecs import combine, dot

from oracles import brute_force_vertices, effect_polytope_vertices, fdot, rank_of

r = as_ratio


# --- construction and validation ---------------------------------------------

def test_state_space_rejects_bad_vertices():
    with pytest.raises(ValueError):
        StateSpace("bad", 2, ((2, 0),))  # first coordinate must be 1
    with pytest.raises(ValueError):
        StateSpace("bad", 2, ((1, 0), (1, 0)))  # duplicates
    with pytest.raises(ValueError):
        StateSpace("bad", 3, ((1, 0), (1, 1)))  # wrong length
    with pytest.raises(ValueError):
        # the middle vertex is a mixture of the outer two
        StateSpace("bad", 2, ((1, 0), (1, r(1, 2)), (1, 1)))
    with pytest.raises(ValueError):
        # three collinear-in-slice points cannot span ambient dimension 4
        StateSpace("bad", 4, ((1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)))


def test_state_space_rejects_float_coordinates():
    with pytest.raises(TypeError):
        StateSpace("bad", 2, ((1, 0.5),))


def test_effect_arithmetic():
    e = Effect((r(1, 2), r(1, 2), 0))
    f = Effect((r(1, 2), 0, r(1, 2)))
    assert (e + f).coeffs == (r(1), r(1, 2), r(1, 2))
    assert (e - f).coeffs == (r(0), r(1, 2), r(-1, 2))
    assert (r(2) * e).coeffs == (r(1), r(1), r(0))
    assert unit_effect(3).coeffs == (r(1), r(0), r(0))
    assert zero_effect(2).coeffs == (r(0), r(0))


def test_state_weight():
    assert State((r(1, 2), r(1, 4))).weight == r(1, 2)


# --- the zoo ------------------------------------------------------------------

def test_classical_spaces():
    c2 = zoo_classical(2)
    assert c2.vertices == ((r(1), r(0)), (r(1), r(1)))
    c3 = zoo_classical(3)
    assert len(c3.vertices) == 3 and c3.ambient_dim == 3
    with pytest.raises(ValueError):
        zoo_classical(1)


def test_gbit_square(gbit):
    assert gbit.ambient_dim == 3
    assert set(gbit.vertices) == {(r(1), r(1), r(1)), (r(1), r(1), r(-1)),
                                  (r(1), r(-1), r(1)), (r(1), r(-1), r(-1))}


def test_polygons_are_valid_models():
    for n in range(3, 9):
        space = zoo_polygon(n)  # construction validates irredundancy
        assert len(space.vertices) == n
        assert space.ambient_dim == 3
    assert zoo_polygon(4).vertices == zoo_gbit().vertices
    with pytest.raises(ValueError):
        zoo_polygon(2)


def test_zoo_by_name():
    assert zoo_by_name("gbit").label == "gbit"
    assert zoo_by_name("classical-4").ambient_dim == 4
    assert zoo_by_name("polygon-6").label == "polygon-6"
    for bad in ("nosuch", "classical-1", "polygon-2", "classical-x", "polygon-"):
        with pytest.raises(ValueError):
            zoo_by_name(bad)
    for name in zoo_names():
        assert zoo_by_name(name).label == name


def test_zoo_by_name_reads_ascii_sizes_only():
    # str.isdigit accepts fullwidth and superscript digits, and int() only some of them
    for bad in ("polygon-\uff15", "polygon-\u00b2", "classical-\u0663", "polygon-5\u0663"):
        with pytest.raises(ValueError, match="unknown model"):
            zoo_by_name(bad)


def test_barycenters(gbit, classical2):
    assert barycenter(gbit).coords == (r(1), r(0), r(0))
    assert barycenter(classical2).coords == (r(1), r(1, 2))


# --- validity predicates -------------------------------------------------------

def test_probability_values(gbit, fiducials):
    X, _ = fiducials
    assert probability(X.effect("+"), State((1, 1, 1))) == r(1)
    assert probability(X.effect("+"), State((1, -1, 1))) == r(0)
    assert probability(X.effect("+"), barycenter(gbit)) == r(1, 2)
    with pytest.raises(ValueError):
        probability(Effect((1, 0)), State((1, 0, 0)))


def test_effect_validity(gbit):
    assert is_valid_effect((r(1, 2), r(1, 2), 0), gbit)
    assert is_valid_effect((1, 0, 0), gbit)
    assert is_valid_effect((0, 0, 0), gbit)
    assert not is_valid_effect((2, 0, 0), gbit)
    assert not is_valid_effect((r(1, 2), r(3, 4), 0), gbit)
    with pytest.raises(ValueError):
        is_valid_effect((1, 0), gbit)


def test_state_validity(gbit):
    assert is_valid_state((1, 0, 0), gbit)
    assert is_valid_state((1, 1, 1), gbit)
    assert not is_valid_state((1, 2, 0), gbit)
    assert not is_valid_state((r(1, 2), 0, 0), gbit)  # sub-normalized


def test_extremal_effects_match_brute_force(gbit, classical2):
    for space, count in ((gbit, 6), (classical2, 4)):
        got = tuple(e.coeffs for e in extremal_effects(space))
        expected = effect_polytope_vertices(space.vertices)
        assert [tuple(Fraction(format_ratio(c)) for c in e) for e in got] \
            == list(expected)
        assert len(got) == count


def test_extremal_effects_gbit_frozen(gbit):
    # zero, unit, and the four half-sharp axis readers
    h = r(1, 2)
    assert tuple(e.coeffs for e in extremal_effects(gbit)) == (
        (r(0), r(0), r(0)), (h, -h, r(0)), (h, r(0), -h),
        (h, r(0), h), (h, h, r(0)), (r(1), r(0), r(0)))


def test_polygon_extremal_effects_match_brute_force():
    space = zoo_polygon(5)
    got = tuple(e.coeffs for e in extremal_effects(space))
    expected = effect_polytope_vertices(space.vertices)
    assert [tuple(Fraction(format_ratio(c)) for c in e) for e in got] \
        == list(expected)


def test_zoo_geometry_is_pinned():
    # facets and extremal effects of eleven zoo spaces, one line each
    names = ["gbit"] + [f"classical-{n}" for n in range(2, 6)] \
        + [f"polygon-{n}" for n in range(3, 9)]
    lines = []
    for name in names:
        space = zoo_by_name(name)
        lines += [f"{name} facet " + " ".join(map(format_ratio, f))
                  for f in state_cone_facets(space)]
        lines += [f"{name} effect " + " ".join(map(format_ratio, e.coeffs))
                  for e in extremal_effects(space)]
    assert len(lines) == 191
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3e24fba2ecb351290453f5817826bdd993c13851d5d450fbd73ff3241ea917f1"


def test_minimal_tensor_product_of_two_gbits_builds(gbit):
    # The 16 product vertices va (x) vb span ambient 9. Its state cone has
    # 24 facets: the 16 products fa (x) fb and 8 more, each checked here by
    # substitution alone.
    vertices = [tuple(x * y for x in a for y in b) for a in gbit.vertices for b in gbit.vertices]
    space = StateSpace("gbit-min-gbit", 9, vertices)
    facets = [tuple(Fraction(format_ratio(x)) for x in f) for f in state_cone_facets(space)]
    assert len(facets) == 24
    for facet in facets:
        values = [fdot(facet, v) for v in vertices]
        assert min(values) == 0 and max(values) == 1
        assert rank_of([v for v, value in zip(vertices, values) if value == 0]) == 8
    gbit_facets = [tuple(Fraction(format_ratio(x)) for x in f) for f in state_cone_facets(gbit)]
    products = {tuple(x * y for x in fa for y in fb) for fa in gbit_facets for fb in gbit_facets}
    assert len(products) == 16 and products <= set(facets)


def test_a_space_enumerates_its_facets_once(monkeypatch):
    import gptsteer.kernel
    from gptsteer.composites import max_tensor_violation, product_state

    enumerations = []
    enumerate_vertices = gptsteer.kernel.vertex_enumerate

    def counted(system):
        enumerations.append(system)
        return enumerate_vertices(system)

    vertices = zoo_polygon(6).vertices
    monkeypatch.setattr(gptsteer.kernel, "vertex_enumerate", counted)
    space = StateSpace("counted-polygon-6", 3, vertices)
    assert len(enumerations) == 1
    center = barycenter(space)
    assert in_state_cone(center.coords, space)
    assert is_valid_state(center, space)
    assert not is_valid_state((1, 2, 0), space)
    assert max_tensor_violation(product_state(space, center, space, center)) is None
    assert state_cone_facets(space) is space.facets
    assert len(enumerations) == 1


def test_polygon_build_dots_stay_as_short_as_its_vertices(monkeypatch):
    # the polar slice's normals carry the lcm of every vertex denominator;
    # scaled to primitive integer directions first, the N^2 facet-vertex
    # dots, taken in ints against each vertex's primitive_row, see no
    # operand longer than twice a vertex entry (unscaled: 289 bits against 21)
    import gptsteer.kernel

    def bits(vec):
        return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                   for x in vec)

    normals, points = [], []
    ray, row = gptsteer.kernel._primitive_ray, gptsteer.kernel.primitive_row
    monkeypatch.setattr(gptsteer.kernel, "_primitive_ray",
                        lambda f: normals.append(ray(f)) or normals[-1])
    monkeypatch.setattr(gptsteer.kernel, "primitive_row",
                        lambda v: points.append(row(v)) or points[-1])
    space = zoo_polygon(64)
    vertex_bits = max(bits(v) for v in space.vertices)
    assert vertex_bits == 21
    assert len(normals) == len(points) == 64
    assert all(type(x) is int for f in normals for x in f)
    assert all(type(x) is int for ints, _ in points for x in ints)
    assert max(bits(f) for f in normals) <= 2 * vertex_bits
    assert max(bits(ints) for ints, _ in points) <= 2 * vertex_bits


def test_a_dropped_space_is_freed():
    space = StateSpace("dropped-polygon-5", 3, zoo_polygon(5).vertices)
    assert is_valid_state(barycenter(space), space)
    extremal_effects(space)
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None


def test_facets_stay_out_of_equality_hash_and_repr(gbit):
    again = zoo_gbit()
    assert again == gbit and hash(again) == hash(gbit)
    assert "facets" not in repr(gbit)
    assert repr(again) == repr(gbit)


@pytest.mark.parametrize("name", ["gbit", "classical-4", "polygon-5", "polygon-8"])
def test_integer_forms_stay_out_of_equality_hash_and_repr(name):
    space, again = zoo_by_name(name), zoo_by_name(name)
    text = repr(space)
    assert "facet_normals" not in text and "vertex_rows" not in text
    object.__setattr__(again, "facet_normals", ())
    object.__setattr__(again, "vertex_rows", ())
    assert again == space and hash(again) == hash(space) and repr(again) == text
    # normal i is the primitive integer ray of facets[i], computed here in plain ints
    assert len(space.facet_normals) == len(space.facets)
    for facet, normal in zip(space.facets, space.facet_normals):
        den = math.lcm(*[x.denominator for x in facet])
        ints = [x.numerator * (den // x.denominator) for x in facet]
        g = math.gcd(*ints)
        assert normal == tuple(x // g for x in ints)
        assert all(type(x) is int for x in normal)
    # vertex_rows[k] is vertices[k] as primitive ints over a positive denominator
    for vertex, (ints, den) in zip(space.vertices, space.vertex_rows, strict=True):
        assert den > 0 and math.gcd(den, *ints) == 1
        assert tuple(Fraction(x, den) for x in ints) == vertex


def test_state_cone_facets_and_membership(gbit, classical2):
    for space in (gbit, classical2):
        for facet in state_cone_facets(space):
            assert all(sum(f * c for f, c in zip(facet, v)) >= 0
                       for v in space.vertices)
    assert in_state_cone((r(1, 2), 0, 0), gbit)
    assert in_state_cone((0, 0, 0), gbit)
    assert not in_state_cone((1, 2, 0), gbit)
    assert not in_state_cone((-1, 0, 0), gbit)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("gbit", "polygon-5")),
       st.sampled_from((1, 1, 1, r(1, 2), 0)),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_state_validity_equals_convex_membership(name, weight, raw):
    space = zoo_by_name(name)
    coords = (r(weight),) + tuple(r(x, 8) for x in raw)
    assert is_valid_state(coords, space) == convex_member(coords, space.vertices).feasible


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=5, max_size=5).filter(
           lambda w: sum(x > 0 for x in w) >= 2),
       st.integers(0, 5))
def test_non_extreme_point_is_rejected(weights, position):
    # a mixture of at least two polygon vertices lies on an edge or inside
    vertices = zoo_polygon(5).vertices
    point = mix_states([State(v) for v in vertices],
                       [r(w, sum(weights)) for w in weights]).coords
    listed = vertices[:position] + (point,) + vertices[position:]
    with pytest.raises(ValueError) as excinfo:
        StateSpace("polygon-5-plus", 3, listed)
    assert str(excinfo.value) == f"vertex {point} is a convex combination of the others"


# A square pyramid (its apex lies on 4 facets) and the 3-cube, each as
# its corners, its facet rows c.x >= b over (x, y, z), and non-extreme
# points keyed by how many facets they lie on: 2 on an edge, 1 on a
# facet, 0 inside.
PYRAMID = ([(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)],
           [((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, -1), -1),
            ((0, -1, -1), -1), ((0, 1, -1), -1)],
           {2: (r(1, 2), r(1, 2), r(1, 2)), 1: (r(2, 3), 0, r(1, 3)), 0: (0, 0, r(1, 4))})
CUBE = ([tuple(p) for p in itertools.product((1, -1), repeat=3)],
        [(tuple(s if k == axis else 0 for k in range(3)), -1)
         for axis in range(3) for s in (1, -1)],
        {2: (1, 1, 0), 1: (0, 0, -1), 0: (r(1, 2), 0, 0)})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((PYRAMID, CUBE)), st.data())
def test_non_extreme_point_is_rejected_in_3d(shape, data):
    corners, inequalities, extras = shape
    rows = [(tuple(map(Fraction, c)), Fraction(b)) for c, b in inequalities]
    oracle = set(brute_force_vertices(rows, 3))
    assert oracle == {tuple(map(Fraction, c)) for c in corners}
    for tight, point in extras.items():
        values = [fdot(c, point) - b for c, b in rows]
        assert min(values) >= 0 and values.count(0) == tight
    chosen = data.draw(st.lists(st.sampled_from(sorted(extras)), min_size=1, unique=True))
    points = [(1,) + tuple(p) for p in corners + [extras[tight] for tight in chosen]]
    listed = [tuple(r(x) for x in p) for p in data.draw(st.permutations(points))]
    first = next(p for p in listed if p[1:] not in oracle)
    with pytest.raises(ValueError) as excinfo:
        StateSpace("pyramid-or-cube-plus", 4, listed)
    assert str(excinfo.value) == f"vertex {first} is a convex combination of the others"


def test_geometry_never_enumerates_the_effect_polytope(monkeypatch):
    import gptsteer.composites
    import gptsteer.kernel
    from gptsteer.composites import BipartiteState, in_max_tensor, max_tensor_violation

    def forbidden(space):
        raise AssertionError(f"effect polytope enumerated for {space.label}")

    for module in (gptsteer.kernel, gptsteer.composites):
        monkeypatch.setattr(module, "extremal_effects", forbidden, raising=False)
    polygon = StateSpace("cold-polygon-7", 3, zoo_polygon(7).vertices)
    classical = StateSpace("cold-classical-5", 5, zoo_classical(5).vertices)
    for space in (polygon, classical):
        center = barycenter(space).coords
        assert is_valid_state(center, space)
        assert in_state_cone(center, space)
        outside = (r(1),) + tuple(2 * c for c in space.vertices[1][1:])
        assert not is_valid_state(outside, space)
        assert not in_state_cone(outside, space)
    # a product of two vertices with its non-normalization entries doubled
    stretched = BipartiteState(polygon, classical, tuple(
        tuple(a * b * (1 if i == j == 0 else 2) for j, b in enumerate(classical.vertices[1]))
        for i, a in enumerate(polygon.vertices[1])))
    assert not in_max_tensor(stretched)
    ea, eb = max_tensor_violation(stretched)
    assert dot(combine(ea.coeffs, stretched.matrix), eb.coeffs) < 0


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 8), st.integers(-8, 8), st.integers(-8, 8)))
def test_effect_validity_equals_hull_membership(raw):
    # the effect polytope is the convex hull of its extreme points, so the
    # vertex-wise bound test and LP hull membership must agree everywhere
    space = zoo_gbit()
    coeffs = tuple(r(x, 8) for x in raw)
    hull = convex_member(coeffs, [e.coeffs for e in extremal_effects(space)])
    assert is_valid_effect(coeffs, space) == hull.feasible


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(-4, 8), st.integers(-8, 8), st.integers(-8, 8)))
def test_cone_facets_agree_with_cone_lp(raw):
    from gptsteer.exactlp import cone_member
    space = zoo_gbit()
    vec = tuple(r(x, 4) for x in raw)
    assert in_state_cone(vec, space) == cone_member(vec, space.vertices).feasible


# --- observables ---------------------------------------------------------------

def test_observable_validation(gbit):
    e = Effect((r(1, 2), r(1, 2), 0))
    with pytest.raises(ValueError):
        Observable("o", gbit, ("+",), (e, gbit.unit - e))
    with pytest.raises(ValueError):
        Observable("o", gbit, ("+", "+"), (e, gbit.unit - e))
    with pytest.raises(ValueError):
        Observable("o", gbit, (), ())
    obs = Observable("o", gbit, ("+", "-"), (e, gbit.unit - e))
    assert obs.effect("+") == e
    assert list(obs.items())[1][0] == "-"


def test_is_valid_observable(gbit):
    X, Y = square_fiducials(gbit)
    assert is_valid_observable(X) and is_valid_observable(Y)
    broken = Observable("b", gbit, ("+", "-"),
                        (X.effect("+"), X.effect("+")))  # sums to 2 X+
    assert not is_valid_observable(broken)
    oversized = Observable("b", gbit, ("+", "-"),
                           (Effect((2, 0, 0)), Effect((-1, 0, 0))))
    assert not is_valid_observable(oversized)


def test_dichotomic_and_trivial(gbit):
    obs = dichotomic_observable("D", gbit, Effect((r(1, 4), 0, 0)))
    assert obs.effects[0] + obs.effects[1] == gbit.unit
    assert obs.outcomes == ("+", "-")
    with pytest.raises(ValueError):
        dichotomic_observable("D", gbit, Effect((2, 0, 0)))
    assert is_valid_observable(trivial_observable(gbit))


def test_square_fiducials_frozen(gbit):
    X, Y = square_fiducials(gbit)
    assert X.effect("+").coeffs == (r(1, 2), r(1, 2), r(0))
    assert X.effect("-").coeffs == (r(1, 2), r(-1, 2), r(0))
    assert Y.effect("+").coeffs == (r(1, 2), r(0), r(1, 2))
    assert (X.label, Y.label) == ("X", "Y")
    with pytest.raises(ValueError):
        square_fiducials(zoo_classical(2))


def test_mixing(gbit, fiducials):
    X, Y = fiducials
    mixed = mix_effects([X.effect("+"), Y.effect("+")], (r(1, 2), r(1, 2)))
    assert mixed.coeffs == (r(1, 2), r(1, 4), r(1, 4))
    center = mix_states([State(v) for v in gbit.vertices], [r(1, 4)] * 4)
    assert center.coords == (r(1), r(0), r(0))
    with pytest.raises(ValueError):
        mix_states([State((1, 0, 0))], (r(1, 2),))
    with pytest.raises(ValueError):
        mix_effects([X.effect("+")], (r(-1),))


MIXTURES = {
    "mix_states": lambda gbit, phi: (mix_states, State((1, 0, 0))),
    "mix_effects": lambda gbit, phi: (mix_effects, gbit.unit),
    "mix_bipartite_states": lambda gbit, phi: (mix_bipartite_states, phi),
}


@pytest.mark.parametrize("kind", sorted(MIXTURES))
@pytest.mark.parametrize("parts, weights, message", [
    (2, (r(1),), "weights and vectors differ in length"),
    (0, (), "weights and vectors differ in length"),
    (2, (r(-1, 2), r(3, 2)), "weights must be nonnegative and sum to one"),
    (2, (r(1, 2), r(1, 4)), "weights must be nonnegative and sum to one"),
], ids=["length", "empty", "negative", "sum"])
def test_mixtures_share_the_weight_check(gbit, phi, kind, parts, weights, message):
    mix, part = MIXTURES[kind](gbit, phi)
    with pytest.raises(ValueError, match=message):
        mix([part] * parts, weights)


def test_depolarize(gbit, fiducials):
    X, _ = fiducials
    same = depolarize_observable(X, 1)
    assert tuple(e.coeffs for e in same.effects) == tuple(e.coeffs for e in X.effects)
    noise = depolarize_observable(X, 0)
    assert noise.effects[0].coeffs == (r(1, 2), r(0), r(0))
    half = depolarize_observable(X, r(1, 2))
    assert half.effects[0].coeffs == (r(1, 2), r(1, 4), r(0))
    assert half.label == "depol(X,1/2)"
    assert is_valid_observable(half)
    with pytest.raises(ValueError):
        depolarize_observable(X, r(3, 2))
    with pytest.raises(ValueError):
        depolarize_observable(X, r(-1, 2))


def test_mother_outcome_tuples(fiducials):
    X, Y = fiducials
    assert mother_outcome_tuples((X, Y)) == (
        ("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
    assert mother_outcome_tuples((X,)) == (("+",), ("-",))
