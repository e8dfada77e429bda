"""Single-system objects: polytopic state spaces, states, effects,
observables, the model zoo and depolarizing noise.

Coordinate convention. A system whose state polytope has dimension d
lives in ambient dimension d+1; coordinate 0 carries normalization.
Every vertex has first coordinate exactly 1, the unit effect is
(1, 0, ..., 0), and an outcome probability is the plain dot product of
an effect coefficient vector with a state coordinate vector. Effects
are valid when they evaluate inside [0, 1] on every vertex, which by
convexity covers every state.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

from .errors import UnboundedRegionError
from .exactlp import LinearSystem, vertex_enumerate
from .ratio import ONE, ZERO, Rational, as_ratio, format_ratio
from .vecs import _primitive_ray, combine, dot, primitive_row, qvec, sparse_row, vzero


@dataclass(frozen=True)
class State:
    """State coordinates; sub-normalized states have coords[0] in [0, 1]."""

    coords: tuple[Rational, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", qvec(self.coords))

    @property
    def weight(self) -> Rational:
        return self.coords[0]


@dataclass(frozen=True)
class Effect:
    """Affine functional given by its coefficient vector."""

    coeffs: tuple[Rational, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", qvec(self.coeffs))

    def __add__(self, other: "Effect") -> "Effect":
        return Effect(combine((ONE, ONE), (self.coeffs, other.coeffs)))

    def __sub__(self, other: "Effect") -> "Effect":
        return Effect(combine((ONE, -ONE), (self.coeffs, other.coeffs)))

    def __rmul__(self, factor) -> "Effect":
        return Effect(combine((as_ratio(factor),), (self.coeffs,)))


def unit_effect(ambient_dim: int) -> Effect:
    return Effect((ONE,) + vzero(ambient_dim - 1))


def zero_effect(ambient_dim: int) -> Effect:
    return Effect(vzero(ambient_dim))


@dataclass(frozen=True)
class StateSpace:
    """Polytopic state space given by its extreme points.

    Construction validates the coordinate convention (first coordinate 1
    everywhere), that the vertices affinely span the normalization slice
    (so effects are fixed by their values on states; the enumeration of
    the facets, kept as ``facets``, decides it), and that no listed
    vertex is a convex combination of the others.

    The build keeps the integer forms it computes, for the membership
    tests, beside the rational ``facets``: ``facet_normals[i]`` is the
    primitive integer normal of ``facets[i]`` (its positive multiple with
    coprime int entries), and ``vertex_rows[k]`` is ``vertices[k]`` as
    (ints, den), ``vecs.primitive_row``'s form. Like ``facets`` they stay
    out of ``repr``, ``==`` and ``hash``.

    ``lp_shapes`` memoizes, in the same way, the shapes of the JM and LHS
    LPs: each is the ``LinearSystem`` at target 0, equalities with
    right-hand side 0, since the rows depend only on the space and the
    outcome counts. Each (family, outcome-count tuple) key, ("jm",
    counts) or ("lhs", counts), is built once, and every later LP of that
    shape is its ``with_rhs`` of the target (``_lp_shape``).
    """

    label: str
    ambient_dim: int
    vertices: tuple[tuple[Rational, ...], ...]
    facets: tuple[tuple[Rational, ...], ...] = field(init=False, repr=False, compare=False)
    facet_normals: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    vertex_rows: tuple[tuple[tuple[int, ...], int], ...] = field(init=False, repr=False,
                                                                 compare=False)
    lp_shapes: dict[tuple[str, tuple[int, ...]], LinearSystem] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(qvec(v) for v in self.vertices))
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        if not self.vertices:
            raise ValueError("a state space needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise ValueError(f"vertex {v} does not have length {self.ambient_dim}")
            if v[0] != 1:
                raise ValueError(f"vertex {v} must have first coordinate 1")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        # Facets: the vertices of the polar slice {f : f.v >= 0, f.(sum_k V_k) = 1}, V_k the
        # ints of vertex k: a positive combination of every vertex, so the slice cuts each
        # polar ray once and is bounded iff the vertices span. As primitive integer directions
        # dotted with each vertex's ints, the N^2 pass below is all in short ints.
        # A point is a convex combination of the others iff another lies on all its facets.
        points = [primitive_row(v) for v in self.vertices]
        total = sparse_row(map(sum, zip(*[ints for ints, _ in points])))
        polar = LinearSystem.from_integer_rows(
            self.ambient_dim, 1, ((total, 1, 1), *[(sparse_row(v), 0, d) for v, d in points]))
        try:
            normals = [_primitive_ray(f) for f in vertex_enumerate(polar)]
        except UnboundedRegionError as err:
            raise ValueError("vertices do not affinely span the normalization slice") from err
        values = [[sum(map(operator.mul, f, ints)) for ints, _ in points] for f in normals]
        masks = [sum(1 << k for k, row in enumerate(values) if row[i] == 0)
                 for i in range(len(self.vertices))]
        for v, mask in zip(self.vertices, masks):
            if sum(other & mask == mask for other in masks) > 1:
                raise ValueError(f"vertex {v} is a convex combination of the others")
        facets = []
        for f, row in zip(normals, values):
            # the facet's peak f . v = top / den over the vertices, compared
            # by cross-multiplication; one rational per facet rescales it
            top, den = row[0], points[0][1]
            for value, (_, d) in zip(row, points):
                if value * den > top * d:
                    top, den = value, d
            facets.append(combine((as_ratio(den, top),), (f,)))
        pairs = sorted(zip(facets, map(tuple, normals)))  # facets are distinct
        object.__setattr__(self, "facets", tuple([f for f, _ in pairs]))
        object.__setattr__(self, "facet_normals", tuple([n for _, n in pairs]))
        object.__setattr__(self, "vertex_rows",
                           tuple([(tuple(ints), den) for ints, den in points]))
        object.__setattr__(self, "lp_shapes", {})

    @property
    def unit(self) -> Effect:
        return unit_effect(self.ambient_dim)


def barycenter(space: StateSpace) -> State:
    """The maximally mixed state: uniform mixture of the vertices."""
    share = as_ratio(1, len(space.vertices))
    return State(combine([share] * len(space.vertices), space.vertices))


def probability(effect: Effect, state: State) -> Rational:
    """Exact outcome probability; effect and state must share a space."""
    coeffs, coords = _coeffs(effect), _coords(state)
    if len(coeffs) != len(coords):
        raise ValueError("effect and state dimensions differ")
    return dot(coeffs, coords)


def _coeffs(effect) -> tuple[Rational, ...]:
    return effect.coeffs if isinstance(effect, Effect) else qvec(effect)


def _coords(state) -> tuple[Rational, ...]:
    return state.coords if isinstance(state, State) else qvec(state)


def is_valid_effect(effect, space: StateSpace) -> bool:
    """True iff the functional lies in [0, 1] on every vertex.

    Decided in ints: with the effect as E/D and vertex k as V/d
    (``space.vertex_rows``), e.v = E.V / (D d) and D d > 0, so the test
    is 0 <= E.V <= D d on every vertex; no rational is built.
    """
    coeffs = _coeffs(effect)
    if len(coeffs) != space.ambient_dim:
        raise ValueError("effect dimension does not match space")
    ints, den = primitive_row(coeffs)
    return all(0 <= sum(map(operator.mul, ints, row)) <= den * d
               for row, d in space.vertex_rows)


def is_valid_state(state, space: StateSpace) -> bool:
    """True iff the coordinates are a convex combination of the vertices.

    That is first coordinate 1 and membership in the state cone, which
    ``in_state_cone`` decides by an integer sign test per facet.
    """
    coords = _coords(state)
    if len(coords) != space.ambient_dim:
        raise ValueError("state dimension does not match space")
    return coords[0] == 1 and in_state_cone(coords, space)


def extremal_effects(space: StateSpace) -> tuple[Effect, ...]:
    """Extreme points of the effect polytope, in sorted coefficient order.

    The effect polytope is cut out by 0 <= e(v) <= 1 over the vertices;
    its extreme points are enumerated exactly by double description over
    those 2V rows (``vertex_enumerate``, which refuses a space whose
    bound on the rays passes its cap), anew on each call. Only
    ``gptsteer zoo show`` needs them.
    """
    system = LinearSystem.from_integer_rows(space.ambient_dim, 0, _effect_rows(space))
    return tuple(Effect(point) for point in vertex_enumerate(system))


def _effect_rows(space: StateSpace) -> tuple:
    """Effect validity as integer inequality rows over the coefficients,
    written from ``space.vertex_rows``: with vertex v as V / d, every
    0 <= e.v row (V, 0, d) in vertex order, then every e.v <= 1 row, as
    -e.v >= -1, (-V, -d, d)."""
    return (tuple([(sparse_row(ints), 0, d) for ints, d in space.vertex_rows])
            + tuple([(sparse_row([-x for x in ints]), -d, d) for ints, d in space.vertex_rows]))


def state_cone_facets(space: StateSpace) -> tuple[tuple[Rational, ...], ...]:
    """Facet normals of the state cone, which generate the effect cone.

    Each is an extremal effect (largest value 1 on a vertex), sorted.
    The space computes them once, when built, as ``space.facets``, with
    their primitive integer normals as ``space.facet_normals``; the signs
    of those normals' dots decide state validity and max-tensor membership.
    """
    return space.facets


def in_state_cone(coords, space: StateSpace) -> bool:
    """True iff every facet is nonnegative on the vector, decided on its
    ints (``vecs.primitive_row``) by ``_in_cone``; no rational is built."""
    vec = _coords(coords)
    if len(vec) != space.ambient_dim:
        raise ValueError("vector dimension does not match space")
    return _in_cone(primitive_row(vec)[0], space)


def _in_cone(ints, space: StateSpace) -> bool:
    """The state-cone test of a vector read as ints over a positive den,
    an integer sign test per facet: each facet is a positive multiple of
    its ``space.facet_normals`` row, so f.vec >= 0 iff normal.ints >= 0."""
    return all(sum(map(operator.mul, n, ints)) >= 0 for n in space.facet_normals)


@dataclass(frozen=True)
class Observable:
    """Finite-outcome measurement: labeled effects that sum to the unit."""

    label: str
    space: StateSpace
    outcomes: tuple[str, ...]
    effects: tuple[Effect, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(str(o) for o in self.outcomes))
        object.__setattr__(self, "effects",
                           tuple(e if isinstance(e, Effect) else Effect(e) for e in self.effects))
        if not self.outcomes:
            raise ValueError("observable needs at least one outcome")
        if len(self.outcomes) != len(self.effects):
            raise ValueError("outcomes and effects differ in length")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("duplicate outcome labels")
        for e in self.effects:
            if len(e.coeffs) != self.space.ambient_dim:
                raise ValueError("effect dimension does not match space")

    def effect(self, outcome: str) -> Effect:
        return self.effects[self.outcomes.index(outcome)]

    def items(self):
        return zip(self.outcomes, self.effects)


def is_valid_observable(obs: Observable) -> bool:
    """Every effect valid and the exact sum equal to the unit effect."""
    effects = obs.effects
    return all(is_valid_effect(e, obs.space) for e in effects) and \
        combine([ONE] * len(effects), [e.coeffs for e in effects]) == obs.space.unit.coeffs


def mix_states(states: Sequence[State], weights) -> State:
    return State(_mix([_coords(s) for s in states], weights))


def mix_effects(effects: Sequence[Effect], weights) -> Effect:
    return Effect(_mix([_coeffs(e) for e in effects], weights))


def _mix(vectors, weights) -> tuple[Rational, ...]:
    return combine(_mixture_weights(weights, len(vectors)), vectors)


def _mixture_weights(weights, count: int) -> tuple[Rational, ...]:
    """The weights of a mixture of count > 0 parts, checked to be a
    probability vector of that length."""
    w = qvec(weights)
    if len(w) != count or not count:
        raise ValueError("weights and vectors differ in length")
    if any(x < 0 for x in w) or sum(w) != 1:
        raise ValueError("weights must be nonnegative and sum to one")
    return w


def depolarize_observable(obs: Observable, visibility) -> Observable:
    """Shrink each effect toward its barycenter value times the unit.

    At visibility 1 the observable is unchanged; at 0 every effect is
    replaced by its mean value on the maximally mixed state times the
    unit, i.e. pure noise.
    """
    level = as_ratio(visibility)
    if not 0 <= level <= 1:
        raise ValueError(f"visibility must lie in [0, 1], got {level}")
    center = barycenter(obs.space)
    unit = obs.space.unit
    noisy = tuple(level * e + ((1 - level) * probability(e, center)) * unit
                  for e in obs.effects)
    label = f"depol({obs.label},{format_ratio(level)})"
    return Observable(label, obs.space, obs.outcomes, noisy)


def dichotomic_observable(label: str, space: StateSpace, effect: Effect) -> Observable:
    """Two-outcome observable, outcomes "+" and "-", from one effect and
    its complement."""
    e = effect if isinstance(effect, Effect) else Effect(effect)
    if not is_valid_effect(e, space):
        raise ValueError("effect is not valid on this space")
    return Observable(label, space, ("+", "-"), (e, space.unit - e))


def trivial_observable(space: StateSpace) -> Observable:
    return Observable("trivial", space, ("*",), (space.unit,))


# ---------------------------------------------------------------------------
# Model zoo.


def zoo_classical(n: int) -> StateSpace:
    """Classical n-outcome system: an (n-1)-simplex in ambient dimension n.

    Vertex i is the point distribution on outcome i; the last outcome's
    probability is implicit (one minus the rest), which keeps the
    polytope full-dimensional in its slice.
    """
    if n < 2:
        raise ValueError("classical systems need at least 2 outcomes")
    vertices = []
    for i in range(n):
        coords = [ONE] + [ZERO] * (n - 1)
        if i > 0:
            coords[i] = ONE
        vertices.append(tuple(coords))
    return StateSpace(f"classical-{n}", n, tuple(vertices))


_SQUARE_VERTICES = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))


def zoo_gbit() -> StateSpace:
    """The square model: four vertices (1, ±1, ±1) in ambient dimension 3."""
    return StateSpace("gbit", 3, _SQUARE_VERTICES)


def is_square_model(space: StateSpace) -> bool:
    return space.ambient_dim == 3 and set(space.vertices) == {qvec(v) for v in _SQUARE_VERTICES}


def zoo_polygon(n: int) -> StateSpace:
    """Regular-polygon-like model with n rational vertices on the unit circle.

    n = 4 is exactly the square; n = 3 a fixed rational triangle (an
    equilateral one has no rational embedding, and every triangle is
    equivalent to the classical trit). Other n use the tangent
    half-angle parameterization to round each textbook angle to a
    nearby rational circle point; floats only pick the vertex here,
    everything downstream is exact. The result is a valid polytopic
    model even though it is not the perfectly regular polygon.
    """
    if n < 3:
        raise ValueError("polygons need at least 3 vertices")
    if n == 3:
        vertices = ((ONE, ONE, ZERO), (ONE, -ONE, ONE), (ONE, -ONE, -ONE))
    elif n == 4:
        vertices = tuple(qvec(v) for v in _SQUARE_VERTICES)
    else:
        vertices = _rational_circle_points(n)
    return StateSpace(f"polygon-{n}", 3, vertices)


def _rational_circle_points(n: int) -> tuple[tuple[Rational, ...], ...]:
    denominator = 64
    while True:
        points = []
        for k in range(n):
            if 2 * k == n:
                points.append((ONE, -ONE, ZERO))
                continue
            angle = 2 * math.pi * k / n
            if angle > math.pi:
                angle -= 2 * math.pi
            t = as_ratio(round(math.tan(angle / 2) * denominator), denominator)
            d = 1 + t * t
            points.append((ONE, (1 - t * t) / d, 2 * t / d))
        if len(set(points)) == n:
            return tuple(points)
        denominator *= 2  # collision at small n never happens in practice


def square_fiducials(space: StateSpace) -> tuple[Observable, Observable]:
    """The two sharp dichotomic observables reading off the square's axes.

    X distinguishes the vertices by their second coordinate, Y by their
    third; each is sharp (extremal effects) and together they are the
    canonical incompatible pair of this model.
    """
    if not is_square_model(space):
        raise ValueError("sharp fiducials are defined for the square model")
    half = as_ratio(1, 2)
    x_plus = Effect((half, half, ZERO))
    y_plus = Effect((half, ZERO, half))
    return (dichotomic_observable("X", space, x_plus),
            dichotomic_observable("Y", space, y_plus))


def zoo_by_name(name: str) -> StateSpace:
    """Resolve a zoo model name: gbit, classical-N (N>=2), polygon-N (N>=3)."""
    if name == "gbit":
        return zoo_gbit()
    for prefix, builder, minimum in (("classical-", zoo_classical, 2),
                                     ("polygon-", zoo_polygon, 3)):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix.isascii() and suffix.isdigit() and int(suffix) >= minimum:
                return builder(int(suffix))
    raise ValueError(f"unknown model {name!r} "
                     "(expected gbit, classical-N with N>=2, or polygon-N with N>=3)")


def zoo_names() -> tuple[str, ...]:
    """Representative concrete names; classical-N and polygon-N scale with N."""
    return ("gbit", "classical-2", "classical-3", "polygon-3", "polygon-5")


def mother_outcome_tuples(observables: Sequence[Observable]) -> tuple[tuple[str, ...], ...]:
    """Cartesian product of outcome labels, in axis-major order.

    Tuple t is also the deterministic strategy answering t[x] to setting
    x; ``_index_tuples`` lists the same strategies as outcome indices, in
    this order, and ``_slot_stack`` places a vector in the slots they pick.
    """
    return tuple(itertools.product(*(obs.outcomes for obs in observables)))


# _lp_shape refuses a JM or LHS family whose outcome tuples times the space's
# vertices pass this, rather than solve for minutes.
LP_SIZE_CAP = 256


def _check_lp_size(outcomes, space: StateSpace) -> None:
    """Refuse, before any row is built, a JM or LHS LP with more than
    LP_SIZE_CAP (outcome tuple, vertex) pairs: one nonnegativity row each
    in the JM LP, one generator column each in the LHS LP."""
    size = math.prod([len(row) for row in outcomes]) * len(space.vertices)
    if size > LP_SIZE_CAP:
        raise ValueError(f"the LP has {size} (outcome tuple, vertex) pairs, "
                         f"more than the cap of {LP_SIZE_CAP}")


def _lp_shape(space: StateSpace, family: str, outcomes, build) -> LinearSystem:
    """space.lp_shapes[(family, outcome counts)], made by build(space,
    outcomes) the first time, after _check_lp_size, which reads only the
    key; build may read only the counts."""
    key = (family, tuple([len(row) for row in outcomes]))
    shape = space.lp_shapes.get(key)
    if shape is None:
        _check_lp_size(outcomes, space)
        shape = space.lp_shapes[key] = build(space, outcomes)
    return shape


def _index_tuples(outcomes) -> tuple[tuple[int, ...], ...]:
    """Outcome-index tuples in ``mother_outcome_tuples`` order; outcomes[x]
    lists the outcomes of setting x."""
    return tuple([*itertools.product(*[range(len(row)) for row in outcomes])])


def _slot_stack(strategy, vector, outcomes) -> tuple:
    """vector in slot (x, strategy[x]) for every setting x, zeros elsewhere.

    Slots run setting-major, then outcome, len(vector) entries each: the
    (setting, outcome, coordinate) order of JM marginal rows and LHS elements.
    """
    blank = (0,) * len(vector)
    stack = []
    for k, row in zip(strategy, outcomes, strict=True):
        stack += blank * k
        stack += vector
        stack += blank * (len(row) - 1 - k)
    return tuple(stack)
