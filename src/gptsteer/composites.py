"""Bipartite states under local tomography.

A bipartite state is the rational matrix of a bilinear form on effect
pairs: value(e_A, e_B) = e_A^T M e_B, with M[0][0] = 1 when normalized.
Membership in the maximal tensor product is nonnegativity on all pairs
of state-cone facets, which generate the effect cones; separability
(the minimal tensor product) asks for a convex combination of vertex
pairs and is a rational LP whose infeasibility certificate doubles as
an entanglement witness. Marginals contract with the partner's unit
effect and conditionals with an arbitrary effect, exactly; either side's
is one integer sum over the matrix's integer rows (``_conditional_ints``).
"""

from __future__ import annotations

import itertools
import logging
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import NullConditioningError, UnsupportedModelError, VerificationError
from .exactlp import INFEASIBLE, LinearSystem, lp_feasible, membership_shape, refutes
from .kernel import (Effect, State, StateSpace, _coeffs, _mixture_weights, barycenter,
                     is_square_model, is_valid_state)
from .ratio import ONE, ZERO, Rational, as_ratio
from .vecs import combine, dot, int_combine, outer, primitive_row, qmat, ratio_row, transpose

log = logging.getLogger(__name__)

SEPARABLE = "separable"
ENTANGLED = "entangled"


@dataclass(frozen=True)
class BipartiteState:
    """Bilinear form matrix over effect coefficient pairs of two spaces.

    Normalization (matrix[0][0] == 1) and maximal-tensor membership are
    checked properties, not construction invariants, so that the
    checking functions have something to reject. ``matrix_rows`` is the
    matrix read as integer rows, once, when first asked for.
    """

    space_a: StateSpace
    space_b: StateSpace
    matrix: tuple[tuple[Rational, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", qmat(self.matrix))
        if len(self.matrix) != self.space_a.ambient_dim:
            raise ValueError("matrix row count does not match first space")
        for row in self.matrix:
            if len(row) != self.space_b.ambient_dim:
                raise ValueError("matrix column count does not match second space")

    @property
    def is_normalized(self) -> bool:
        return self.matrix[0][0] == 1

    @cached_property
    def matrix_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, den): the entries row-major as ints over one positive
        denominator (``vecs.primitive_row``), cut into the matrix's rows."""
        flat, den = primitive_row([x for row in self.matrix for x in row])
        width = self.space_b.ambient_dim
        return tuple([tuple(flat[i:i + width]) for i in range(0, len(flat), width)]), den


def joint_probability(state: BipartiteState, effect_a: Effect, effect_b: Effect) -> Rational:
    """value(e_A, e_B) = e_A^T M e_B, exactly: e_A's conditional on side A
    (``subnormalized_conditional``) dotted with e_B."""
    return dot(subnormalized_conditional(state, effect_a, "A"), _coeffs(effect_b))


def product_state(space_a: StateSpace, state_a: State,
                  space_b: StateSpace, state_b: State) -> BipartiteState:
    """Outer product of two valid normalized states."""
    for state, space, side in ((state_a, space_a, "A"), (state_b, space_b, "B")):
        if not is_valid_state(state, space):
            raise ValueError(f"side {side} factor is not a valid normalized state")
    return BipartiteState(space_a, space_b, outer(state_a.coords, state_b.coords))


def mix_bipartite_states(states: Sequence[BipartiteState], weights) -> BipartiteState:
    w = _mixture_weights(weights, len(states))
    first = states[0]
    for s in states[1:]:
        if s.space_a != first.space_a or s.space_b != first.space_b:
            raise ValueError("mixing requires a common pair of spaces")
    rows = tuple(combine(w, [s.matrix[i] for s in states])
                 for i in range(first.space_a.ambient_dim))
    return BipartiteState(first.space_a, first.space_b, rows)


def in_max_tensor(state: BipartiteState) -> bool:
    """Normalized and nonnegative on every pair of state-cone facets.

    The facets generate the effect cone of each side, so nonnegativity
    on facet pairs extends to all valid effect pairs by bilinearity.
    """
    return state.is_normalized and max_tensor_violation(state) is None


def max_tensor_violation(state: BipartiteState) -> tuple[Effect, Effect] | None:
    """The first facet pair (each an extremal effect) with negative value, if any.

    Pairs are scanned A-major in sorted facet order. The sign of
    fa^T M fb is read in ints, from the primitive normals of the two
    facets (``StateSpace.facet_normals``, positive multiples of them)
    and the matrix's integer rows (``BipartiteState.matrix_rows``), so
    no rational is built unless a pair is returned.
    """
    if not state.is_normalized:
        return None
    space_a, space_b = state.space_a, state.space_b
    columns = list(zip(*state.matrix_rows[0]))
    for i, na in enumerate(space_a.facet_normals):
        partial = [sum(map(operator.mul, na, col)) for col in columns]
        for k, nb in enumerate(space_b.facet_normals):
            if sum(map(operator.mul, partial, nb)) < 0:
                return (Effect(space_a.facets[i]), Effect(space_b.facets[k]))
    return None


@dataclass(frozen=True)
class SeparableDecomposition:
    """Convex combination of vertex product states reproducing a matrix."""

    weights: tuple[Rational, ...]
    pairs: tuple[tuple[State, State], ...]


@dataclass(frozen=True)
class SeparabilityResult:
    status: str  # SEPARABLE | ENTANGLED
    decomposition: SeparableDecomposition | None = None
    certificate: tuple[Rational, ...] | None = None

    @property
    def separable(self) -> bool:
        return self.status == SEPARABLE


# separability_system refuses, before building any row, a state with more
# (vertex_A, vertex_B) pairs than this. The LP has a weight and an integer
# row w >= 0 of one entry per pair, so memory does not set the cap: on the
# barycenter product of polygon-64 with itself (4096 pairs) the build
# peaked at 9.5 MiB (tracemalloc) and is_separable took 0.9 to 1.2 s and
# 29 MB of max RSS, the spaces built beforehand (Python 3.11.7, 2 cores).
VERTEX_PAIR_CAP = 4096


def separability_system(state: BipartiteState) -> LinearSystem:
    """LP over vertex-pair weights, row order documented for certificates.

    The convex-membership system (``exactlp.membership_system``) of the
    matrix read row-major, with one generator per (vertex_A, vertex_B)
    pair, A-major: the product va (x) vb, flattened row-major. Its
    weights are the variables. Equalities: matrix entries row-major,
    then the weight sum. All weight nonnegativity rows follow as
    inequalities. More than VERTEX_PAIR_CAP pairs raise ValueError.

    The system is ``exactlp.membership_shape`` of the products as
    integer rows, written from the spaces' integer vertices
    (``StateSpace.vertex_rows``): vertex a as Ia / da and b as Ib / db
    give the product (Ia (x) Ib, da db). No rational row is built. The
    shape's ``with_rhs`` of the matrix entries and 1 is the system. The
    row of entry (0, 0) has every coefficient 1, since every vertex has
    first coordinate 1, so the weight-sum row is that row again.
    """
    count = len(state.space_a.vertices) * len(state.space_b.vertices)
    if count > VERTEX_PAIR_CAP:
        raise ValueError(f"the separability LP has {count} vertex pairs, "
                         f"more than the cap of {VERTEX_PAIR_CAP}")
    gens = [([x * y for x in ia for y in ib], da * db)
            for ia, da in state.space_a.vertex_rows for ib, db in state.space_b.vertex_rows]
    target = tuple(c for row in state.matrix for c in row)
    return membership_shape(gens, convex=True).with_rhs(target + (ONE,))


def is_separable(state: BipartiteState) -> SeparabilityResult:
    """Decide membership in the minimal tensor product.

    Requires the state to be normalized and to sit in the maximal tensor
    product first (``_require_max_tensor``). Separable verdicts carry an
    exact decomposition into vertex pairs; entangled verdicts a Farkas
    certificate that acts as an entanglement witness.
    """
    _require_max_tensor(state)
    system = separability_system(state)
    outcome = lp_feasible(system)
    if outcome.status == INFEASIBLE:
        return SeparabilityResult(ENTANGLED, certificate=outcome.certificate)
    weights = []
    pairs = []
    for (a, b), w in zip(_vertex_pairs(state), outcome.witness, strict=True):
        if w != 0:
            weights.append(w)
            pairs.append((State(a), State(b)))
    decomposition = SeparableDecomposition(tuple(weights), tuple(pairs))
    _check_decomposition(state, decomposition)
    return SeparabilityResult(SEPARABLE, decomposition=decomposition)


def _require_max_tensor(state: BipartiteState) -> None:
    """Raise a ValueError naming the first that fails: the state is
    normalized, then it lies in the maximal tensor product."""
    if not state.is_normalized:
        raise ValueError("state is not normalized")
    if not in_max_tensor(state):
        raise ValueError("state is not in the maximal tensor product")


def _vertex_pairs(state: BipartiteState) -> list:
    """(vertex_A, vertex_B) pairs, A-major: the separability LP's variable order."""
    return list(itertools.product(state.space_a.vertices, state.space_b.vertices))


def _check_decomposition(state: BipartiteState, decomposition: SeparableDecomposition):
    """Raise VerificationError unless the weights are positive and the
    weighted products of the pairs sum to the matrix, checked in ints.

    With weight n / d and the pair's states as ints Ia / da and Ib / db
    (``vecs.primitive_row``), the pair is the term (n, Ia (x) Ib, d da db),
    its product row-major as the separability generators write it; their
    sum (``vecs.int_combine``), T over L, equals the matrix, ints M over
    den, iff T den == M L entry by entry.
    """
    if any(w <= 0 for w in decomposition.weights):
        raise VerificationError("decomposition has a weight that is not positive")
    terms = []
    for w, (sa, sb) in zip(decomposition.weights, decomposition.pairs, strict=True):
        (ints_a, da), (ints_b, db) = primitive_row(sa.coords), primitive_row(sb.coords)
        terms.append((w.numerator, [x * y for x in ints_a for y in ints_b],
                      w.denominator * da * db))
    total, top = int_combine(terms, state.space_a.ambient_dim * state.space_b.ambient_dim)
    rows, den = state.matrix_rows
    if [x * den for x in total] != [x * top for row in rows for x in row]:
        raise VerificationError("decomposition does not reproduce the state")


def verify_entanglement_certificate(state: BipartiteState, certificate) -> bool:
    return refutes(separability_system(state), certificate)


def marginal(state: BipartiteState, side: str) -> State:
    """Contract the partner side with its unit effect."""
    if not state.is_normalized:
        raise ValueError("marginals are defined for normalized states")
    if side == "A":
        return State(subnormalized_conditional(state, state.space_b.unit, "B"))
    if side == "B":
        return State(subnormalized_conditional(state, state.space_a.unit, "A"))
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def subnormalized_conditional(state: BipartiteState, effect: Effect,
                              side: str) -> tuple[Rational, ...]:
    """Apply an effect on one side; the unnormalized update of the other.

    The first coordinate of the result is the outcome probability, so no
    division happens here and zero-probability effects are fine. Either
    side is computed in ints (``_conditional_ints``), one rational built
    per value.
    """
    coeffs = _coeffs(effect)
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    space = state.space_a if side == "A" else state.space_b
    if len(coeffs) != space.ambient_dim:
        raise ValueError(f"effect dimension does not match side {side}")
    return ratio_row(*_conditional_ints(state, coeffs, side))


def _conditional_ints(state: BipartiteState, coeffs, side: str) -> tuple[list[int], int]:
    """The conditional of effect coefficients e applied on the given side,
    as (ints, den): e^T M on side A, M e = e^T M^T on side B. With the
    matrix as integer rows over m (``matrix_rows``), their columns for
    side B, and e as E / D (``vecs.primitive_row``), it is sum_i E_i R_i
    over D m (``vecs.int_combine``), R_i the i-th row or column. Its
    first entry over den is the probability."""
    rows, m = state.matrix_rows
    if side == "B":
        rows = list(zip(*rows))
    ints, d = primitive_row(coeffs)
    return int_combine([(e, row, d * m) for e, row in zip(ints, rows, strict=True)], len(rows[0]))


def conditional_state(state: BipartiteState, effect: Effect,
                      side: str) -> tuple[Rational, State]:
    """Outcome probability and the normalized conditional on the other side.

    Requires a normalized maximal-tensor-product state so the
    conditional is again a state (``_require_max_tensor``); conditioning
    on a zero-probability effect raises NullConditioningError (use
    subnormalized_conditional to avoid the division).
    """
    _require_max_tensor(state)
    vec = subnormalized_conditional(state, effect, side)
    p = vec[0]
    if p == 0:
        raise NullConditioningError("conditioning effect has probability zero")
    return p, State(combine((ONE / p,), (vec,)))


def effect_to_state_isomorphism(space: StateSpace) -> tuple[tuple[Rational, ...], ...]:
    """Linear map J sending the effect cone onto the state cone, unit to
    the barycenter.

    Supported spaces: simplices (vertex count equals ambient dimension),
    where the indicator effect of each vertex maps to that vertex over
    the vertex count, and the square, where coordinate 0 is fixed and
    (b, c) maps to (b - c, b + c). Anything else raises
    UnsupportedModelError.

    A simplex's J is invertible without a check: StateSpace makes its n
    vertices affinely independent with first coordinate 1, so V is
    invertible and so is V V^T / n.
    """
    if is_square_model(space):
        return qmat(((1, 0, 0), (0, 1, -1), (0, 1, 1)))
    if len(space.vertices) == space.ambient_dim:
        # J = V V^T / n with vertices as the columns of V, so the
        # indicator effect of vertex k maps to vertex_k / n.
        n = as_ratio(len(space.vertices))
        j_matrix = tuple(
            tuple(sum((v[i] * v[j] for v in space.vertices), ZERO) / n
                  for j in range(space.ambient_dim))
            for i in range(space.ambient_dim))
        return j_matrix
    raise UnsupportedModelError(
        f"no canonical effect-to-state isomorphism for {space.label!r}")


def canonical_max_entangled(space: StateSpace) -> BipartiteState:
    """The maximally entangled state of a space paired with itself.

    Built from the effect-to-state isomorphism J via
    value(e_A, e_B) = e_B(J(e_A)); by construction it sits in the
    maximal tensor product, both marginals are the maximally mixed
    state, and conditioning on an extremal-ray effect of side A steers
    side B onto the matching vertex ray.
    """
    j_matrix = effect_to_state_isomorphism(space)
    state = BipartiteState(space, space, transpose(j_matrix))
    if not in_max_tensor(state):
        raise VerificationError("canonical state left the maximal tensor product")
    center = barycenter(space).coords
    if marginal(state, "A").coords != center or marginal(state, "B").coords != center:
        raise VerificationError("canonical state's marginals are not maximally mixed")
    return state
