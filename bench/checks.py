"""Plain-Fraction checks of every verdict the benchmark receives.

Nothing here calls back into gptsteer: the linear systems are rebuilt
from their documented row orders, witnesses and Farkas certificates are
substituted with ``fractions.Fraction`` arithmetic, and polytope facets
come from a brute-force oracle. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class CheckFailed(Exception):
    """The program's output did not survive the benchmark's own check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fr(value) -> Fraction:
    """Exact copy of a library rational (Fraction or gmpy2.mpq)."""
    return Fraction(int(value.numerator), int(value.denominator))


def frvec(values) -> tuple[Fraction, ...]:
    return tuple(fr(v) for v in values)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def row_times(vec, matrix) -> tuple[Fraction, ...]:
    """vec^T M for a matrix given as rows."""
    return tuple(dot(vec, col) for col in zip(*matrix))


def outer(a, b) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(x * y for y in b) for x in a)


# ---------------------------------------------------------------------------
# Linear systems: rows are (coeffs, rhs); equalities mean ==, inequalities >=.


def check_farkas(equalities, inequalities, certificate) -> None:
    """The multipliers combine the rows into 0 >= positive."""
    mults = frvec(certificate)
    rows = list(equalities) + list(inequalities)
    require(len(mults) == len(rows), "certificate length differs from row count")
    require(all(m >= 0 for m in mults[len(equalities):]),
            "negative multiplier on an inequality row")
    n = len(rows[0][0])
    combined = [Fraction(0)] * n
    total = Fraction(0)
    for m, (coeffs, rhs) in zip(mults, rows):
        if m:
            for i, c in enumerate(coeffs):
                combined[i] += m * c
            total += m * rhs
    require(all(c == 0 for c in combined), "certificate leaves a nonzero combination")
    require(total > 0, "certificate right-hand side is not positive")


def jm_rows(family, vertices):
    """The joint-measurability system in its documented row order.

    ``family`` is a list of (outcomes, effects) per observable.
    """
    dim = len(vertices[0])
    tuples = list(itertools.product(*(range(len(effects)) for _, effects in family)))
    nvars = len(tuples) * dim
    unit = (Fraction(1),) + (Fraction(0),) * (dim - 1)
    equalities = []
    for coord in range(dim):
        row = [Fraction(0)] * nvars
        for t in range(len(tuples)):
            row[t * dim + coord] = Fraction(1)
        equalities.append((row, unit[coord]))
    for axis, (_, effects) in enumerate(family):
        for k, effect in enumerate(effects):
            for coord in range(dim):
                row = [Fraction(0)] * nvars
                for t, combo in enumerate(tuples):
                    if combo[axis] == k:
                        row[t * dim + coord] = Fraction(1)
                equalities.append((row, effect[coord]))
    inequalities = []
    for t in range(len(tuples)):
        for v in vertices:
            row = [Fraction(0)] * nvars
            row[t * dim:(t + 1) * dim] = v
            inequalities.append((row, Fraction(0)))
    return equalities, inequalities


def lhs_rows(elements, vertices):
    """The local-hidden-state system in its documented row order."""
    dim = len(vertices[0])
    strategies = list(itertools.product(*(range(len(row)) for row in elements)))
    nvars = len(strategies) * len(vertices)
    equalities = []
    for x, row in enumerate(elements):
        for k, element in enumerate(row):
            for coord in range(dim):
                coeffs = [Fraction(0)] * nvars
                for s, strat in enumerate(strategies):
                    if strat[x] == k:
                        for v, vertex in enumerate(vertices):
                            coeffs[s * len(vertices) + v] = vertex[coord]
                equalities.append((coeffs, element[coord]))
    return equalities, _nonnegativity(nvars)


def separability_rows(matrix, vertices_a, vertices_b):
    """The vertex-pair separability system in its documented row order."""
    pairs = [(a, b) for a in vertices_a for b in vertices_b]
    equalities = []
    for i in range(len(vertices_a[0])):
        for j in range(len(vertices_b[0])):
            equalities.append(([a[i] * b[j] for a, b in pairs], matrix[i][j]))
    equalities.append(([Fraction(1)] * len(pairs), Fraction(1)))
    return equalities, _nonnegativity(len(pairs))


def _nonnegativity(nvars):
    rows = []
    for i in range(nvars):
        row = [Fraction(0)] * nvars
        row[i] = Fraction(1)
        rows.append((row, Fraction(0)))
    return rows


# ---------------------------------------------------------------------------
# Geometry oracle.


def _null_vector(rows, n):
    """A nonzero solution of rows . x = 0 when the null space is one-dimensional."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        p = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        x[col] = -work[i][free[0]]
    return tuple(x)


def rank(rows) -> int:
    work = [list(r) for r in rows]
    if not work:
        return 0
    r = 0
    for col in range(len(work[0])):
        p = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        for i in range(r + 1, len(work)):
            if work[i][col]:
                f = work[i][col] / work[r][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def ray_key(vec) -> tuple[Fraction, ...]:
    """Canonical representative of the ray through a nonzero vector."""
    scale = max(abs(x) for x in vec)
    return tuple(x / scale for x in vec)


def facets(vertices) -> frozenset:
    """Facet normals of the cone over the vertices, as canonical rays.

    Brute force: every (d-1)-subset of vertices spanning a hyperplane
    through the origin with all vertices on one side gives a facet.
    """
    dim = len(vertices[0])
    found = set()
    for subset in itertools.combinations(vertices, dim - 1):
        normal = _null_vector(subset, dim)
        if normal is None:
            continue
        values = [dot(normal, v) for v in vertices]
        if all(x >= 0 for x in values):
            found.add(ray_key(normal))
        elif all(x <= 0 for x in values):
            found.add(ray_key(tuple(-c for c in normal)))
    return frozenset(found)


def in_polytope(coords, facet_rays) -> bool:
    """Normalized and on the inner side of every facet."""
    return coords[0] == 1 and all(dot(f, coords) >= 0 for f in facet_rays)


def effect_valid(effect, vertices) -> bool:
    return all(0 <= dot(effect, v) <= 1 for v in vertices)


def effect_vertices(vertices) -> frozenset:
    """Extreme points of {e : 0 <= e(v) <= 1 for every vertex v}, brute force."""
    dim = len(vertices[0])
    halfspaces = [(tuple(v), Fraction(0)) for v in vertices]
    halfspaces += [(tuple(-c for c in v), Fraction(-1)) for v in vertices]
    found = set()
    for subset in itertools.combinations(halfspaces, dim):
        # Solve the square system by appending the right-hand side column.
        aug = [list(c) + [-b] for c, b in subset]
        x = _null_vector(aug, dim + 1)
        if x is None or x[dim] == 0:
            continue
        point = tuple(c / x[dim] for c in x[:dim])
        if all(dot(c, point) >= b for c, b in halfspaces):
            found.add(point)
    return frozenset(found)


# ---------------------------------------------------------------------------
# Verdict evidence.


def check_mother(effects, family, vertices) -> None:
    """Mother effects: valid, summing to the unit, every axis a marginal."""
    dim = len(vertices[0])
    tuples = list(itertools.product(*(range(len(effs)) for _, effs in family)))
    require(len(effects) == len(tuples), "mother has the wrong number of effects")
    for e in effects:
        require(all(dot(e, v) >= 0 for v in vertices), "mother effect negative on a state")
    unit = (Fraction(1),) + (Fraction(0),) * (dim - 1)
    total = tuple(sum(col, Fraction(0)) for col in zip(*effects))
    require(total == unit, "mother effects do not sum to the unit")
    for axis, (_, axis_effects) in enumerate(family):
        for k, effect in enumerate(axis_effects):
            marginal = [Fraction(0)] * dim
            for combo, e in zip(tuples, effects):
                if combo[axis] == k:
                    marginal = [a + b for a, b in zip(marginal, e)]
            require(tuple(marginal) == effect, f"mother marginal misses axis {axis}")


def check_jm(result, family, vertices) -> bool:
    """Check a joint-measurability verdict; returns the verdict."""
    if result.jointly_measurable:
        check_mother([frvec(e.coeffs) for e in result.mother.effects], family, vertices)
        return True
    require(result.certificate is not None, "incompatible verdict without certificate")
    check_farkas(*jm_rows(family, vertices), result.certificate)
    return False


def assemblage_of(matrix, family):
    """Elements e^T M of the assemblage the family steers out of the state."""
    return tuple(tuple(row_times(effect, matrix) for effect in effects)
                 for _, effects in family)


def model_data(model):
    """(weight, state, responses) per hidden state of a library LhsModel."""
    return [(fr(lam.weight), frvec(lam.state.coords), [frvec(row) for row in lam.responses])
            for lam in model.lambdas]


def check_lhs_model(lambdas, elements, vertices, facet_rays) -> None:
    """A local model: a probability ensemble of valid states reproducing elements.

    ``lambdas`` holds (weight, state, responses) per hidden state.
    """
    require(lambdas, "local model without hidden states")
    weights = [w for w, _, _ in lambdas]
    require(all(w >= 0 for w in weights) and sum(weights) == 1,
            "hidden-state weights are not a distribution")
    for _, state, responses in lambdas:
        require(in_polytope(state, facet_rays), "hidden state outside the state space")
        for row in responses:
            require(all(p >= 0 for p in row) and sum(row) == 1,
                    "response row is not a distribution")
    dim = len(vertices[0])
    rebuilt = []
    for x, row in enumerate(elements):
        out = []
        for k in range(len(row)):
            vec = [Fraction(0)] * dim
            for w, state, responses in lambdas:
                scale = w * responses[x][k]
                vec = [a + scale * s for a, s in zip(vec, state)]
            out.append(tuple(vec))
        rebuilt.append(tuple(out))
    require(tuple(rebuilt) == tuple(elements), "local model does not reproduce the assemblage")


def check_lhs(result, elements, vertices, facet_rays) -> bool:
    """Check an unsteerability verdict; returns True for unsteerable."""
    if result.unsteerable:
        check_lhs_model(model_data(result.model), elements, vertices, facet_rays)
        return True
    require(result.certificate is not None, "steerable verdict without certificate")
    check_farkas(*lhs_rows(elements, vertices), result.certificate)
    return False


def check_decomposition(weights, pairs, matrix, vertices_a, vertices_b) -> None:
    """Weights form a distribution over vertex pairs that mixes to the matrix."""
    require(all(w >= 0 for w in weights) and sum(weights) == 1,
            "decomposition weights are not a distribution")
    total = [[Fraction(0)] * len(matrix[0]) for _ in matrix]
    for w, (a, b) in zip(weights, pairs, strict=True):
        require(a in vertices_a and b in vertices_b, "decomposition uses a non-vertex")
        for i, row in enumerate(outer(a, b)):
            total[i] = [t + w * x for t, x in zip(total[i], row)]
    require(tuple(tuple(r) for r in total) == tuple(tuple(r) for r in matrix),
            "decomposition does not reproduce the matrix")


def in_max_tensor(matrix, effects_a, effects_b) -> bool:
    return all(dot(row_times(ea, matrix), eb) >= 0 for ea in effects_a for eb in effects_b) \
        and matrix[0][0] == 1
