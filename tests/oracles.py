"""Reference implementations the tests trust instead of the package.

Everything here is deliberately independent of the library under test:
plain fractions.Fraction, dense Gaussian elimination, exhaustive loops
over constraint subsets. Slow but transparently correct at the sizes
the tests use. Expected values frozen in the test modules were computed
with these helpers (or by hand) first.
"""

from fractions import Fraction
from itertools import combinations, product

F = Fraction


def fvec(values):
    return tuple(F(v) for v in values)


def fdot(a, b):
    if len(a) != len(b):
        raise ValueError("fdot needs vectors of one length")
    return sum((F(x) * F(y) for x, y in zip(a, b)), F(0))


def gauss_solve(rows, rhs):
    """Unique solution of a square linear system, or None if singular."""
    n = len(rows)
    aug = [[F(x) for x in row] + [F(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def rank_of(rows):
    """Rank of a list of rows, by dense Fraction elimination."""
    work = [[F(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / work[rank][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def brute_force_vertices(inequalities, dim):
    """All basic feasible points of {x : coeffs . x >= rhs rows}.

    Checks every dim-subset of rows for a unique solution satisfying the
    full system. For a bounded feasible region this is exactly the
    vertex set; in particular an empty result proves the region empty.
    """
    found = set()
    for subset in combinations(range(len(inequalities)), dim):
        rows = [inequalities[i][0] for i in subset]
        rhs = [inequalities[i][1] for i in subset]
        point = gauss_solve(rows, rhs)
        if point is None:
            continue
        if all(fdot(coeffs, point) >= b for coeffs, b in inequalities):
            found.add(tuple(point))
    return tuple(sorted(found))


def effect_polytope_vertices(vertices):
    """Extreme points of {e : 0 <= e(v) <= 1 on every state-space vertex}."""
    dim = len(vertices[0])
    rows = [(fvec(v), F(0)) for v in vertices]
    rows += [(tuple(-F(c) for c in v), F(-1)) for v in vertices]
    return brute_force_vertices(rows, dim)


def check_farkas(equalities, inequalities, certificate):
    """Substitution check that a multiplier vector refutes the system.

    Row order: equalities then inequalities, both as (coeffs, rhs) with
    equalities meaning coeffs . x == rhs and inequalities coeffs . x >= rhs.
    """
    rows = list(equalities) + list(inequalities)
    cert = fvec(certificate)
    if len(cert) != len(rows):
        return False
    if any(m < 0 for m in cert[len(equalities):]):
        return False
    n = len(rows[0][0]) if rows else 0
    combined = [sum((m * F(row[0][i]) for m, row in zip(cert, rows)), F(0))
                for i in range(n)]
    if any(c != 0 for c in combined):
        return False
    total = sum((m * F(row[1]) for m, row in zip(cert, rows)), F(0))
    return total > 0


def check_optimum(equalities, inequalities, objective, sense, value, certificate):
    """Substitution check that multipliers prove an optimal value.

    Row order and multiplier signs as in check_farkas. For sense "max"
    the rows must combine into exactly -objective . x >= -value, so no
    feasible point exceeds value; for "min" into objective . x >= value.
    """
    rows = list(equalities) + list(inequalities)
    cert = fvec(certificate)
    if len(cert) != len(rows):
        return False
    if any(m < 0 for m in cert[len(equalities):]):
        return False
    sign = F(-1) if sense == "max" else F(1)
    combined = [sum((m * F(row[0][i]) for m, row in zip(cert, rows)), F(0))
                for i in range(len(objective))]
    total = sum((m * F(row[1]) for m, row in zip(cert, rows)), F(0))
    return (combined == [sign * F(c) for c in objective]
            and total == sign * F(value))


def check_point(equalities, inequalities, point):
    """Substitution check that a point satisfies the system."""
    pt = fvec(point)
    return (all(fdot(coeffs, pt) == F(rhs) for coeffs, rhs in equalities)
            and all(fdot(coeffs, pt) >= F(rhs) for coeffs, rhs in inequalities))


def indicator_effects(vertices):
    """For a simplex (vertex count == ambient dim): effects with
    e_k(v_j) = [j == k]. Solves the transposed vertex matrix."""
    n = len(vertices)
    if len(vertices[0]) != n:
        raise ValueError("a simplex has as many vertices as its ambient dimension")
    out = []
    for k in range(n):
        rows = [fvec(v) for v in vertices]
        rhs = [F(1) if j == k else F(0) for j in range(n)]
        coeffs = gauss_solve(rows, rhs)
        if coeffs is None:
            raise ValueError("the vertex matrix is singular")
        out.append(coeffs)
    return tuple(out)


def product_mother_effects(vertices, observables_effects):
    """Mother effects for any family on a simplex: measure the vertex,
    then answer each axis from its distribution at that vertex.

    observables_effects: per observable, the tuple of effect coefficient
    vectors. Returns {outcome index tuple: coefficient vector}.
    """
    indicators = indicator_effects(vertices)
    counts = [range(len(effs)) for effs in observables_effects]
    n = len(vertices[0])
    mother = {}
    for combo in product(*counts):
        total = [F(0)] * n
        for indicator, vertex in zip(indicators, vertices):
            weight = F(1)
            for x, k in enumerate(combo):
                weight *= fdot(observables_effects[x][k], vertex)
            total = [t + weight * c for t, c in zip(total, indicator)]
        mother[combo] = tuple(total)
    return mother


def bisection_bracket(critical, precision):
    """The bracket a bisection of [0, 1] reaches when the feasible levels
    are exactly [0, critical]: (1, 1) when critical is 1, otherwise halve
    until no wider than precision, keeping mid as lo when mid <= critical."""
    critical, precision = F(critical), F(precision)
    if critical == 1:
        return (F(1), F(1))
    lo, hi = F(0), F(1)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if mid <= critical:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def square_vertices():
    return (fvec((1, 1, 1)), fvec((1, 1, -1)), fvec((1, -1, 1)),
            fvec((1, -1, -1)))


def ansatz_mother(eta):
    """The symmetric candidate mother for depolarized square fiducials:
    G[a][b] = (1/4)(1, a*eta, b*eta) with a, b in {+1, -1}."""
    eta = F(eta)
    quarter = F(1, 4)
    return {(a, b): (quarter, quarter * a * eta, quarter * b * eta)
            for a in (1, -1) for b in (1, -1)}


def ansatz_is_valid(eta):
    """Positivity of the ansatz on the square plus marginal identities."""
    eta = F(eta)
    mother = ansatz_mother(eta)
    for g in mother.values():
        for v in square_vertices():
            if fdot(g, v) < 0:
                return False
    x_plus = tuple(sum(col) for col in zip(mother[(1, 1)], mother[(1, -1)]))
    y_plus = tuple(sum(col) for col in zip(mother[(1, 1)], mother[(-1, 1)]))
    depol_x = (F(1, 2), eta / 2, F(0))
    depol_y = (F(1, 2), F(0), eta / 2)
    total = [F(0)] * 3
    for g in mother.values():
        total = [t + c for t, c in zip(total, g)]
    return (x_plus == depol_x and y_plus == depol_y
            and tuple(total) == (F(1), F(0), F(0)))


def sharp_fiducials_jm_region_vertices():
    """Basic feasible points of the joint-measurability region for the
    sharp square fiducials, in the 3 free coordinates of G[+1][+1].

    The marginal and normalization constraints pin the other three
    mother effects to X+ - g, Y+ - g and u - X+ - Y+ + g, so joint
    measurability holds iff some g keeps all four nonnegative on the
    square's vertices: 16 inequalities in 3 unknowns, a bounded region.
    An empty result therefore proves the sharp pair incompatible.
    """
    x_plus = (F(1, 2), F(1, 2), F(0))
    y_plus = (F(1, 2), F(0), F(1, 2))
    unit = (F(1), F(0), F(0))
    rest = tuple(u - xp - yp for u, xp, yp in zip(unit, x_plus, y_plus))
    rows = []
    for v in square_vertices():
        # g(v) >= 0
        rows.append((v, F(0)))
        # (X+ - g)(v) >= 0
        rows.append((tuple(-c for c in v), -fdot(x_plus, v)))
        # (Y+ - g)(v) >= 0
        rows.append((tuple(-c for c in v), -fdot(y_plus, v)))
        # (u - X+ - Y+ + g)(v) >= 0
        rows.append((v, -fdot(rest, v)))
    return brute_force_vertices(rows, 3)


def conditional(matrix, effect):
    """e^T M: the subnormalized B-side vector that an A-side effect e
    leaves of a bipartite matrix M, by direct summation."""
    return tuple(sum((F(e) * F(row[j]) for e, row in zip(effect, matrix, strict=True)), F(0))
                 for j in range(len(matrix[0])))


def assemblage_of_model(weights, states, responses, settings, outcomes):
    """Elements produced by a hidden-state model, by direct summation."""
    dim = len(states[0])
    elements = []
    for x in range(settings):
        row = []
        for k in range(outcomes):
            vec = [F(0)] * dim
            for w, s, resp in zip(weights, states, responses):
                scale = F(w) * F(resp[x][k])
                vec = [c + scale * F(sc) for c, sc in zip(vec, s)]
            row.append(tuple(vec))
        elements.append(tuple(row))
    return tuple(elements)


def _nonnegativity_rows(count):
    """w_i >= 0 for each of count weights, in weight order."""
    return [(tuple(F(1) if j == i else F(0) for j in range(count)), F(0))
            for i in range(count)]


def membership_rows(target, gens, convex):
    """(equalities, inequalities) of target = sum_i w_i gens[i], as
    documented: one weight per generator, one equality per coordinate of
    target, then the weights sum to one when convex, then w >= 0 per
    weight."""
    equalities = [(tuple(F(g[i]) for g in gens), F(value)) for i, value in enumerate(target)]
    if convex:
        equalities.append(((F(1),) * len(gens), F(1)))
    return equalities, _nonnegativity_rows(len(gens))


def lhs_rows(vertices, elements):
    """(equalities, inequalities) of the local-hidden-state LP, as documented.

    elements[x][k] is the assemblage element of setting x, outcome k.
    One weight per (deterministic strategy, vertex), strategy-major,
    strategies in itertools.product order of outcome indices. One
    equality per (setting, outcome, coordinate): the weights of the
    strategies answering k at x, times the vertex coordinate, sum to
    the element's coordinate. Then w >= 0 per weight.
    """
    strategies = list(product(*(range(len(row)) for row in elements)))
    count = len(strategies) * len(vertices)
    equalities = []
    for x, row in enumerate(elements):
        for k, element in enumerate(row):
            for coord, value in enumerate(element):
                coeffs = [F(0)] * count
                for s, strategy in enumerate(strategies):
                    if strategy[x] == k:
                        for v, vertex in enumerate(vertices):
                            coeffs[s * len(vertices) + v] = F(vertex[coord])
                equalities.append((tuple(coeffs), F(value)))
    return equalities, _nonnegativity_rows(count)


def jm_rows(vertices, observables_effects):
    """(equalities, inequalities) of the joint-measurability LP, as documented.

    observables_effects[x][k] is the coefficient vector of outcome k of
    observable x. Variables: the mother's effect coefficients, one block
    of len(vertex) per outcome tuple, tuples in itertools.product order
    of outcome indices. Equalities: per coordinate, all tuples sum to the
    unit effect (1, 0, ..., 0); then per (observable x, outcome k,
    coordinate), the tuples with entry k at x sum to the effect's
    coordinate. Inequalities: per tuple, per vertex, the tuple's effect
    is nonnegative on the vertex.
    """
    dim = len(vertices[0])
    tuples = list(product(*(range(len(effects)) for effects in observables_effects)))
    count = len(tuples) * dim

    def row(entries):
        coeffs = [F(0)] * count
        for i, value in entries:
            coeffs[i] = F(value)
        return tuple(coeffs)

    equalities = [(row((t * dim + coord, 1) for t in range(len(tuples))),
                   F(1) if coord == 0 else F(0)) for coord in range(dim)]
    for x, effects in enumerate(observables_effects):
        for k, effect in enumerate(effects):
            for coord in range(dim):
                equalities.append((row((t * dim + coord, 1)
                                       for t, combo in enumerate(tuples) if combo[x] == k),
                                   F(effect[coord])))
    inequalities = [(row((t * dim + coord, vertex[coord]) for coord in range(dim)), F(0))
                    for t in range(len(tuples)) for vertex in vertices]
    return equalities, inequalities


def separability_rows(vertices_a, vertices_b, matrix):
    """(equalities, inequalities) of the separability LP, as documented.

    One weight per (vertex_A, vertex_B) pair, A-major. One equality per
    matrix entry, row-major: the weighted vertex products reproduce the
    entry. Then the weights sum to one, then w >= 0 per weight.
    """
    pairs = [(a, b) for a in vertices_a for b in vertices_b]
    equalities = [(tuple(F(a[i]) * F(b[j]) for a, b in pairs), F(value))
                  for i, row in enumerate(matrix) for j, value in enumerate(row)]
    equalities.append(((F(1),) * len(pairs), F(1)))
    return equalities, _nonnegativity_rows(len(pairs))


def conditioning_rows(matrix, vertices_a, target):
    """(equalities, inequalities) of the conditioning LP, as documented.

    One variable per A coordinate, the effect's coefficients. One
    equality per B coordinate j: sum_i e_i matrix[i][j] == target[j].
    Then 0 <= e . v per A vertex, then -e . v >= -1 per A vertex.
    """
    equalities = [(tuple(F(row[j]) for row in matrix), F(value))
                  for j, value in enumerate(target)]
    inequalities = [(fvec(v), F(0)) for v in vertices_a]
    inequalities += [(tuple(-F(c) for c in v), F(-1)) for v in vertices_a]
    return equalities, inequalities


def facet_cone_member(facets, vec):
    """The state-cone test as the rational formula: f . vec >= 0 on every facet."""
    return all(fdot(f, vec) >= 0 for f in facets)


def effect_in_unit_range(vertices, effect):
    """Effect validity as the rational formula: 0 <= e . v <= 1 on every vertex."""
    return all(F(0) <= fdot(effect, v) <= F(1) for v in vertices)


def first_negative_facet_pair(facets_a, facets_b, matrix):
    """The first (fa, fb), A-major in the order given, with fa^T M fb < 0, or None."""
    for fa in facets_a:
        for fb in facets_b:
            value = sum((F(fa[i]) * F(x) * F(fb[j])
                         for i, row in enumerate(matrix) for j, x in enumerate(row)), F(0))
            if value < 0:
                return (fvec(fa), fvec(fb))
    return None
