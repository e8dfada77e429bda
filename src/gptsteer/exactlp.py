"""Exact rational linear programming and polytope vertex enumeration.

Feasibility and optimization run a two-phase primal simplex, exact and
with Bland's smallest-index pivot rule, so every run terminates and
identical inputs give identical answers. Its tableau is fraction-free:
integer rows, each over one positive denominator, pivoted by
``vecs.pivot``, the Gauss-Jordan step of ``vecs`` elimination too.
Rationals are built only where values leave the tableau: the witness
or optimal point, the multipliers and the optimum.
A row x_j >= 0 is a bound on column j, not a tableau row of its own,
and only variables without one are split into two nonnegative parts.
Infeasible systems always come back with a Farkas certificate that
re-verifies by substitution, with a multiplier for every row, bound
rows included; feasible ones carry an exact witness point. Optimal
results carry the optimal point and an optimality certificate, dual
multipliers that are checked by substitution before the result is
returned (``certifies_optimum``).
Vertex enumeration is an exact double description over primitive
integer rays, started from a nonsingular row submatrix; it runs one
feasibility LP only when the rows have rank below the dimension, and
refuses up front a system whose rays could pass RAY_CAP.

A ``LinearSystem`` holds equality rows (coeffs . x == rhs) and
inequality rows (coeffs . x >= rhs) over free variables. Certificates
are multiplier tuples aligned with the rows in that order (equalities
first): inequality multipliers are nonnegative, the combined coefficient
vector is zero, and the combined right-hand side is strictly positive,
i.e. the rows combine to the contradiction 0 >= positive. An optimality
certificate follows the same order and sign rules, and combines the rows
into -objective . x >= -value when maximizing (objective . x >= value
when minimizing), a bound that the optimal point attains.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass

from .errors import UnboundedRegionError, VerificationError
from .ratio import ONE, ZERO, Rational, as_ratio
from .vecs import combine, dot, pivot, primitive_row, qvec, rank, solve_unique, vzero

log = logging.getLogger(__name__)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

Row = tuple[tuple[Rational, ...], Rational]

# vertex_enumerate refuses systems whose double description could hold more
# rays than this, rather than run for hours.
RAY_CAP = 10 ** 5


@dataclass(frozen=True)
class LinearSystem:
    """Equalities (coeffs . x == rhs) and inequalities (coeffs . x >= rhs)."""

    variable_count: int
    equalities: tuple[Row, ...] = ()
    inequalities: tuple[Row, ...] = ()

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("variable_count must be positive")
        for coeffs, _ in self.equalities + self.inequalities:
            if len(coeffs) != self.variable_count:
                raise ValueError(
                    f"row length {len(coeffs)} != variable_count {self.variable_count}")

    @classmethod
    def build(cls, variable_count: int, equalities=(), inequalities=()) -> "LinearSystem":
        """Construct with coercion of all entries to exact rationals."""
        eq = tuple((qvec(c), as_ratio(b)) for c, b in equalities)
        ineq = tuple((qvec(c), as_ratio(b)) for c, b in inequalities)
        return cls(variable_count, eq, ineq)

    @property
    def row_count(self) -> int:
        return len(self.equalities) + len(self.inequalities)


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # FEASIBLE | INFEASIBLE
    witness: tuple[Rational, ...] | None = None
    certificate: tuple[Rational, ...] | None = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


@dataclass(frozen=True)
class OptimizationResult:
    """certificate: optimality multipliers when OPTIMAL, Farkas when INFEASIBLE."""

    status: str  # OPTIMAL | UNBOUNDED | INFEASIBLE
    value: Rational | None = None
    point: tuple[Rational, ...] | None = None
    certificate: tuple[Rational, ...] | None = None


def satisfies(system: LinearSystem, point) -> bool:
    """Exact substitution check of a candidate point."""
    p = qvec(point)
    if len(p) != system.variable_count:
        return False
    return all(dot(c, p) == b for c, b in system.equalities) and \
        all(dot(c, p) >= b for c, b in system.inequalities)


def _combination(system: LinearSystem, mults) -> tuple[tuple[Rational, ...], Rational] | None:
    """(coefficients, rhs) of the rows summed with the multipliers, or None
    when the multipliers do not fit: a wrong count, or a negative one on an
    inequality row."""
    rows = system.equalities + system.inequalities
    if len(mults) != len(rows) or any(m < 0 for m in mults[len(system.equalities):]):
        return None
    used = [(m, (*coeffs, rhs)) for m, (coeffs, rhs) in zip(mults, rows) if m]
    if not used:
        return vzero(system.variable_count), ZERO
    *coeffs, rhs = combine([m for m, _ in used], [row for _, row in used])
    return tuple(coeffs), rhs


def refutes(system: LinearSystem, certificate) -> bool:
    """Exact substitution check of a Farkas certificate.

    Multipliers follow row order (equalities then inequalities); the
    inequality part must be nonnegative, the combined coefficient vector
    must vanish and the combined right-hand side must be positive.
    """
    combination = _combination(system, qvec(certificate))
    if combination is None:
        return False
    coeffs, rhs = combination
    return not any(coeffs) and rhs > 0


def _sense_sign(sense: str) -> Rational:
    """-1 to maximize (the simplex minimizes -objective), 1 to minimize."""
    if sense == "max":
        return -ONE
    if sense == "min":
        return ONE
    raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")


def certifies_optimum(system: LinearSystem, objective, value, certificate,
                      sense: str = "max") -> bool:
    """Exact substitution check of an optimality certificate.

    Multipliers follow row order, the inequality part nonnegative, as for
    refutes. When maximizing they must combine the rows into exactly
    -objective . x >= -value, so no feasible point exceeds value; when
    minimizing into objective . x >= value. Any other sense raises
    ValueError, as in lp_optimize.
    """
    sign = _sense_sign(sense)
    combination = _combination(system, qvec(certificate))
    if combination is None:
        return False
    coeffs, rhs = combination
    return coeffs == combine((sign,), (qvec(objective),)) and rhs == sign * as_ratio(value)


# ---------------------------------------------------------------------------
# Simplex core. Standard form: a bound row x_j >= 0 (coefficient exactly 1
# at j, 0 elsewhere, rhs 0; the first such row for each j) makes column j a
# nonnegative column and gets neither a slack nor a tableau row. Every other
# variable is split x = xp - xm, every other inequality gets a slack, rows
# are flipped to nonnegative rhs, and rows that still lack a basic column get
# an artificial variable for phase one. Columns run x (xp for split ones),
# xm, slacks, artificials. The rhs is each row's last column. The artificial
# columns stay after phase one, never entering again: with the ready-made
# slacks they are the unit columns that row multipliers are read off.
#
# The tableau is fraction-free, as in lrs (Avis 2000; Edmonds 1967): each
# row, the objective row too, is a list of ints over one positive
# denominator, kept primitive (vecs.primitive_row), and a pivot is one
# vecs.pivot over rows + objective. Bland's entering rule reads only signs,
# and the ratio test compares rhs_i a_k with rhs_k a_i; both are invariant
# under positive row scaling, so the pivots are those of the same simplex
# over rationals. Values become rationals only where they leave the
# tableau: the point (extract_point), the multipliers and the optimum.


def _bound_rows(system: LinearSystem) -> dict[int, int]:
    """Column j -> index among the inequalities of its first row x_j >= 0."""
    bounds: dict[int, int] = {}
    for i, (coeffs, b) in enumerate(system.inequalities):
        if b == 0:
            support = [j for j, c in enumerate(coeffs) if c]
            if len(support) == 1 and coeffs[support[0]] == 1:
                bounds.setdefault(support[0], i)
    return bounds


class _Tableau:
    def __init__(self, system: LinearSystem):
        n = system.variable_count
        n_eq = len(system.equalities)
        self.system = system
        self.n = n
        self.bound_row = _bound_rows(system)
        bound_ineq = set(self.bound_row.values())
        free = [j for j in range(n) if j not in self.bound_row]
        self.minus_col = {j: n + k for k, j in enumerate(free)}
        kept = [i for i in range(len(system.inequalities)) if i not in bound_ineq]
        self.struct_cols = n + len(free) + len(kept)
        # Row i stands for rows[i][j] / dens[i]; the objective row of the
        # phase that runs for obj[j] / obj_den.
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.obj: list[int] = []
        self.obj_den = 1
        # Per initial row, kept when redundant rows are dropped: its index in
        # system row order, its sign flip, and its unit column (artificial,
        # or the slack when that is a ready-made basis column).
        self.origin: list[int] = []
        self.flip: list[Rational] = []
        self.unit_col: list[int] = []
        self.pivots = 0

        all_rows = [(c, b, r, None) for r, (c, b) in enumerate(system.equalities)]
        all_rows += [(*system.inequalities[i], n_eq + i, n + len(free) + k)
                     for k, i in enumerate(kept)]
        # Each row is flipped to a nonnegative rhs. Flipping an inequality
        # row turns its slack coefficient to +1, making the slack a
        # ready-made basis column, so an inequality with b <= 0 flips and
        # keeps its slack; every other row takes the next artificial.
        ready = [slack is not None and b <= 0 for _, b, _, slack in all_rows]
        self.total_cols = self.struct_cols + ready.count(False)
        artificials = iter(range(self.struct_cols, self.total_cols))
        for (coeffs, b, origin, slack), is_ready in zip(all_rows, ready):
            ints, den = primitive_row((*coeffs, b))
            row = [0] * self.total_cols + [ints[-1]]
            for j, c in enumerate(ints[:-1]):
                if c:
                    row[j] = c
                    m = self.minus_col.get(j)
                    if m is not None:
                        row[m] = -c
            if slack is not None:
                row[slack] = -den
            if b < 0 or is_ready:
                row = [-x for x in row]
                sign = -ONE
            else:
                sign = ONE
            col = slack if is_ready else next(artificials)
            row[col] = den
            self.rows.append(row)
            self.dens.append(den)
            self.origin.append(origin)
            self.flip.append(sign)
            self.unit_col.append(col)
        self.row_count = len(self.rows)
        self.basis: list[int] = list(self.unit_col)

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int):
        """One vecs.pivot over the rows and the objective row."""
        dens = self.dens + [self.obj_den]
        pivot(self.rows + [self.obj], dens, r, c)
        *self.dens, self.obj_den = dens

    def step(self, r: int, c: int):
        self._pivot(r, c)
        self.basis[r] = c
        self.pivots += 1

    def _start_phase(self, cost: list[int], cost_den: int):
        """Make cost / cost_den, one entry per column and a zero rhs, the
        objective row, priced out: a pivot on each basic position with a
        nonzero cost zeroes that column in the objective and leaves the
        rows, whose basic entry is already one, as they are."""
        self.obj, self.obj_den = cost, cost_den
        for r, b in enumerate(self.basis):
            if self.obj[b]:
                self._pivot(r, b)

    def run_bland(self, allowed_cols: int) -> str:
        """Minimize until no negative reduced cost; returns OPTIMAL|UNBOUNDED."""
        obj = self.obj
        while True:
            enter = next((j for j in range(allowed_cols) if obj[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    # rhs / a against the best rhs / a; denominators cancel
                    if leave is None:
                        leave, best_rhs, best_a = i, row[-1], a
                        continue
                    t, best = row[-1] * best_a, best_rhs * a
                    if t < best or (t == best and self.basis[i] < self.basis[leave]):
                        leave, best_rhs, best_a = i, row[-1], a
            if leave is None:
                return UNBOUNDED
            self.step(leave, enter)

    # -- phases ------------------------------------------------------------

    def phase_one(self) -> tuple[Rational, ...] | None:
        """None when feasible, else a Farkas certificate that is checked
        here by substitution (VerificationError if it fails)."""
        cost = [0] * (self.total_cols + 1)
        cost[self.struct_cols:self.total_cols] = [1] * (self.total_cols - self.struct_cols)
        self._start_phase(cost, 1)
        if self.run_bland(self.total_cols) != OPTIMAL:
            raise VerificationError("phase one objective is bounded below by zero")
        # The objective row's last entry is minus the artificials' total.
        if self.obj[-1] < 0:
            certificate = self.multipliers(ONE)
            if not refutes(self.system, certificate):
                raise VerificationError("Farkas certificate fails substitution")
            return certificate
        self._drive_out_artificials()
        return None

    def _objective_entry(self, j: int) -> Rational:
        return as_ratio(self.obj[j], self.obj_den)

    def multipliers(self, art_cost: Rational) -> tuple[Rational, ...]:
        """Simplex multipliers in system row order, read off reduced costs.

        The unit column of initial row r is e_r, with cost art_cost if it
        is an artificial and 0 if it is a slack, so the row's multiplier is
        that cost minus the column's reduced cost, times the row's flip.
        The reduced cost of a bounded column j, cost_j - (sum_r m_r
        coeffs_r)_j, is nonnegative at optimality: the multiplier of its
        bound row.
        """
        mults = [ZERO] * self.system.row_count
        for origin, sign, col in zip(self.origin, self.flip, self.unit_col):
            cost = art_cost if col >= self.struct_cols else ZERO
            mults[origin] = sign * (cost - self._objective_entry(col))
        n_eq = len(self.system.equalities)
        for j, i in self.bound_row.items():
            mults[n_eq + i] = self._objective_entry(j)
        return tuple(mults)

    def _drive_out_artificials(self):
        drop: list[int] = []
        for r in range(len(self.rows)):
            if self.basis[r] < self.struct_cols:
                continue
            col = next((j for j in range(self.struct_cols) if self.rows[r][j] != 0), None)
            if col is None:
                drop.append(r)  # redundant row
            else:
                self.step(r, col)
        for r in reversed(drop):
            del self.rows[r], self.dens[r], self.basis[r]

    def phase_two(self, objective) -> tuple[str, Rational | None, tuple[Rational, ...] | None]:
        """Minimize objective (over original free variables) after phase one.

        Returns the status, the optimum and its multipliers, which combine
        the rows into objective . x >= optimum."""
        ints, den = primitive_row(objective)
        cost = [0] * (self.total_cols + 1)
        for j, c in enumerate(ints):
            cost[j] = c
            m = self.minus_col.get(j)
            if m is not None:
                cost[m] = -c
        self._start_phase(cost, den)
        status = self.run_bland(self.struct_cols)
        if status == UNBOUNDED:
            return UNBOUNDED, None, None
        # The objective row's last entry is minus the objective value.
        return OPTIMAL, -self._objective_entry(-1), self.multipliers(ZERO)

    def extract_point(self) -> tuple[Rational, ...]:
        values = [ZERO] * self.struct_cols
        for row, den, b in zip(self.rows, self.dens, self.basis):
            values[b] = as_ratio(row[-1], den)  # the basic entry is one
        point = values[:self.n]
        for j, m in self.minus_col.items():
            point[j] -= values[m]
        return tuple(point)

    def log_solve(self, name: str, phase_one_pivots: int):
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s: %d rows x %d structural columns, %d bounded, pivots %d + %d",
                      name, self.row_count, self.struct_cols, len(self.bound_row),
                      phase_one_pivots, self.pivots - phase_one_pivots)


def lp_feasible(system: LinearSystem) -> FeasibilityResult:
    """Decide feasibility; the result always carries its own evidence."""
    tableau = _Tableau(system)
    certificate = tableau.phase_one()
    tableau.log_solve("lp_feasible", tableau.pivots)
    if certificate is not None:
        return FeasibilityResult(INFEASIBLE, certificate=certificate)
    point = tableau.extract_point()
    if not satisfies(system, point):
        raise VerificationError("witness fails substitution")
    return FeasibilityResult(FEASIBLE, witness=point)


def lp_optimize(objective, system: LinearSystem, sense: str = "max") -> OptimizationResult:
    """Exact optimum of a linear objective over the system.

    sense is "max" or "min"; unbounded and infeasible outcomes are kept
    apart, and an infeasible outcome carries a Farkas certificate. An
    optimal outcome carries its point and an optimality certificate,
    both checked here by substitution (VerificationError if one fails).
    """
    sign = _sense_sign(sense)
    obj = qvec(objective)
    if len(obj) != system.variable_count:
        raise ValueError("objective length does not match variable count")
    tableau = _Tableau(system)
    certificate = tableau.phase_one()
    phase_one_pivots = tableau.pivots
    if certificate is not None:
        tableau.log_solve("lp_optimize", phase_one_pivots)
        return OptimizationResult(INFEASIBLE, certificate=certificate)
    status, value, certificate = tableau.phase_two(combine((sign,), (obj,)))
    tableau.log_solve("lp_optimize", phase_one_pivots)
    if status == UNBOUNDED:
        return OptimizationResult(UNBOUNDED)
    point = tableau.extract_point()
    if not satisfies(system, point):
        raise VerificationError("optimizer left the feasible set")
    value = sign * value
    if dot(obj, point) != value:
        raise VerificationError("optimal point does not attain the optimal value")
    if not certifies_optimum(system, obj, value, certificate, sense):
        raise VerificationError("optimality certificate fails substitution")
    return OptimizationResult(OPTIMAL, value=value, point=point, certificate=certificate)


# ---------------------------------------------------------------------------
# Polytopes and membership.


def _ray_bound(rows: int, dim: int) -> int:
    """McMullen's upper bound on the vertices of a dim-polytope with the
    given number of facets (McMullen, Mathematika 17, 1970): a cyclic
    polytope's dual has the most. Below dimension one, or with fewer than
    dim + 2 rows, the row count bounds it."""
    if dim < 1 or rows < dim + 2:
        return rows
    return (math.comb(rows - (dim + 1) // 2, dim // 2)
            + math.comb(rows - dim // 2 - 1, (dim + 1) // 2 - 1))


def _primitive_ray(values) -> list[int]:
    """The positive multiple of a nonzero rational vector whose entries are
    integers with no common factor."""
    ints = primitive_row(values)[0]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def vertex_enumerate(system: LinearSystem) -> tuple[tuple[Rational, ...], ...]:
    """All vertices of the polytope described by the system, sorted.

    Exact incremental double description (Motzkin, Raiffa, Thompson &
    Thrall 1953; Fukuda & Prodon, LNCS 1120, 1996) of the homogenized
    cone over y = (t, x): the row t >= 0, each inequality c . x >= b as
    the primitive integer row (-b, c) with (-b, c) . y >= 0, and each
    equality as (-b, c) . y == 0. The vertices are the extreme rays
    with t > 0, read as x / t.

    The starting pair comes from a nonsingular square submatrix, its
    rows chosen in order from the equalities, t >= 0 and the
    inequalities: its rays solve the submatrix against a unit vector,
    one per inequality row in it (vecs.solve_unique), and every
    equality outside it is implied. Each remaining inequality then
    keeps the rays on its side and joins each adjacent pair across it,
    p on the positive and q on the negative side, into the integer ray
    (a . p) q - (a . q) p. Rays carry the bitmask of the rows they are
    tight on; a pair is adjacent when no third ray is tight on all of
    their common rows, which must number at least D - 2, D the
    dimension of the equalities' null space.

    Without a nonsingular submatrix the rows have rank below n, and one
    feasibility LP decides: an empty region returns (), a nonempty one
    contains a line. Otherwise no LP runs. No ray with t > 0 means the
    region is empty, which returns (); any ray with t = 0 beside one is
    a recession ray. Unbounded regions raise UnboundedRegionError.
    Before any row is cut, a system whose cones could have more rays
    than RAY_CAP, by McMullen's bound for the inequality rows and t >= 0
    in D - 1 dimensions, raises ValueError.
    """
    n = system.variable_count
    equalities = [primitive_row((-b, *c))[0] for c, b in system.equalities]
    inequalities = [[1] + [0] * n]
    inequalities += [primitive_row((-b, *c))[0] for c, b in system.inequalities]
    dim = n + 1 - rank(equalities)
    bound = _ray_bound(len(inequalities), dim - 1)
    if bound > RAY_CAP:
        raise ValueError(f"vertex enumeration needs up to {bound} rays, "
                         f"more than the cap of {RAY_CAP}")
    basis: list[list[int]] = []
    bits: list[int | None] = []  # each basis row's bit among the inequalities
    for bit, row in [(None, row) for row in equalities] + list(enumerate(inequalities)):
        if rank(basis + [row]) > len(basis):
            basis.append(row)
            bits.append(bit)
            if len(basis) == n + 1:
                break
    if len(basis) <= n:
        if lp_feasible(system).feasible:
            raise UnboundedRegionError("region is nonempty but has no vertex: it contains a line")
        return ()
    in_basis = sum(1 << bit for bit in bits if bit is not None)
    rays = [_primitive_ray(solve_unique(basis, [int(i == k) for i in range(n + 1)]))
            for k, bit in enumerate(bits) if bit is not None]
    masks = [in_basis ^ (1 << bit) for bit in bits if bit is not None]
    for bit, row in enumerate(inequalities):
        if (in_basis >> bit) & 1:
            continue
        cut = 1 << bit
        values = [sum(map(operator.mul, row, ray)) for ray in rays]
        negative = [k for k, v in enumerate(values) if v < 0]
        joined_rays, joined_masks = [], []
        for p in [k for k, v in enumerate(values) if v > 0]:
            vp, mp = values[p], masks[p]
            for q in negative:
                mq = masks[q]
                common = mp & mq
                if common.bit_count() < dim - 2 or any(
                        m & common == common and m != mp and m != mq for m in masks):
                    continue
                joined_rays.append(_primitive_ray(
                    [vp * y - values[q] * x for x, y in zip(rays[p], rays[q])]))
                joined_masks.append(common | cut)
        kept = [k for k, v in enumerate(values) if v >= 0]
        rays = [rays[k] for k in kept] + joined_rays
        masks = [masks[k] | cut if values[k] == 0 else masks[k] for k in kept] + joined_masks
    vertices = sorted(tuple([as_ratio(x, ray[0]) for x in ray[1:]]) for ray in rays if ray[0])
    log.debug("vertex_enumerate: %d rows -> %d vertices", system.row_count, len(vertices))
    if not vertices:
        return ()
    if len(vertices) < len(rays):
        raise UnboundedRegionError("region has a vertex and a recession ray: it is unbounded")
    return tuple(vertices)


def cone_member(point, generators) -> FeasibilityResult:
    """Nonnegative-combination membership of point in the generator cone.

    Feasible results carry the coefficients as witness; infeasible ones a
    Farkas certificate for the membership system (coordinate equalities
    first, then the coefficient nonnegativity rows).
    """
    target = qvec(point)
    gens = [qvec(g) for g in generators]
    for g in gens:
        if len(g) != len(target):
            raise ValueError("generator dimension does not match point")
    if not gens:
        if all(x == 0 for x in target):
            return FeasibilityResult(FEASIBLE, witness=())
        j = next(i for i, x in enumerate(target) if x != 0)
        cert = [ZERO] * len(target)
        cert[j] = ONE if target[j] > 0 else -ONE
        return FeasibilityResult(INFEASIBLE, certificate=tuple(cert))
    system = membership_system(target, gens, convex=False)
    return lp_feasible(system)


def convex_member(point, vertices) -> FeasibilityResult:
    """Convex-combination membership; like cone_member plus weight sum one."""
    target = qvec(point)
    gens = [qvec(g) for g in vertices]
    if not gens:
        raise ValueError("need at least one vertex")
    for g in gens:
        if len(g) != len(target):
            raise ValueError("vertex dimension does not match point")
    system = membership_system(target, gens, convex=True)
    return lp_feasible(system)


def membership_system(target, gens, convex: bool) -> LinearSystem:
    """The LP of target = sum_i w_i gens[i] over nonnegative weights w.

    Variables are the weights, in generator order. Rows, in the order a
    certificate's multipliers follow: one equality per coordinate of
    target, then sum_i w_i == 1 when convex, then w_i >= 0 for each i in
    generator order. Every nonnegative-weight LP in the package (cone
    and convex membership, local hidden states, separability) is built
    here.
    """
    k = len(gens)
    equalities = list(zip(zip(*gens), target, strict=True))
    if convex:
        equalities.append(((ONE,) * k, ONE))
    inequalities = []
    for i in range(k):
        row = [ZERO] * k
        row[i] = ONE
        inequalities.append((tuple(row), ZERO))
    return LinearSystem(k, tuple(equalities), tuple(inequalities))
