"""Exact rational linear programming and polytope vertex enumeration.

Feasibility and optimization run a two-phase primal simplex, exact and
with Bland's smallest-index pivot rule, so every run terminates and
identical inputs give identical answers. A ``LinearSystem`` stores only
sparse primitive integer rows (``LinearSystem.integer_rows``), and that
one form builds the tableau, finds the bound rows and runs the
substitution checks. Rational rows handed to the public constructor are
read into it once, when the system is built, by ``_read_rows``, the read
that defines the form; the rational rows a caller asks for are read back
from the ints by c / den. Every package builder writes its integer rows
from integer rows, the vertices' and generators' (ints, den), and none
calls the read. ``coordinate_rows`` is the one step that writes the
coordinate rows of a weighted sum of generators: the equalities of the
membership, LHS and separability LPs (all ``membership_shape``), of the
JM LP and of the conditioning LP. A system whose equalities have
right-hand side 0 is the shape of a family of LPs that differ only in
that right-hand side, the target, and ``with_rhs`` builds each member
in ints with one lcm per equality. The critical-level LP derives its
rows from the sharp system's in ints. The tests compare every
integer-built system with the read of rational rows written
independently. No reader ever changes the integer rows, which systems of
one shape share. The tableau is fraction-free and sparse: each row
a dict of its nonzero ints over one positive denominator, pivoted by
``vecs.pivot``, the Gauss-Jordan step of ``vecs`` elimination too. It
has two row stores, picked by the system's shape alone. Below
WIDE_RATIO structural columns per tableau row, the full tableau stores
every entry of every row. From WIDE_RATIO on, the basis-inverse store
(a revised simplex) keeps of each row only its multipliers over the
initial integer rows and its rhs, and computes an entry from the
column-major initial rows when Bland's rule reads it. Both make the
same pivots and give the same results.
Rationals are built only where values leave the tableau: the witness
or optimal point, the multipliers and the optimum.
A row x_j >= 0 is a bound on column j, not a tableau row of its own,
and only variables without one are split into two nonnegative parts,
x+ stored and x- read as its negation, never stored.
Infeasible systems always come back with a Farkas certificate that
re-verifies by substitution, with a multiplier for every row, bound
rows included; feasible ones carry an exact witness point. Optimal
results carry the optimal point and an optimality certificate, dual
multipliers that are checked by substitution before the result is
returned (``certifies_optimum``). The checks substitute in integers and
are exact.
Vertex enumeration is an exact double description over primitive
integer rays, started by one elimination and one solve. Rows of rank
below the dimension never reach it: one feasibility LP answers them.
A full-rank system whose rays could pass RAY_CAP is refused up front.

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
from functools import cached_property

from .errors import UnboundedRegionError, VerificationError
from .ratio import ONE, ZERO, Rational, as_ratio
from .vecs import (_primitive_ray, combine, dot, independent_rows, pivot, primitive_row, qvec,
                   solve_unique, sparse_row)

log = logging.getLogger(__name__)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

Row = tuple[tuple[Rational, ...], Rational]

# vertex_enumerate refuses full-rank systems whose double description could
# hold more rays than this, rather than run for hours.
RAY_CAP = 10 ** 5


def _read_rows(rows) -> tuple[tuple[dict[int, int], int, int], ...]:
    """The integer rows of rational rows (coeffs, rhs), in order: the read
    that defines ``LinearSystem.integer_rows``."""
    read = []
    for coeffs, b in rows:
        # ZERO pads most rows, so it is skipped by identity first
        nonzero = [(j, c) for j, c in enumerate(coeffs) if c is not ZERO and c]
        den = math.lcm(b.denominator, *[c.denominator for _, c in nonzero])
        read.append(({j: c.numerator * (den // c.denominator) for j, c in nonzero},
                     b.numerator * (den // b.denominator), den))
    return tuple(read)


class LinearSystem:
    """Equalities (coeffs . x == rhs) and inequalities (coeffs . x >= rhs).

    A system stores its rows in one form, ``integer_rows``: every row,
    equalities then inequalities, as (coeffs, rhs, den), standing for
    coeffs . x (==, >=) rhs over den > 0, with coeffs the nonzero ints by
    column and den the lcm of the row's denominators, so
    math.gcd(den, rhs, *coeffs.values()) == 1. The form is canonical: two
    rational rows are equal exactly when their integer rows are. The
    tableau, the bound rows and the substitution checks all read this
    form, never the rationals. ``LinearSystem(n, equalities,
    inequalities)`` reads its rational rows into it once, when it is
    built (``_read_rows``); ``from_integer_rows`` checks and stores the
    integer rows it is given. ``equalities`` and ``inequalities`` are the
    rational rows read back from the ints, as c / den, on first access.
    The equality count n_eq and row_count are stored beside the rows. The
    coefficient dicts may be shared between systems, so nothing that
    reads them ever changes them.

    A system whose equalities have right-hand side 0 is the shape of the
    family of systems that differ from it only there: ``with_rhs(target)``
    builds each of them in ints. Two systems are equal when they have the
    same variable count, n_eq and integer rows. A system is immutable
    and, its rows holding dicts, unhashable.
    """

    def __init__(self, variable_count: int, equalities: tuple[Row, ...] = (),
                 inequalities: tuple[Row, ...] = ()):
        self._hold(variable_count, len(equalities), _read_rows(equalities + inequalities))
        for coeffs, _ in equalities + inequalities:
            if len(coeffs) != variable_count:
                raise ValueError(f"row length {len(coeffs)} != variable_count {variable_count}")

    @classmethod
    def from_integer_rows(cls, variable_count: int, n_eq: int, integer_rows) -> "LinearSystem":
        """The system whose integer_rows are these, the first n_eq of them
        equalities. Each row must be in the read's form: primitive, its
        den the lcm of its entries' denominators. ValueError unless
        0 <= n_eq <= len(integer_rows), every column is in
        range(variable_count), every den is positive and every row is
        primitive, math.gcd(den, rhs, *coeffs.values()) == 1."""
        if not 0 <= n_eq <= len(integer_rows):
            raise ValueError(f"n_eq {n_eq} is not between 0 and the {len(integer_rows)} rows")
        for coeffs, b, den in integer_rows:
            if den < 1 or math.gcd(den, b, *coeffs.values()) > 1 or not all(
                    0 <= j < variable_count for j in coeffs):
                raise ValueError(f"{coeffs}, {b} / {den} is no primitive row over "
                                 f"{variable_count} columns")
        return cls.__new__(cls)._hold(variable_count, n_eq, integer_rows)

    def _hold(self, variable_count: int, n_eq: int, integer_rows) -> "LinearSystem":
        """Store these rows, unchecked, and return the system."""
        if variable_count < 1:
            raise ValueError("variable_count must be positive")
        vars(self).update(variable_count=variable_count, n_eq=n_eq,
                          row_count=len(integer_rows), integer_rows=integer_rows)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: LinearSystem is immutable")

    def __eq__(self, other):
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return ((self.variable_count, self.n_eq, self.integer_rows)
                == (other.variable_count, other.n_eq, other.integer_rows))

    def __repr__(self) -> str:
        return (f"LinearSystem({self.variable_count} variables, {self.n_eq} equalities, "
                f"{self.row_count - self.n_eq} inequalities)")

    @classmethod
    def build(cls, variable_count: int, equalities=(), inequalities=()) -> "LinearSystem":
        """Construct with coercion of all entries to exact rationals."""
        eq = tuple((qvec(c), as_ratio(b)) for c, b in equalities)
        ineq = tuple((qvec(c), as_ratio(b)) for c, b in inequalities)
        return cls(variable_count, eq, ineq)

    def with_rhs(self, target) -> "LinearSystem":
        """This system with target as its equalities' right-hand side,
        built in ints; the inequality rows are shared, not checked again.

        Equality i is c . x == r over den. When r is 0, den is the lcm of
        the coefficients' denominators alone; a row with r nonzero is
        first divided by gcd(den, *c), which makes it so. With target[i]
        = p / q in lowest terms, the read of the new row is c times L /
        den and p times L / q over L = lcm(den, q), the lcm of all its
        denominators, so the row is primitive as the read's: one lcm per
        equality gives its integer row. When r is 0 and q divides den,
        the coefficient dict itself is shared.
        """
        rows = []
        for (coeffs, b, den), t in zip(self.integer_rows[:self.n_eq], target, strict=True):
            if b:
                g = math.gcd(den, *coeffs.values())
                coeffs, den = {j: c // g for j, c in coeffs.items()}, den // g
            full = math.lcm(den, t.denominator)
            if full != den:
                scale = full // den
                coeffs = {j: c * scale for j, c in coeffs.items()}
            rows.append((coeffs, t.numerator * (full // t.denominator), full))
        return LinearSystem.__new__(LinearSystem)._hold(
            self.variable_count, self.n_eq, (*rows, *self.integer_rows[self.n_eq:]))

    @cached_property
    def equalities(self) -> tuple[Row, ...]:
        """The equality rows as rationals, read back from the integer rows."""
        return self._rational_rows(self.integer_rows[:self.n_eq])

    @cached_property
    def inequalities(self) -> tuple[Row, ...]:
        """The inequality rows as rationals, read as the equalities are."""
        return self._rational_rows(self.integer_rows[self.n_eq:])

    def _rational_rows(self, integer_rows) -> tuple[Row, ...]:
        rows = []
        for coeffs, b, den in integer_rows:
            row = [ZERO] * self.variable_count
            for j, c in coeffs.items():
                row[j] = as_ratio(c, den)
            rows.append((tuple(row), as_ratio(b, den)))
        return tuple(rows)


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
    """Exact substitution check of a candidate point, in integers: with
    the point as ints P over one denominator D, each row's coeffs . P
    against rhs * D."""
    p = qvec(point)
    if len(p) != system.variable_count:
        return False
    ints, den = primitive_row(p)
    excess = [sum([c * ints[j] for j, c in coeffs.items()]) - rhs * den
              for coeffs, rhs, _ in system.integer_rows]
    return not any(excess[:system.n_eq]) and all(x >= 0 for x in excess[system.n_eq:])


def _combination(system: LinearSystem, mults) -> tuple[dict[int, int], int, int] | None:
    """The rows summed with the multipliers, in integers: (coeffs, rhs,
    den), the nonzero combined coefficients by column and the combined
    right-hand side, both over den > 0. None when the multipliers do not
    fit: a wrong count, or a negative one on an inequality row."""
    rows = system.integer_rows
    if len(mults) != len(rows) or any(m < 0 for m in mults[system.n_eq:]):
        return None
    n = system.variable_count  # the rhs's key, past every column
    coeffs, den = _weighted_sum([(m.numerator, {**row, n: b}, m.denominator * d)
                                 for m, (row, b, d) in zip(mults, rows) if m])
    return coeffs, coeffs.pop(n, 0), den


def _weighted_sum(terms) -> tuple[dict[int, int], int]:
    """The sum of w * row / d over the (w, row, d) terms, rows sparse int
    dicts, w and d ints, d > 0: (total, den), the total's nonzero ints by
    key over den, the least common multiple of the d."""
    den = math.lcm(*[d for _, _, d in terms])
    total: dict[int, int] = {}
    for w, row, d in terms:
        f = w * (den // d)
        for j, x in row.items():
            total[j] = total.get(j, 0) + f * x
    return {j: x for j, x in total.items() if x}, den


def refutes(system: LinearSystem, certificate) -> bool:
    """Exact substitution check of a Farkas certificate.

    Multipliers follow row order (equalities then inequalities); the
    inequality part must be nonnegative, the combined coefficient vector
    must vanish and the combined right-hand side must be positive.
    """
    combination = _combination(system, qvec(certificate))
    if combination is None:
        return False
    coeffs, rhs, _ = combination
    return not coeffs and rhs > 0


def _sense_sign(sense: str) -> int:
    """-1 to maximize (the simplex minimizes -objective), 1 to minimize."""
    if sense == "max":
        return -1
    if sense == "min":
        return 1
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
    obj = qvec(objective)
    if combination is None or len(obj) != system.variable_count:
        return False
    coeffs, rhs, den = combination
    ints, obj_den = primitive_row(obj)
    value = as_ratio(value)
    # coeffs / den == sign * ints / obj_den and rhs / den == sign * value
    return ({j: c * obj_den for j, c in coeffs.items()}
            == {j: sign * den * x for j, x in enumerate(ints) if x}
            and rhs * value.denominator == sign * den * value.numerator)


# ---------------------------------------------------------------------------
# Simplex core. Standard form: a bound row x_j >= 0 (coefficient exactly 1
# at j, 0 elsewhere, rhs 0; the first such row for each j) makes column j a
# nonnegative column and gets neither a slack nor a tableau row. Every other
# variable is split x = xp - xm, every other inequality gets a slack, rows
# are flipped to nonnegative rhs, and rows that still lack a basic column get
# an artificial variable for phase one. Columns run x (xp for split ones),
# xm, slacks, artificials, then the rhs. The artificial columns stay after
# phase one, never entering again: with the ready-made slacks they are the
# unit columns that row multipliers are read off.
#
# The tableau is fraction-free, as in lrs (Avis 2000; Edmonds 1967), and
# sparse: each row, the objective row too, is a dict of its nonzero ints
# over one positive denominator, kept primitive, built from the system's
# integer_rows, and a pivot is one vecs.pivot over rows + objective. An xm
# column is numbered but never stored: it is always -xp, so the entering
# scan reads its reduced cost as -(xp's), the ratio test negates xp's
# column, and a pivot on it is the pivot on xp followed by negating the
# pivot row. Bland's entering rule reads only signs, and the ratio test
# compares rhs_i a_k with rhs_k a_i; both are invariant under positive row
# scaling, so the pivots are those of the same simplex over rationals.
# Values become rationals only where they leave the tableau: the point
# (extract_point), the multipliers and the optimum.
#
# Two row stores hold the same rational rows. The full tableau (_Tableau)
# keys each row by column. The basis-inverse store (_BasisInverseTableau,
# the revised simplex of Dantzig & Orchard-Hays 1954) keys each row by the
# initial integer rows: its multipliers over them, a row of the basis
# inverse, and its rhs; an entry is computed from the column-major initial
# rows only when Bland's rule reads it. A pivot costs the full tableau
# about rows x columns and the basis-inverse store rows x rows plus the
# entering column, so _tableau picks the second for systems with at least
# WIDE_RATIO structural columns per row. Phases, pivot rules, drive-out,
# multipliers and the point are one definition for both.

# Structural columns per tableau row from which the basis-inverse store
# solves a system. Measured per LP on a 2-core machine, Python 3.11: the
# separability LPs of polygon-5 to 8 (2.5 to 6.4 columns per row) ran x1.3
# to x2.6 faster on it, the gbit JM, LHS and separability LPs (1.3 to 1.6)
# x0.56 to x0.76 as fast.
WIDE_RATIO = 2


def _bound_rows(system: LinearSystem) -> dict[int, int]:
    """Column j -> index among the inequalities of its first row x_j >= 0."""
    bounds: dict[int, int] = {}
    for i, (coeffs, b, den) in enumerate(system.integer_rows[system.n_eq:]):
        # primitive, so a coefficient c / den of exactly 1 has c == den == 1
        if b == 0 and den == 1 and len(coeffs) == 1:
            (j, c), = coeffs.items()
            if c == 1:
                bounds.setdefault(j, i)
    return bounds


class _Tableau:
    """The full tableau: row i holds its entry in column j at key j."""

    store = "full"

    def __init__(self, system: LinearSystem, bound_row: dict[int, int] | None = None):
        n, n_eq = system.variable_count, system.n_eq
        self.system = system
        self.n = n
        self.bound_row = _bound_rows(system) if bound_row is None else bound_row
        bound_ineq = set(self.bound_row.values())
        free = [j for j in range(n) if j not in self.bound_row]
        # The xm column of free variable j, and back; xm columns hold no entry.
        self.minus_col = {j: n + k for k, j in enumerate(free)}
        self.plus_col = {m: j for j, m in self.minus_col.items()}
        kept = [i for i in range(system.row_count - n_eq) if i not in bound_ineq]
        self.struct_cols = n + len(free) + len(kept)
        # Row i stands for rows[i].get(j, 0) / dens[i]; the objective row of
        # the phase that runs for obj.get(j, 0) / obj_den. cost holds the
        # phase's costs by column, as ints over the denominator they came with.
        self.rows: list[dict[int, int]] = []
        self.dens: list[int] = []
        self.obj: dict[int, int] = {}
        self.obj_den = 1
        self.cost: dict[int, int] = {}
        # Per initial row, kept when redundant rows are dropped: its index in
        # system row order, its sign flip, and its unit column (artificial,
        # or the slack when that is a ready-made basis column).
        self.origin: list[int] = []
        self.flip: list[int] = []
        self.unit_col: list[int] = []
        self.pivots = 0

        int_rows = system.integer_rows
        all_rows = [(*int_rows[r], r, None) for r in range(n_eq)]
        all_rows += [(*int_rows[n_eq + i], n_eq + i, n + len(free) + k)
                     for k, i in enumerate(kept)]
        # Each row is flipped to a nonnegative rhs. Flipping an inequality
        # row turns its slack coefficient to +1, making the slack a
        # ready-made basis column, so an inequality with b <= 0 flips and
        # keeps its slack; every other row takes the next artificial.
        ready = [slack is not None and b <= 0 for _, b, _, _, slack in all_rows]
        self.total_cols = self.struct_cols + ready.count(False)
        self.rhs = self.total_cols  # the rhs column
        artificials = iter(range(self.struct_cols, self.total_cols))
        for (coeffs, b, den, origin, slack), is_ready in zip(all_rows, ready):
            row = dict(coeffs)
            if b:
                row[self.rhs] = b
            if slack is not None:
                row[slack] = -den
            if b < 0 or is_ready:
                for j, x in row.items():
                    row[j] = -x
                sign = -1
            else:
                sign = 1
            col = slack if is_ready else next(artificials)
            row[col] = den
            self.rows.append(row)
            self.dens.append(den)
            self.origin.append(origin)
            self.flip.append(sign)
            self.unit_col.append(col)
        self.row_count = len(self.rows)
        self.basis: list[int] = list(self.unit_col)

    # -- the store: reading entries and pivoting ------------------------------

    def _entry(self, row: dict[int, int], j: int) -> int:
        """A row's (or the objective row's) entry in column j, not an xm
        column, over the row's denominator."""
        return row.get(j, 0)

    def _column(self, c: int) -> list[int]:
        """Column c's entries, row by row, each over its row's denominator."""
        plus = self.plus_col.get(c)
        if plus is None:
            return [row.get(c, 0) for row in self.rows]
        return [-row.get(plus, 0) for row in self.rows]

    def _entering(self, allowed_cols: int) -> int | None:
        """The smallest column below allowed_cols with a negative reduced
        cost, None if there is none; xm's is -xp's."""
        minus = self.minus_col
        enter = min([j if v < 0 else minus.get(j, allowed_cols) for j, v in self.obj.items()],
                    default=allowed_cols)
        return enter if enter < allowed_cols else None

    def _cost_row(self, cost: dict[int, int]) -> dict[int, int]:
        """The objective row of the costs, before pricing out."""
        return cost

    def _pivot(self, r: int, c: int):
        """One vecs.pivot over the rows and the objective row; on an xm
        column, xp's pivot with row r negated after."""
        plus = self.plus_col.get(c)
        dens = self.dens + [self.obj_den]
        pivot(self.rows + [self.obj], dens, r, c if plus is None else plus)
        *self.dens, self.obj_den = dens
        if plus is not None:
            row = self.rows[r]
            for j, x in row.items():
                row[j] = -x

    # -- pivoting ----------------------------------------------------------

    def step(self, r: int, c: int):
        self._pivot(r, c)
        self.basis[r] = c
        self.pivots += 1

    def _start_phase(self, cost: dict[int, int], cost_den: int):
        """Make cost / cost_den, the nonzero entries by column and a zero
        rhs, the objective row, priced out in one weighted sum: the costs
        minus each row times its basic column's cost, the row's basic
        entry being one. The result is kept primitive, as a pivot keeps it."""
        self.cost = cost
        terms = [(1, self._cost_row(cost), cost_den)]
        for row, den, b in zip(self.rows, self.dens, self.basis):
            plus = self.plus_col.get(b)
            w = cost.get(b, 0) if plus is None else -cost.get(plus, 0)
            if w:
                terms.append((-w, row, den * cost_den))
        obj, den = _weighted_sum(terms)
        g = math.gcd(den, *obj.values())
        self.obj = {j: x // g for j, x in obj.items()}
        self.obj_den = den // g

    def run_bland(self, allowed_cols: int) -> str:
        """Minimize until no negative reduced cost; returns OPTIMAL|UNBOUNDED."""
        rhs = self.rhs
        while True:
            enter = self._entering(allowed_cols)
            if enter is None:
                return OPTIMAL
            leave = None
            for i, a in enumerate(self._column(enter)):
                if a > 0:
                    # rhs / a against the best rhs / a; denominators cancel
                    b = self.rows[i].get(rhs, 0)
                    if leave is None:
                        leave, best_rhs, best_a = i, b, a
                        continue
                    t, best = b * best_a, best_rhs * a
                    if t < best or (t == best and self.basis[i] < self.basis[leave]):
                        leave, best_rhs, best_a = i, b, a
            if leave is None:
                return UNBOUNDED
            self.step(leave, enter)

    # -- phases ------------------------------------------------------------

    def phase_one(self) -> tuple[Rational, ...] | None:
        """None when feasible, else a Farkas certificate that is checked
        here by substitution (VerificationError if it fails)."""
        self._start_phase({j: 1 for j in range(self.struct_cols, self.total_cols)}, 1)
        if self.run_bland(self.total_cols) != OPTIMAL:
            raise VerificationError("phase one objective is bounded below by zero")
        # The objective row's rhs entry is minus the artificials' total.
        if self.obj.get(self.rhs, 0) < 0:
            certificate = self.multipliers(1)
            if not refutes(self.system, certificate):
                raise VerificationError("Farkas certificate fails substitution")
            return certificate
        self._drive_out_artificials()
        return None

    def _objective_entry(self, j: int) -> Rational:
        return as_ratio(self._entry(self.obj, j), self.obj_den)

    def multipliers(self, art_cost: int) -> tuple[Rational, ...]:
        """Simplex multipliers in system row order, read off reduced costs.

        The unit column of initial row r is e_r, with cost art_cost if it
        is an artificial and 0 if it is a slack, so the row's multiplier is
        that cost minus the column's reduced cost, times the row's flip,
        +1 or -1. Both are read in ints over the objective row's
        denominator, so each row's multiplier is built as one rational.
        The reduced cost of a bounded column j, cost_j - (sum_r m_r
        coeffs_r)_j, is nonnegative at optimality: the multiplier of its
        bound row.
        """
        mults = [ZERO] * self.system.row_count
        obj, obj_den = self.obj, self.obj_den
        art = art_cost * obj_den
        for origin, sign, col in zip(self.origin, self.flip, self.unit_col):
            cost = art if col >= self.struct_cols else 0
            mults[origin] = as_ratio(sign * (cost - self._entry(obj, col)), obj_den)
        for j, i in self.bound_row.items():
            mults[self.system.n_eq + i] = self._objective_entry(j)
        return tuple(mults)

    def _drive_out_artificials(self):
        drop: list[int] = []
        for r, row in enumerate(self.rows):
            if self.basis[r] < self.struct_cols:
                continue
            # an xm column is nonzero only where its xp, a smaller one, is
            col = next((j for j in range(self.struct_cols)
                        if j not in self.plus_col and self._entry(row, j)), None)
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
        self._start_phase(sparse_row(ints), den)
        status = self.run_bland(self.struct_cols)
        if status == UNBOUNDED:
            return UNBOUNDED, None, None
        # The objective row's rhs entry is minus the objective value.
        return OPTIMAL, -as_ratio(self.obj.get(self.rhs, 0), self.obj_den), self.multipliers(0)

    def extract_point(self) -> tuple[Rational, ...]:
        values = [ZERO] * self.struct_cols
        for row, den, b in zip(self.rows, self.dens, self.basis):
            values[b] = as_ratio(row.get(self.rhs, 0), den)  # the basic entry is one
        point = values[:self.n]
        for j, m in self.minus_col.items():
            point[j] -= values[m]
        return tuple(point)

    def log_solve(self, name: str, phase_one_pivots: int):
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s: %s store, %d rows x %d structural columns, %d bounded, "
                      "pivots %d + %d", name, self.store, self.row_count, self.struct_cols,
                      len(self.bound_row), phase_one_pivots, self.pivots - phase_one_pivots)


# Keys of the basis-inverse store besides the initial row indices and the rhs:
# the objective row's multiplier of the cost row, and the entering column
# while a pivot runs.
_COST = -1
_ENTERING = -2


class _BasisInverseTableau(_Tableau):
    """The basis-inverse store: row i holds at key k its multiplier of
    initial integer row k (the k-th unit column's entry over its den_k),
    and its rhs. Its entry in column j is the sum of the multipliers times
    the initial rows' entries in j (columns[j]); the objective row adds its
    multiplier of the cost row (key _COST) times cost_j."""

    store = "basis-inverse"

    def __init__(self, system: LinearSystem, bound_row: dict[int, int] | None = None):
        super().__init__(system, bound_row)
        self.columns: list[list[tuple[int, int]]] = [[] for _ in range(self.total_cols)]
        rows = []
        for k, row in enumerate(self.rows):
            b = row.pop(self.rhs, 0)
            for j, a in row.items():
                self.columns[j].append((k, a))
            # row k over den_k is initial row k times 1 / den_k
            rows.append({k: 1, self.rhs: b} if b else {k: 1})
        self.rows = rows
        self._entering_column: tuple[int, list[int]] | None = None

    def _entry(self, row: dict[int, int], j: int) -> int:
        get = row.get
        return get(_COST, 0) * self.cost.get(j, 0) + sum([get(k, 0) * a
                                                          for k, a in self.columns[j]])

    def _column(self, c: int) -> list[int]:
        """As for the full tableau; the column is kept for the pivot on it."""
        plus = self.plus_col.get(c)
        col = self.columns[c if plus is None else plus]
        values = [sum([row.get(k, 0) * a for k, a in col]) for row in self.rows]
        if plus is not None:
            values = [-x for x in values]
        self._entering_column = (c, values)
        return values

    def _entering(self, allowed_cols: int) -> int | None:
        """The full tableau's choice, scanning columns in index order and
        computing each reduced cost until the first negative one."""
        get, cost, columns, minus = self.obj.get, self.cost.get, self.columns, self.minus_col
        scale = get(_COST, 0)
        first_minus = None
        for j in range(self.n):
            d = scale * cost(j, 0) + sum([get(k, 0) * a for k, a in columns[j]])
            if d < 0:
                return j
            if d > 0 and first_minus is None and j in minus:
                first_minus = minus[j]
        if first_minus is not None:
            return first_minus
        for j in range(self.n + len(minus), allowed_cols):
            if scale * cost(j, 0) + sum([get(k, 0) * a for k, a in columns[j]]) < 0:
                return j
        return None

    def _cost_row(self, cost: dict[int, int]) -> dict[int, int]:
        return {_COST: 1}

    def _pivot(self, r: int, c: int):
        """One vecs.pivot over the rows and the objective row, on column c
        stored under the key _ENTERING while it runs."""
        if self._entering_column is None or self._entering_column[0] != c:
            self._column(c)
        values = self._entering_column[1]
        self._entering_column = None
        for row, a in zip(self.rows, values):
            if a:
                row[_ENTERING] = a
        plus = self.plus_col.get(c)
        d = self._entry(self.obj, c) if plus is None else -self._entry(self.obj, plus)
        if d:
            self.obj[_ENTERING] = d
        dens = self.dens + [self.obj_den]
        pivot(self.rows + [self.obj], dens, r, _ENTERING)
        *self.dens, self.obj_den = dens
        del self.rows[r][_ENTERING]


def _tableau(system: LinearSystem) -> _Tableau:
    """The row store for the system's shape, read before any row is built:
    the basis-inverse store for at least WIDE_RATIO structural columns per
    tableau row, else the full tableau."""
    bound_row = _bound_rows(system)
    rows = system.row_count - len(bound_row)
    kept = rows - system.n_eq
    struct_cols = 2 * system.variable_count - len(bound_row) + kept
    store = _BasisInverseTableau if struct_cols >= WIDE_RATIO * rows else _Tableau
    return store(system, bound_row)


def lp_feasible(system: LinearSystem) -> FeasibilityResult:
    """Decide feasibility; the result always carries its own evidence."""
    tableau = _tableau(system)
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
    tableau = _tableau(system)
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


def vertex_enumerate(system: LinearSystem) -> tuple[tuple[Rational, ...], ...]:
    """All vertices of the polytope described by the system, sorted.

    Exact incremental double description (Motzkin, Raiffa, Thompson &
    Thrall 1953; Fukuda & Prodon, LNCS 1120, 1996) of the homogenized
    cone over y = (t, x): the row t >= 0, each inequality c . x >= b as
    the primitive integer row (-b, c) with (-b, c) . y >= 0, and each
    equality as (-b, c) . y == 0. The vertices are the extreme rays
    with t > 0, read as x / t.

    The starting basis is the first independent rows among the
    equalities, t >= 0 and the inequalities, in that order, from one
    elimination (vecs.independent_rows); every equality outside it is
    implied. The starting rays are the columns of its inverse, from one
    solve (vecs.solve_unique), for its inequality rows. Each remaining
    inequality then keeps the rays on its side and joins each adjacent
    pair across it, p on the positive and q on the negative side, into
    the integer ray (a . p) q - (a . q) p. Rays carry the bitmask of the
    rows they are tight on; a pair is adjacent when no third ray is
    tight on all of their common rows, which must number at least
    D - 2, D the dimension of the equalities' null space.

    Without a nonsingular submatrix the rows have rank below n, and one
    feasibility LP decides, whatever the row count: an empty region
    returns (), a nonempty one contains a line. Otherwise no LP runs. No
    ray with t > 0 means the region is empty, which returns (); any ray
    with t = 0 beside one is a recession ray. Unbounded regions raise
    UnboundedRegionError. A full-rank system whose cones could have more
    rays than RAY_CAP, by McMullen's bound for the inequality rows and
    t >= 0 in D - 1 dimensions, raises ValueError before any row is cut.
    """
    n, n_eq = system.variable_count, system.n_eq
    rows = [[-b] + [coeffs.get(j, 0) for j in range(n)] for coeffs, b, _ in system.integer_rows]
    rows.insert(n_eq, [1] + [0] * n)
    inequalities = rows[n_eq:]
    chosen = independent_rows(rows)
    if len(chosen) <= n:
        if lp_feasible(system).feasible:
            raise UnboundedRegionError("region is nonempty but has no vertex: it contains a line")
        return ()
    dim = n + 1 - sum(i < n_eq for i in chosen)
    bound = _ray_bound(len(inequalities), dim - 1)
    if bound > RAY_CAP:
        raise ValueError(f"vertex enumeration needs up to {bound} rays, "
                         f"more than the cap of {RAY_CAP}")
    bits = [i - n_eq for i in chosen[n + 1 - dim:]]  # the basis's inequality rows
    in_basis = sum(1 << bit for bit in bits)
    identity = [[int(i == k) for k in range(n + 1)] for i in range(n + 1)]
    inverse = solve_unique([rows[i] for i in chosen], identity)
    rays = [_primitive_ray(column) for column in list(zip(*inverse))[n + 1 - dim:]]
    masks = [in_basis ^ (1 << bit) for bit in bits]
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
    generator order. The system is ``membership_shape`` of the
    generators' integer rows, ``with_rhs`` of the target. The cone,
    convex, LHS and separability LPs are all that shape: the LHS LP over
    the (strategy, vertex) generators, the separability LP
    (``composites.separability_system``) over the vertex-pair products.
    """
    target = tuple(target)
    return membership_shape([primitive_row(g) for g in gens], convex).with_rhs(
        target + (ONE,) if convex else target)


def membership_shape(gens, convex: bool) -> LinearSystem:
    """membership_system at target 0, from the generators as integer rows
    (ints, den): the coordinate rows (``coordinate_rows``), the
    weight-sum row when convex, each with rhs 0, and the rows w_i >= 0,
    written down as ({i: 1}, 0, 1)."""
    k = len(gens)
    rows = coordinate_rows(gens)
    if convex:
        rows.append(({i: 1 for i in range(k)}, 0, 1))
    bounds = [({i: 1}, 0, 1) for i in range(k)]
    return LinearSystem.from_integer_rows(k, len(rows), (*rows, *bounds))


def coordinate_rows(gens) -> list[tuple[dict[int, int], int, int]]:
    """The integer rows, rhs 0, of sum_k w_k gens[k] == 0 coordinate by
    coordinate, the generators given as integer rows (ints, den): the
    row of coordinate j is ints_k[j] L / den_k in column k, over L the
    lcm of the dens, divided by its gcd with L. That is the read of the
    rational row, primitive with its den the lcm of its denominators."""
    top = math.lcm(*[d for _, d in gens])
    scales = [top // d for _, d in gens]
    rows = []
    for entries in zip(*[ints for ints, _ in gens]):
        col = list(map(operator.mul, entries, scales))
        g = math.gcd(top, *col)
        rows.append(({k: x // g for k, x in enumerate(col) if x}, 0, top // g))
    return rows
