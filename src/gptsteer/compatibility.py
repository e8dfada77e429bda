"""Joint measurability of finite observable families.

A family is jointly measurable when a single mother observable over
outcome tuples has every family member as a marginal: the mother's
effects are nonnegative on all states, sum to the unit effect, and
summing them over all tuple slots but one reproduces the kept axis.
Existence of such a mother is a rational LP; infeasibility comes with a
Farkas certificate and feasibility with the mother itself, so either
verdict can be re-checked by substitution.

Depolarizing noise keeps every coefficient row and moves only the
equalities' right-hand side, affinely, so the critical visibility, the
largest level at which the noisy family is still jointly measurable, is
the optimum of one LP over the mother and the level, built from the sharp
system and the level-0 right-hand side (``_critical_level``, shared with
the steering side).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import VerificationError
from .exactlp import (INFEASIBLE, OPTIMAL, LinearSystem, coordinate_rows, lp_feasible,
                      lp_optimize, refutes)
from .kernel import (Effect, Observable, StateSpace, _check_lp_size, _index_tuples, _lp_shape,
                     _slot_stack, depolarize_observable, is_valid_effect, is_valid_observable,
                     mother_outcome_tuples)
from .ratio import ONE, ZERO, Rational, as_ratio
from .vecs import combine

log = logging.getLogger(__name__)

JOINTLY_MEASURABLE = "jointly_measurable"
INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class MotherObservable:
    """Observable over outcome tuples whose marginals are the given axes."""

    axes: tuple[Observable, ...]
    outcome_tuples: tuple[tuple[str, ...], ...]
    effects: tuple[Effect, ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("a mother observable needs at least one axis")
        if len(self.outcome_tuples) != len(self.effects):
            raise ValueError("outcome tuples and effects differ in length")

    @property
    def space(self) -> StateSpace:
        return self.axes[0].space

    def effect(self, outcome_tuple: tuple[str, ...]) -> Effect:
        return self.effects[self.outcome_tuples.index(tuple(outcome_tuple))]

    def items(self):
        return zip(self.outcome_tuples, self.effects)

    def validate(self):
        """Raise ValueError unless all mother invariants hold exactly."""
        space = self.space
        expected = mother_outcome_tuples(self.axes)
        if self.outcome_tuples != expected:
            raise ValueError("outcome tuples must be the axis-major product of axis outcomes")
        for e in self.effects:
            if not is_valid_effect(e, space):
                raise ValueError("mother effect outside the effect polytope")
        total = combine([ONE] * len(self.effects), [e.coeffs for e in self.effects])
        if total != space.unit.coeffs:
            raise ValueError("mother effects do not sum to the unit effect")
        for axis_index, axis in enumerate(self.axes):
            recovered = marginalize_mother(self, axis_index)
            for outcome, effect in axis.items():
                if recovered.effect(outcome).coeffs != effect.coeffs:
                    raise ValueError(
                        f"marginal over axis {axis_index} does not reproduce {axis.label!r}")


@dataclass(frozen=True)
class JmResult:
    status: str  # JOINTLY_MEASURABLE | INCOMPATIBLE
    mother: MotherObservable | None = None
    certificate: tuple[Rational, ...] | None = None

    @property
    def jointly_measurable(self) -> bool:
        return self.status == JOINTLY_MEASURABLE


def _check_family(observables: Sequence[Observable], space: StateSpace):
    if not observables:
        raise ValueError("need at least one observable")
    for obs in observables:
        if obs.space != space:
            raise ValueError(f"observable {obs.label!r} lives on a different space")
        if not is_valid_observable(obs):
            raise ValueError(f"observable {obs.label!r} is not valid")


def jm_linear_system(observables: Sequence[Observable], space: StateSpace) -> LinearSystem:
    """The joint-measurability LP, with a documented fixed row order.

    Variables: mother effect coefficients, tuple-major (in
    ``mother_outcome_tuples`` order) then coordinate. Equalities: unit-sum
    rows (one per coordinate), then for each axis, for each of its
    outcomes, the marginal rows (one per coordinate); the column of tuple
    t, coordinate c is e_c, then e_c in slot (x, t[x]) of every axis x
    (``kernel._slot_stack``). Inequalities: for each tuple, for each
    vertex, nonnegativity of the tuple effect on it, that is the vertex in
    the tuple's block. Certificates align with this order, equalities first.
    A family past ``kernel.LP_SIZE_CAP`` raises ValueError.

    The rows depend only on the space and the outcome counts: they are
    built once per shape and kept in ``space.lp_shapes`` (``_jm_shape``),
    and each call builds only the target.
    """
    _check_family(observables, space)
    outcomes = [obs.outcomes for obs in observables]
    _check_lp_size(outcomes, space)
    return _lp_shape(space, "jm", outcomes, _jm_shape).with_rhs(_jm_target(observables, space))


def _jm_shape(space: StateSpace, outcomes) -> LinearSystem:
    """The JM LP for these outcome counts at target 0, rows in
    jm_linear_system's order."""
    dim = space.ambient_dim
    tuples = _index_tuples(outcomes)
    units = [(0,) * c + (1,) + (0,) * (dim - 1 - c) for c in range(dim)]
    rows = coordinate_rows([(e_c + _slot_stack(t, e_c, outcomes), 1)
                            for t in tuples for e_c in units])
    # G_t . v >= 0 per tuple t and vertex v, written from the vertices'
    # integer rows: G_t's coefficients are columns t dim to t dim + dim - 1
    inequalities = [({t * dim + c: x for c, x in enumerate(ints) if x}, 0, den)
                    for t in range(len(tuples)) for ints, den in space.vertex_rows]
    return LinearSystem.from_integer_rows(len(tuples) * dim, len(rows), (*rows, *inequalities))


def _jm_target(observables: Sequence[Observable], space: StateSpace) -> tuple[Rational, ...]:
    """The JM equalities' right-hand side: the unit, then each effect."""
    return space.unit.coeffs + tuple([c for obs in observables
                                      for e in obs.effects for c in e.coeffs])


def check_joint_measurability(observables: Sequence[Observable],
                              space: StateSpace) -> JmResult:
    """Decide joint measurability; both verdicts carry checkable evidence."""
    observables = tuple(observables)
    system = jm_linear_system(observables, space)
    outcome = lp_feasible(system)
    if outcome.status == INFEASIBLE:
        log.debug("JM LP infeasible for %s", [o.label for o in observables])
        return JmResult(INCOMPATIBLE, certificate=outcome.certificate)
    dim = space.ambient_dim
    tuples = mother_outcome_tuples(observables)
    effects = tuple(Effect(outcome.witness[t * dim:(t + 1) * dim])
                    for t in range(len(tuples)))
    mother = MotherObservable(observables, tuples, effects)
    try:
        mother.validate()
    except ValueError as err:
        raise VerificationError(f"JM witness fails its audit: {err}") from err
    return JmResult(JOINTLY_MEASURABLE, mother=mother)


def marginalize_mother(mother: MotherObservable, axis_index: int) -> Observable:
    """Sum mother effects over all tuple slots except the kept axis."""
    if not 0 <= axis_index < len(mother.axes):
        raise ValueError(f"no axis {axis_index} in a {len(mother.axes)}-axis mother")
    axis = mother.axes[axis_index]
    return Observable(axis.label, mother.space, axis.outcomes, _marginal_effects(
        mother.outcome_tuples, [e.coeffs for e in mother.effects], axis_index, axis.outcomes))


def _marginal_effects(tuples, coeffs, x: int, outcomes) -> tuple[Effect, ...]:
    """For each outcome o of setting x, the sum of coeffs[i] over the
    tuples[i] whose entry x is o."""
    return tuple(Effect(combine([ONE if t[x] == o else ZERO for t in tuples], coeffs))
                 for o in outcomes)


def verify_incompatibility_certificate(observables: Sequence[Observable],
                                       space: StateSpace, certificate) -> bool:
    """Re-check a Farkas certificate against the rebuilt JM system."""
    return refutes(jm_linear_system(observables, space), certificate)


def jm_critical_visibility(observables: Sequence[Observable], space: StateSpace) -> Rational:
    """The largest depolarizing level at which the family is jointly measurable.

    Exact, from one LP (``_critical_level``); 1 for a family that is
    jointly measurable even sharp. One JM build validates the family.
    """
    system = jm_linear_system(observables, space)
    noise = [depolarize_observable(o, ZERO) for o in observables]
    return _critical_level(system, _jm_target(noise, space))


def jm_noise_threshold(observables: Sequence[Observable], space: StateSpace,
                       precision) -> tuple[Rational, Rational]:
    """Dyadic bracket (lo, hi) around the critical depolarizing level.

    The family is jointly measurable at lo and not at hi, with
    hi - lo <= precision; a family that is compatible even sharp returns
    (1, 1). The bracket is the one bisection from [0, 1] would reach, but
    it comes from the exact critical visibility by arithmetic alone, not
    from an LP per probed level (``_level_bracket``).
    """
    eps = _positive_precision(precision)
    return _level_bracket(jm_critical_visibility(observables, space), eps, "JM")


def _positive_precision(precision) -> Rational:
    """The bracket width as a rational; ValueError unless it is positive."""
    eps = as_ratio(precision)
    if eps <= ZERO:
        raise ValueError("precision must be positive")
    return eps


def _critical_level(sharp: LinearSystem, rhs_at_zero: Sequence[Rational]) -> Rational:
    """Largest level in [0, 1] at which the depolarized system is feasible.

    sharp is the system at level 1 and rhs_at_zero its equalities'
    right-hand side at level 0. Depolarizing moves nothing else: the
    coefficient rows depend only on the space and the outcome lists, and
    every inequality's right-hand side is the same at each level. Each
    equality A x == b1 thus holds at level eta as A x == b0 + eta (b1 -
    b0), so it becomes A x + eta (b0 - b1) == b0 over (x, eta); each
    inequality gets a zero in the eta column; eta >= 0 and -eta >= -1
    are appended. One lp_optimize maximizes eta; it audits the optimal
    point and the dual multipliers that bound eta from above. Level 0
    is always feasible, so the feasible levels form the interval
    [0, optimum].

    The integer rows come from the sharp system's, in ints. Equality
    (coeffs, b1, den) with b0 = p / q becomes coeffs times L / den, rhs
    p L / q and eta entry that minus b1 L / den, over L = lcm(den, q):
    b1's denominator divides lcm(q, (b0 - b1)'s), so L is the lcm of the
    new row's denominators, as integer_rows reads it. The inequalities'
    rows are the sharp ones, shared.
    """
    n, n_eq = sharp.variable_count, sharp.n_eq
    int_rows = []
    for (coeffs, b1, den), b0 in zip(sharp.integer_rows[:n_eq], rhs_at_zero, strict=True):
        full = math.lcm(den, b0.denominator)
        scale = full // den
        row = {j: c * scale for j, c in coeffs.items()}
        b = b0.numerator * (full // b0.denominator)
        if b != b1 * scale:
            row[n] = b - b1 * scale
        int_rows.append((row, b, full))
    system = LinearSystem.from_integer_rows(
        n + 1, n_eq, (*int_rows, *sharp.integer_rows[n_eq:], ({n: 1}, 0, 1), ({n: -1}, -1, 1)))
    result = lp_optimize((ZERO,) * n + (ONE,), system, "max")
    if result.status != OPTIMAL:
        raise VerificationError(f"critical-level LP is {result.status}, "
                                "though level 0 is always feasible")
    return result.value


def _level_bracket(critical: Rational, precision: Rational,
                  side: str) -> tuple[Rational, Rational]:
    """The bisection bracket of [0, 1] around a known critical level.

    (1, 1) when critical is 1. Otherwise the bracket a bisection over
    feasibility LPs reaches, since the feasible levels are exactly
    [0, critical]: halving [0, 1] k times, k the least with 2^-k <=
    precision, and keeping mid as lo when mid <= critical, leaves
    lo = floor(critical 2^k) / 2^k and hi = lo + 2^-k, computed so.
    """
    if critical == ONE:
        lo = hi = ONE
    else:
        # 2^k = 1 << (ceil(1 / precision) - 1).bit_length(), in integers
        scale = 1 << ((precision.denominator - 1) // precision.numerator).bit_length()
        steps = critical.numerator * scale // critical.denominator
        lo, hi = as_ratio(steps, scale), as_ratio(steps + 1, scale)
    log.debug("%s noise threshold: critical level %s, bracket [%s, %s]",
              side, critical, lo, hi)
    return (lo, hi)


def subset_jm_scan(observables: Sequence[Observable],
                   space: StateSpace) -> dict[tuple[int, ...], str]:
    """JM status of every nonempty subset, for families of up to 4.

    The guard exists because tuple counts grow exponentially; larger
    families should be probed subset by subset deliberately.
    """
    observables = tuple(observables)
    if len(observables) > 4:
        raise ValueError("subset scan is limited to at most 4 observables")
    _check_family(observables, space)
    report: dict[tuple[int, ...], str] = {}
    for size in range(1, len(observables) + 1):
        for subset in itertools.combinations(range(len(observables)), size):
            family = tuple(observables[i] for i in subset)
            report[subset] = check_joint_measurability(family, space).status
    return report
