"""Joint measurability of finite observable families.

A family is jointly measurable when a single mother observable over
outcome tuples has every family member as a marginal: the mother's
effects are nonnegative on all states, sum to the unit effect, and
summing them over all tuple slots but one reproduces the kept axis.
Existence of such a mother is a rational LP; infeasibility comes with a
Farkas certificate and feasibility with the mother itself, so either
verdict can be re-checked by substitution.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

from .exactlp import INFEASIBLE, LinearSystem, lp_feasible, refutes
from .kernel import (Effect, Observable, StateSpace, depolarize_observable,
                     is_valid_effect, is_valid_observable, mother_outcome_tuples)
from .ratio import ONE, ZERO, Rational, as_ratio
from .vecs import vadd, vzero

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
        total = vzero(space.ambient_dim)
        for e in self.effects:
            total = vadd(total, e.coeffs)
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

    Variables: mother effect coefficients, tuple-major then coordinate.
    Equalities: unit-sum rows (one per coordinate), then for each axis in
    order, for each of its outcomes in order, the marginal rows (one per
    coordinate). Inequalities: for each tuple in axis-major order, for
    each vertex in order, nonnegativity of the tuple effect on it.
    Certificates align with this order, equalities first.
    """
    _check_family(observables, space)
    dim = space.ambient_dim
    tuples = mother_outcome_tuples(observables)
    nvars = len(tuples) * dim

    def var(tuple_index: int, coord: int) -> int:
        return tuple_index * dim + coord

    equalities = []
    unit = space.unit.coeffs
    for coord in range(dim):
        row = [ZERO] * nvars
        for t in range(len(tuples)):
            row[var(t, coord)] = ONE
        equalities.append((tuple(row), unit[coord]))
    for axis_index, axis in enumerate(observables):
        for outcome, effect in axis.items():
            for coord in range(dim):
                row = [ZERO] * nvars
                for t, combo in enumerate(tuples):
                    if combo[axis_index] == outcome:
                        row[var(t, coord)] = ONE
                equalities.append((tuple(row), effect.coeffs[coord]))
    inequalities = []
    for t in range(len(tuples)):
        for v in space.vertices:
            row = [ZERO] * nvars
            for coord in range(dim):
                row[var(t, coord)] = v[coord]
            inequalities.append((tuple(row), ZERO))
    return LinearSystem(nvars, tuple(equalities), tuple(inequalities))


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
    mother.validate()
    return JmResult(JOINTLY_MEASURABLE, mother=mother)


def marginalize_mother(mother: MotherObservable, axis_index: int) -> Observable:
    """Sum mother effects over all tuple slots except the kept axis."""
    if not 0 <= axis_index < len(mother.axes):
        raise ValueError(f"no axis {axis_index} in a {len(mother.axes)}-axis mother")
    axis = mother.axes[axis_index]
    dim = mother.space.ambient_dim
    sums = {outcome: vzero(dim) for outcome in axis.outcomes}
    for combo, effect in mother.items():
        sums[combo[axis_index]] = vadd(sums[combo[axis_index]], effect.coeffs)
    return Observable(axis.label, mother.space, axis.outcomes,
                      tuple(Effect(sums[o]) for o in axis.outcomes))


def verify_incompatibility_certificate(observables: Sequence[Observable],
                                       space: StateSpace, certificate) -> bool:
    """Re-check a Farkas certificate against the rebuilt JM system."""
    return refutes(jm_linear_system(observables, space), certificate)


def jm_noise_threshold(observables: Sequence[Observable], space: StateSpace,
                       precision) -> tuple[Rational, Rational]:
    """Bisection bracket (lo, hi) for the critical depolarizing level.

    The family is jointly measurable at lo and not at hi, with
    hi - lo <= precision; a family that is compatible even sharp returns
    (1, 1). Level 0 replaces every effect by a multiple of the unit, so
    compatibility there is automatic and the lower endpoint starts at 0
    without probing.
    """
    eps = as_ratio(precision)
    if eps <= 0:
        raise ValueError("precision must be positive")
    _check_family(observables, space)

    def compatible_at(level) -> bool:
        noisy = [depolarize_observable(obs, level) for obs in observables]
        return check_joint_measurability(noisy, space).jointly_measurable

    return _bisect_level(compatible_at, eps)


def _bisect_level(holds_at, precision) -> tuple[Rational, Rational]:
    """Bracket (lo, hi) of the depolarizing level where holds_at turns false.

    holds_at is never asked about level 0, where it is taken to hold;
    (1, 1) comes back when it holds at level 1. Otherwise it holds at lo
    and fails at hi, with hi - lo <= precision.
    """
    if holds_at(ONE):
        return (ONE, ONE)
    lo, hi = ZERO, ONE
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if holds_at(mid):
            lo = mid
        else:
            hi = mid
        log.debug("noise threshold bracket [%s, %s]", lo, hi)
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
