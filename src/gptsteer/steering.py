"""Steering assemblages, local-hidden-state models, and the equivalence check.

An assemblage records, for every measurement setting x and outcome k,
the subnormalized state Bob holds after Alice announces k; it is
unsteerable when some ensemble of hidden states lambda with response
probabilities p(k|x,lambda) reproduces every element. Deciding that is
a linear feasibility problem once a convexification lemma is applied:
any response table is a mixture of deterministic ones (pick, for each
setting independently, one outcome per hidden state), so it suffices to
search over hidden states labelled by deterministic strategies, and
within each label the state may be any cone combination of vertices.
The LP variables are those vertex weights; infeasibility yields Farkas
multipliers that read directly as a linear steering functional:
positive on the assemblage, nonpositive on everything any local model
can produce.

The two constructive directions of the compatibility correspondence
live here too: a mother observable on Alice's side turns into a local
model for the assemblage it steers, and a local model for the canonical
maximally entangled state's assemblage turns back into a mother
observable by remotely preparing each hidden state.

The layer computes in integers and builds a rational only where a value
leaves it: an assemblage element, a hidden state's weight or state. A
state's matrix is read once as integer rows (``BipartiteState.matrix_rows``)
and each effect, element, hidden state and LP witness as ints over one
denominator (``vecs.primitive_row``); every sum of them is one integer
accumulation, ``vecs.int_combine``. So the conditionals of
``assemblage_from`` and ``jm_to_lhs``, the checks of
``Assemblage.validate``, the hidden states ``check_lhs`` reads off its
witness and the audit ``reconstruct_assemblage`` divide no rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .compatibility import (JmResult, MotherObservable, _check_family, _critical_level,
                            _level_bracket, _marginal_effects, _noise_values,
                            _positive_precision, check_joint_measurability)
from .composites import (BipartiteState, _conditional_ints, canonical_max_entangled,
                         in_max_tensor, marginal, subnormalized_conditional)
from .errors import ConstructionError, NotRemotelyPreparableError, VerificationError
from .exactlp import LinearSystem, coordinate_rows, lp_feasible, membership_shape
from .kernel import (Effect, Observable, State, StateSpace, _effect_rows, _in_cone,
                     _index_tuples, _lp_shape, _slot_stack, in_state_cone, is_valid_state,
                     mother_outcome_tuples)
from .ratio import ONE, ZERO, Rational, as_ratio
from .sampler import SamplerConfig, make_rng, random_max_tensor_state, random_observable_set
from .vecs import combine, dot, int_combine, primitive_row, qvec, ratio_row

UNSTEERABLE = "unsteerable"
STEERABLE = "steerable"


def _unique_labels(labels) -> tuple[str, ...]:
    """The labels, each repeat of an earlier one renamed label#n, n the
    least from its repeat count on whose name no label has taken, so the
    names are distinct and a label that does not repeat keeps its name."""
    labels = list(labels)
    taken = set(labels)
    seen: dict[str, int] = {}
    out = []
    for label in labels:
        n = seen.get(label, 0)
        seen[label] = n + 1
        if n:
            while f"{label}#{n}" in taken:
                n += 1
            taken.add(f"{label}#{n}")
            label = f"{label}#{n}"
        out.append(label)
    return tuple(out)


@dataclass(frozen=True)
class Assemblage:
    """Subnormalized conditional states, indexed by setting then outcome.

    elements[x][k] is a coordinate vector in Bob's ambient space whose
    first coordinate is the probability of outcome k under setting x.
    """

    space: StateSpace
    settings: tuple[str, ...]
    outcomes: tuple[tuple[str, ...], ...]
    elements: tuple[tuple[tuple[Rational, ...], ...], ...]

    def __post_init__(self):
        settings = tuple(str(s) for s in self.settings)
        outcomes = tuple(tuple(str(k) for k in row) for row in self.outcomes)
        elements = tuple(tuple(qvec(e) for e in row) for row in self.elements)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "elements", elements)
        if not settings:
            raise ValueError("assemblage needs at least one setting")
        if len(set(settings)) != len(settings):
            raise ValueError("duplicate setting labels")
        if not (len(settings) == len(outcomes) == len(elements)):
            raise ValueError("settings, outcomes and elements must align")
        dim = self.space.ambient_dim
        for row, outs in zip(elements, outcomes):
            if not outs or len(set(outs)) != len(outs):
                raise ValueError("each setting needs distinct outcome labels")
            if len(row) != len(outs):
                raise ValueError("one element per outcome required")
            for e in row:
                if len(e) != dim:
                    raise ValueError("element dimension mismatch")

    def element(self, x: int, k: int) -> tuple[Rational, ...]:
        return self.elements[x][k]

    def validate(self) -> None:
        """Raise ValueError unless this is a physical, no-signaling assemblage.

        Decided in ints, each element read as ints E over den D
        (``vecs.primitive_row``): its weight lies in [0, 1] iff 0 <= E_0
        <= D, its membership in the state cone is ``kernel._in_cone`` of
        E, and the per-setting totals (``vecs.int_combine``), T over L,
        are compared by cross-multiplication, the first against T_0 == L
        for normalization.
        """
        dim = self.space.ambient_dim
        totals = []
        for x, row in enumerate(self.elements):
            parts = []
            for k, e in enumerate(row):
                ints, den = primitive_row(e)
                if not 0 <= ints[0] <= den:
                    raise ValueError(f"element ({x},{k}) has weight outside [0,1]")
                if not _in_cone(ints, self.space):
                    raise ValueError(f"element ({x},{k}) leaves the state cone")
                parts.append((1, ints, den))
            totals.append(int_combine(parts, dim))
        first, top = totals[0]
        if any([t * top for t in total] != [t * den for t in first] for total, den in totals[1:]):
            raise ValueError("setting totals disagree (signaling assemblage)")
        if first[0] != top:
            raise ValueError("assemblage total is not normalized")

    def reduced_state(self) -> State:
        """The common per-setting total, as a normalized state."""
        self.validate()
        first = self.elements[0]
        return State(combine([ONE] * len(first), first))


def assemblage_from(state: BipartiteState,
                    observables: tuple[Observable, ...]) -> Assemblage:
    """The assemblage Alice's observables steer out of a bipartite state.

    Each element is the effect's conditional, computed in ints from the
    matrix's integer rows (``composites._conditional_ints``), built as
    one rational per value.
    """
    if not observables:
        raise ValueError("need at least one observable")
    if not state.is_normalized:
        raise ValueError("state must be normalized")
    if not in_max_tensor(state):
        raise ValueError("state must lie in the maximal tensor product")
    for obs in observables:
        if obs.space is not state.space_a and obs.space != state.space_a:
            raise ValueError("observables must act on the A side of the state")
    elements = tuple([tuple([ratio_row(*_conditional_ints(state, eff.coeffs, "A"))
                             for eff in obs.effects]) for obs in observables])
    return Assemblage(space=state.space_b,
                      settings=_unique_labels(o.label for o in observables),
                      outcomes=tuple(o.outcomes for o in observables),
                      elements=elements)


@dataclass(frozen=True)
class LhsLambda:
    """One hidden state: its total weight, the state, and response rows.

    responses[x][k] is p(outcome k | setting x, this hidden state); each
    row sums to one. Deterministic rows are the 0/1 special case.
    """

    weight: Rational
    state: State
    responses: tuple[tuple[Rational, ...], ...]

    def __post_init__(self):
        """Each response row is read once as ints over den
        (``vecs.primitive_row``, den the lcm of the denominators): its
        signs are the ints', and it sums to one iff the ints sum to den."""
        weight = as_ratio(self.weight)
        responses = tuple([qvec(row) for row in self.responses])
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "responses", responses)
        if weight.numerator < 0:
            raise ValueError("hidden-state weight must be nonnegative")
        for row in responses:
            ints, den = primitive_row(row)
            if min(ints, default=0) < 0:
                raise ValueError("response probabilities must be nonnegative")
            if sum(ints) != den:
                raise ValueError("response rows must sum to one")


@dataclass(frozen=True)
class LhsModel:
    """A local-hidden-state model for an assemblage shape."""

    space: StateSpace
    settings: tuple[str, ...]
    outcomes: tuple[tuple[str, ...], ...]
    lambdas: tuple[LhsLambda, ...]

    def __post_init__(self):
        if len(self.outcomes) != len(self.settings):
            raise ValueError("one outcome row per setting required")

    def validate(self) -> None:
        if not self.lambdas:
            raise ValueError("a model needs at least one hidden state")
        ints, den = primitive_row([lam.weight for lam in self.lambdas])
        if sum(ints) != den:
            raise ValueError("hidden-state weights must sum to one")
        for lam in self.lambdas:
            if not is_valid_state(lam.state.coords, self.space):
                raise ValueError("hidden state outside the state space")
            if len(lam.responses) != len(self.settings):
                raise ValueError("one response row per setting required")
            for row, outs in zip(lam.responses, self.outcomes):
                if len(row) != len(outs):
                    raise ValueError("response row length mismatch")


def reconstruct_assemblage(model: LhsModel) -> Assemblage:
    """The assemblage a local model produces.

    Element (x, k) is the sum over hidden states of weight times p(k|x)
    times the state, accumulated in ints (``vecs.int_combine``) from each
    state as ints over den (``vecs.primitive_row``), and built as one
    rational per value. check_lhs and jm_to_lhs audit their models with it.
    """
    dim = model.space.ambient_dim
    parts = [(lam.weight, lam.responses, *primitive_row(lam.state.coords))
             for lam in model.lambdas]
    elements = tuple([
        tuple([ratio_row(*int_combine([(w.numerator * p.numerator, ints,
                                   w.denominator * p.denominator * d)
                                  for w, responses, ints, d in parts
                                  if (p := responses[x][k])], dim))
               for k in range(len(outs))])
        for x, outs in enumerate(model.outcomes)])
    return Assemblage(space=model.space, settings=model.settings,
                      outcomes=model.outcomes, elements=elements)


@dataclass(frozen=True)
class LhsResult:
    """Outcome of the unsteerability decision.

    Exactly one of model / certificate is set. The certificate doubles
    as a steering functional: functional[x][k] is a covector whose total
    pairing with the assemblage is positive while its pairing with
    every deterministic-strategy cone generator is nonpositive.
    """

    status: str
    model: LhsModel | None = None
    certificate: tuple[Rational, ...] | None = None
    functional: tuple[tuple[tuple[Rational, ...], ...], ...] | None = None

    @property
    def unsteerable(self) -> bool:
        return self.status == UNSTEERABLE


def lhs_linear_system(assemblage: Assemblage) -> LinearSystem:
    """Feasibility system for a local model of the assemblage.

    The cone-membership system (``exactlp.membership_system``) of the
    elements stacked in (setting, outcome, coordinate) order. There is
    one generator per (strategy, vertex), strategy-major in the order of
    ``kernel.mother_outcome_tuples`` (as outcome indices), vertices in
    space order: ``kernel._slot_stack`` puts the vertex in slot
    (x, strategy[x]) for each setting x and zeros in every other slot.
    Its weights are the variables c[strategy][vertex]. An assemblage past
    ``kernel.LP_SIZE_CAP`` raises ValueError.

    The generators depend only on the space and the outcome counts: the
    system's shape (``exactlp.membership_shape``) is built once per shape
    and kept in ``space.lp_shapes``, and each call builds only the target.
    """
    target = tuple([c for row in assemblage.elements for e in row for c in e])
    return _lp_shape(assemblage.space, "lhs", assemblage.outcomes, _lhs_shape).with_rhs(target)


def _lhs_shape(space: StateSpace, outcomes) -> LinearSystem:
    """The cone-membership shape of the (strategy, vertex) generators of
    the local assemblages."""
    return membership_shape([(_slot_stack(strategy, ints, outcomes), den)
                             for strategy in _index_tuples(outcomes)
                             for ints, den in space.vertex_rows], convex=False)


def _functional_from_certificate(assemblage: Assemblage,
                                 certificate) -> tuple:
    """Reshape the equality multipliers into per-(setting, outcome) covectors."""
    dim = assemblage.space.ambient_dim
    it = iter(certificate)
    functional = []
    for row in assemblage.elements:
        functional.append(tuple(tuple(next(it) for _ in range(dim))
                                for _ in row))
    return tuple(functional)


def functional_value(functional, assemblage: Assemblage) -> Rational:
    """Total pairing of a steering functional with an assemblage."""
    return sum((dot(f, e)
                for frow, erow in zip(functional, assemblage.elements)
                for f, e in zip(frow, erow)), ZERO)


def functional_strategy_bound(functional, space: StateSpace,
                              outcomes: tuple[tuple[str, ...], ...]) -> Rational:
    """Largest pairing any deterministic strategy and vertex can reach.

    A strategy picks each setting's outcome independently, so its best
    pairing with vertex v is sum_x max_a functional[x][a].v: one dot per
    (vertex, setting, outcome), not one per (strategy, vertex) generator.
    """
    if [len(row) for row in functional] != [len(row) for row in outcomes]:
        raise ValueError("functional and outcomes differ in shape")
    return max(sum([max([dot(f, v) for f in row]) for row in functional], ZERO)
               for v in space.vertices)


def check_lhs(assemblage: Assemblage) -> LhsResult:
    """Decide unsteerability of an assemblage, with model or certificate.

    A feasible witness is read once as ints P over den Q
    (``vecs.primitive_row``); the slice of strategy s, with the vertices'
    integer rows (``space.vertex_rows``), sums in ints to the hidden
    state's subnormalized part (``vecs.int_combine``), whose first entry
    over its den is the weight, the part over that entry the state. The
    model is audited by ``LhsModel.validate`` and by
    ``reconstruct_assemblage`` against the assemblage.
    """
    assemblage.validate()
    outcome = lp_feasible(lhs_linear_system(assemblage))
    space = assemblage.space
    if outcome.feasible:
        count, dim = len(space.vertices), space.ambient_dim
        weights, den = primitive_row(outcome.witness)
        try:
            model = _deterministic_model(assemblage, (
                (strategy, *int_combine([(w, ints, d * den) for w, (ints, d) in zip(
                    weights[s * count:(s + 1) * count], space.vertex_rows)], dim))
                for s, strategy in enumerate(_index_tuples(assemblage.outcomes))))
        except ValueError as err:
            raise VerificationError(f"LHS witness fails its audit: {err}") from err
        if reconstruct_assemblage(model).elements != assemblage.elements:
            raise VerificationError("local model fails to reproduce the assemblage")
        return LhsResult(status=UNSTEERABLE, model=model)
    certificate = outcome.certificate
    functional = _functional_from_certificate(assemblage, certificate)
    if functional_value(functional, assemblage) <= ZERO:
        raise VerificationError("steering functional is not positive on the assemblage")
    if functional_strategy_bound(functional, space, assemblage.outcomes) > ZERO:
        raise VerificationError("steering functional is positive on a local strategy")
    return LhsResult(status=STEERABLE, certificate=certificate,
                     functional=functional)


def _deterministic_model(shape: Assemblage, parts) -> LhsModel:
    """The validated local model of (strategy, ints, den) parts, each
    part's subnormalized state as ints over den.

    Each part with nonzero weight, ints[0] / den, becomes one hidden
    state: that weight, the state ints / ints[0], each value built as
    one rational with no rational division, and the 0/1 responses that
    answer strategy[x] to setting x. Space, settings and outcomes are
    the shape assemblage's.
    """
    lambdas = []
    for strategy, ints, den in parts:
        top = ints[0]
        if not top:
            continue
        responses = tuple(tuple(ONE if k == answer else ZERO for k in range(len(row)))
                          for answer, row in zip(strategy, shape.outcomes, strict=True))
        lambdas.append(LhsLambda(as_ratio(top, den), State(ratio_row(ints, top)), responses))
    model = LhsModel(space=shape.space, settings=shape.settings,
                     outcomes=shape.outcomes, lambdas=tuple(lambdas))
    model.validate()
    return model


def jm_to_lhs(mother: MotherObservable, state: BipartiteState) -> LhsModel:
    """Turn a mother observable into a local model for the steered assemblage.

    Hidden states are labelled by the mother's outcome tuples: lambda's
    weight is the probability of that tuple against the state's A
    marginal, its state is the conditional on Bob's side, and its
    responses are deterministic, announcing the tuple's component.
    Zero-weight tuples are dropped.
    """
    if mother.space != state.space_a:
        raise ValueError("mother observable must act on the A side")
    return _model_from_mother(mother, state, assemblage_from(state, mother.axes))


def _model_from_mother(mother: MotherObservable, state: BipartiteState,
                       target: Assemblage) -> LhsModel:
    """The body of jm_to_lhs, given the assemblage the mother's axes steer:
    each mother effect's conditional, in ints from the matrix's integer
    rows (``composites._conditional_ints``), is one part of
    ``_deterministic_model``."""
    model = _deterministic_model(target, (
        (tuple(axis.outcomes.index(label) for axis, label in zip(mother.axes, combo)),
         *_conditional_ints(state, effect.coeffs, "A"))
        for combo, effect in mother.items()))
    if reconstruct_assemblage(model).elements != target.elements:
        raise ConstructionError("mother-derived model misses the assemblage")
    return model


def conditioning_system(state: BipartiteState,
                        target: tuple[Rational, ...]) -> LinearSystem:
    """Feasibility system for an A-side effect steering state onto target.

    Variables are the effect's coefficients (free). Equality rows ask,
    coordinate by B coordinate, that conditioning reproduce the target;
    inequality rows are effect validity on A's vertices, all the
    0 <= e(v) rows first, then the e(v) <= 1 rows. Every row is written
    in ints: the equalities by ``exactlp.coordinate_rows`` over the
    matrix's integer rows (``BipartiteState.matrix_rows``), with rhs 0,
    then ``with_rhs`` of the target, and the inequalities from A's
    integer vertices (``kernel._effect_rows``).
    """
    target = qvec(target)
    if len(target) != state.space_b.ambient_dim:
        raise ValueError("target dimension mismatch")
    matrix, den = state.matrix_rows
    rows = coordinate_rows([(row, den) for row in matrix])
    return LinearSystem.from_integer_rows(state.space_a.ambient_dim, len(rows),
                                          (*rows, *_effect_rows(state.space_a))).with_rhs(target)


def find_conditioning_effect(state: BipartiteState,
                             target: tuple[Rational, ...]) -> Effect:
    """A-side effect whose conditioning on state yields the target vector.

    Raises NotRemotelyPreparableError, carrying a Farkas certificate
    for the constraint system, when no valid effect works.
    """
    target = qvec(target)
    if not in_state_cone(target, state.space_b):
        raise ValueError("target must lie in Bob's state cone")
    if not ZERO <= target[0] <= ONE:
        raise ValueError("target weight must lie in [0,1]")
    outcome = lp_feasible(conditioning_system(state, target))
    if not outcome.feasible:
        raise NotRemotelyPreparableError(
            "no valid effect conditions the state onto the target",
            outcome.certificate)
    effect = Effect(outcome.witness)
    if subnormalized_conditional(state, effect, "A") != target:
        raise VerificationError("conditioning witness fails to reproduce target")
    return effect


def _prepare(state: BipartiteState, parts):
    """Remotely prepare weight * state for each (weight, State) part, in order.

    Returns (effects, None), or (the effects found so far, (i, err)) where
    part i is the first that no valid effect prepares.
    """
    effects = []
    for i, (w, s) in enumerate(parts):
        try:
            effects.append(find_conditioning_effect(state, combine((w,), (s.coords,))))
        except NotRemotelyPreparableError as err:
            return tuple(effects), (i, err)
    return tuple(effects), None


def lhs_to_mother(model: LhsModel, state: BipartiteState) -> MotherObservable:
    """Turn a local model for the state's assemblage into a mother observable.

    Each hidden state is remotely prepared: an A-side effect e_lam is
    found whose conditioning yields weight * hidden state, and the
    mother effect for outcome tuple kvec is the response-weighted sum
    sum_lam e_lam * prod_x p(kvec_x | x, lam). Fails with
    NotRemotelyPreparableError if some hidden state cannot be prepared,
    or ConstructionError if the pieces do not close into an observable.
    """
    model.validate()
    if model.space != state.space_b:
        raise ValueError("model must live on the B side of the state")
    prepared, failure = _prepare(state, [(lam.weight, lam.state) for lam in model.lambdas])
    if failure is not None:
        i, err = failure
        raise NotRemotelyPreparableError(
            f"hidden state {i} is not remotely preparable: {err}",
            err.certificate) from err
    space_a = state.space_a
    combos = _index_tuples(model.outcomes)
    prepared_coeffs = [e.coeffs for e in prepared]
    effect_coeffs = [combine([math.prod((lam.responses[x][k] for x, k in enumerate(combo)),
                                        start=ONE) for lam in model.lambdas], prepared_coeffs)
                     for combo in combos]
    if combine([ONE] * len(combos), effect_coeffs) != space_a.unit.coeffs:
        raise ConstructionError("prepared effects do not sum to the unit")
    axes = tuple(Observable(label=label, space=space_a, outcomes=outs,
                            effects=_marginal_effects(combos, effect_coeffs, x,
                                                      range(len(outs))))
                 for x, (label, outs) in enumerate(zip(model.settings, model.outcomes)))
    mother = MotherObservable(axes=axes, outcome_tuples=mother_outcome_tuples(axes),
                              effects=tuple(map(Effect, effect_coeffs)))
    mother.validate()
    steered = assemblage_from(state, mother.axes)
    if steered.elements != reconstruct_assemblage(model).elements:
        raise ConstructionError("mother observable steers to a different assemblage")
    return mother


def is_steerable_state(state: BipartiteState,
                       observables: tuple[Observable, ...]) -> LhsResult:
    """Unsteerability of the assemblage the observables steer from the state.

    A model found here is a local model for the given settings; if the
    family is the full set of observables one cares about, unsteerable
    verdicts extend to every coarse-graining and mixture of them, since
    responses may be stochastic. The family is validated first, against
    the state's A side.
    """
    _check_family(observables, state.space_a)
    return check_lhs(assemblage_from(state, observables))


@dataclass(frozen=True)
class PreparationReport:
    """Remote-preparability of one decomposition of Bob's marginal."""

    prepared: bool
    effects: tuple[Effect, ...] = ()
    failed_component: int | None = None
    certificate: tuple[Rational, ...] | None = None


def is_strongly_steerable_for(state: BipartiteState,
                              decompositions) -> tuple[bool, tuple[PreparationReport, ...]]:
    """Check remote preparability of finite decompositions of the B marginal.

    Each decomposition is a sequence of (weight, State) pairs with
    positive weights summing to one whose mixture is the state's B
    marginal. Returns (strongly_steerable, per-decomposition reports):
    the state is strongly steerable for the family when some
    decomposition has a component no valid effect can prepare.
    """
    mu = marginal(state, "B")
    reports = []
    strongly = False
    for decomposition in decompositions:
        pairs = tuple((as_ratio(w), s) for w, s in decomposition)
        if not pairs or any(w <= ZERO for w, _ in pairs):
            raise ValueError("decomposition weights must be positive")
        if sum((w for w, _ in pairs), ZERO) != ONE:
            raise ValueError("decomposition weights must sum to one")
        if not all(is_valid_state(s.coords, state.space_b) for _, s in pairs):
            raise ValueError("decomposition component outside the state space")
        if combine([w for w, _ in pairs], [s.coords for _, s in pairs]) != mu.coords:
            raise ValueError("decomposition does not mix to the B marginal")
        effects, failure = _prepare(state, pairs)
        if failure is None:
            reports.append(PreparationReport(prepared=True, effects=effects))
        else:
            i, err = failure
            reports.append(PreparationReport(prepared=False, failed_component=i,
                                             certificate=err.certificate))
            strongly = True
    return strongly, tuple(reports)


def lhs_critical_visibility(observables: tuple[Observable, ...],
                            state: BipartiteState) -> Rational:
    """The largest depolarizing level at which the steered assemblage is unsteerable.

    Exact, from one LP over the local-model weights and the level
    (``compatibility._critical_level``); 1 for a family that steers
    nothing even sharp. On the canonical maximally entangled state it
    equals the family's critical visibility for joint measurability.
    The LHS system is built once, from the checked sharp assemblage. At
    level 0 effect e is (e.b) u (``compatibility._noise_values``), and
    u = e_0 steers row 0 of the matrix, so the level-0 right-hand side
    is (e.b) times that row per effect.
    """
    _check_family(observables, state.space_a)
    system = lhs_linear_system(assemblage_from(state, observables))
    return _critical_level(system, [p * c for p in _noise_values(observables, state.space_a)
                                    for c in state.matrix[0]])


def lhs_noise_threshold(observables: tuple[Observable, ...],
                        state: BipartiteState,
                        precision: Rational) -> tuple[Rational, Rational]:
    """Bracket the critical depolarizing level for unsteerability.

    Same contract as the joint-measurability threshold: the returned
    (lo, hi) satisfy hi - lo <= precision, the assemblage at lo is
    unsteerable and the one at hi is steerable, except that a family
    unsteerable at full visibility reports (1, 1). The bracket comes
    from the exact critical visibility by arithmetic, not from
    bisection LPs. The family is validated first, against the state's
    A side.
    """
    eps = _positive_precision(precision)
    return _level_bracket(lhs_critical_visibility(observables, state), eps, "LHS")


@dataclass(frozen=True)
class TheoremTrial:
    """One observable family run through both sides of the equivalence."""

    index: int
    observables: tuple[Observable, ...]
    jm: JmResult
    lhs: LhsResult
    agree: bool
    extra_states: int = 0
    extra_all_unsteerable: bool | None = None
    extra_all_reconstructed: bool | None = None


@dataclass(frozen=True)
class TheoremReport:
    """Aggregate of equivalence trials on one model's canonical state."""

    space_label: str
    seed: int
    trials: tuple[TheoremTrial, ...] = field(repr=False)
    disagreements: int
    extra_failures: int

    @property
    def all_agree(self) -> bool:
        return self.disagreements == 0 and self.extra_failures == 0


def theorem_verify(space: StateSpace, n_trials: int, config: SamplerConfig,
                   extra_states_per_jm_trial: int = 0,
                   fixed_sets: tuple[tuple[Observable, ...], ...] = ()) -> TheoremReport:
    """Test joint measurability against unsteerability of the canonical state.

    Runs the fixed observable families first, then n_trials seeded
    random ones, deciding for each family both joint measurability and
    unsteerability of the assemblage it steers out of the canonical
    maximally entangled state, and recording whether the verdicts
    agree. For jointly measurable families, extra_states_per_jm_trial
    further product-or-mixture states are drawn and checked to be
    unsteerable too, with the mother-derived local model verified to
    reproduce each extra assemblage.
    """
    if n_trials < 0:
        raise ValueError("trial count must be nonnegative")
    if extra_states_per_jm_trial < 0:
        raise ValueError("extra state count must be nonnegative")
    state = canonical_max_entangled(space)
    rng = make_rng(config)
    families = list(fixed_sets)
    families += [random_observable_set(space, rng, config) for _ in range(n_trials)]
    trials = []
    disagreements = 0
    extra_failures = 0
    for index, observables in enumerate(families):
        jm = check_joint_measurability(observables, space)
        lhs = check_lhs(assemblage_from(state, observables))
        agree = jm.jointly_measurable == lhs.unsteerable
        if not agree:
            disagreements += 1
        extra_unsteerable = None
        extra_reconstructed = None
        extras = extra_states_per_jm_trial if jm.jointly_measurable else 0
        if extras:
            extra_unsteerable = True
            extra_reconstructed = True
            for _ in range(extras):
                other = random_max_tensor_state(space, space, rng,
                                                config.denominator)
                target = assemblage_from(other, observables)
                if not check_lhs(target).unsteerable:
                    extra_unsteerable = False
                try:
                    _model_from_mother(jm.mother, other, target)
                except ConstructionError:
                    extra_reconstructed = False
            if not (extra_unsteerable and extra_reconstructed):
                extra_failures += 1
        trials.append(TheoremTrial(index=index, observables=tuple(observables),
                                   jm=jm, lhs=lhs, agree=agree,
                                   extra_states=extras,
                                   extra_all_unsteerable=extra_unsteerable,
                                   extra_all_reconstructed=extra_reconstructed))
    return TheoremReport(space_label=space.label, seed=config.seed,
                         trials=tuple(trials), disagreements=disagreements,
                         extra_failures=extra_failures)
