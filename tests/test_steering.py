"""Assemblages, local models, steering certificates, and the two constructions."""

import functools
import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsteer.compatibility import check_joint_measurability
from gptsteer.composites import (BipartiteState, canonical_max_entangled,
                                 product_state, subnormalized_conditional)
from gptsteer.cli import EXIT_REFUTED, main
from gptsteer.errors import ConstructionError, NotRemotelyPreparableError, UnsupportedModelError
from gptsteer.exactlp import refutes
from gptsteer.kernel import (Effect, Observable, State, barycenter,
                             depolarize_observable, zoo_by_name, zoo_classical,
                             square_fiducials, zoo_gbit, zoo_polygon)
from gptsteer.ratio import ONE, ZERO, as_ratio, format_ratio
from gptsteer.sampler import (SamplerConfig, random_decomposition, random_max_tensor_state,
                              random_observable_set)
from gptsteer.steering import (STEERABLE, UNSTEERABLE, Assemblage, LhsLambda,
                               LhsModel, LhsResult, assemblage_from, check_lhs,
                               conditioning_system, find_conditioning_effect,
                               functional_strategy_bound, functional_value,
                               is_steerable_state, is_strongly_steerable_for,
                               jm_to_lhs, lhs_linear_system,
                               lhs_noise_threshold, lhs_to_mother,
                               reconstruct_assemblage, theorem_verify)

from oracles import assemblage_of_model, check_farkas, conditional, fdot
from test_exactlp import _sphere_space

r = as_ratio


def _fr(x):
    return Fraction(format_ratio(x))


def _as_fraction_rows(rows):
    return [(tuple(_fr(c) for c in coeffs), _fr(rhs)) for coeffs, rhs in rows]


def _depolarized_pair(fiducials, level):
    X, Y = fiducials
    return (depolarize_observable(X, level), depolarize_observable(Y, level))


# ---------------------------------------------------------------- assemblages

def test_assemblage_construction_errors(gbit):
    ok = ((r(1, 2), 0, 0), (r(1, 2), 0, 0))
    with pytest.raises(ValueError):
        Assemblage(gbit, (), (), ())
    with pytest.raises(ValueError):
        Assemblage(gbit, ("X", "X"), (("+", "-"),) * 2, (ok, ok))
    with pytest.raises(ValueError):
        Assemblage(gbit, ("X",), (("+", "+"),), (ok,))
    with pytest.raises(ValueError):
        Assemblage(gbit, ("X",), (("+", "-"),), (((1, 0, 0),),))
    with pytest.raises(ValueError):
        Assemblage(gbit, ("X",), (("+", "-"),), (((1, 0), (0, 0)),))


def test_assemblage_validate_catches_defects(gbit):
    half = (r(1, 2), 0, 0)
    # weight above one
    bad = Assemblage(gbit, ("X",), (("+", "-"),), (((2, 0, 0), (-1, 0, 0)),))
    with pytest.raises(ValueError, match=re.escape("element (0,0) has weight outside [0,1]")):
        bad.validate()
    # weight below zero, on the second element
    bad = Assemblage(gbit, ("X",), (("+", "-"),), (((1, 0, 0), (r(-1, 3), 0, 0)),))
    with pytest.raises(ValueError, match=re.escape("element (0,1) has weight outside [0,1]")):
        bad.validate()
    # element outside the state cone
    bad = Assemblage(gbit, ("X",), (("+", "-"),),
                     (((r(1, 4), r(1, 2), 0), (r(3, 4), r(-1, 2), 0)),))
    with pytest.raises(ValueError, match=re.escape("element (0,0) leaves the state cone")):
        bad.validate()
    # signaling: totals differ across settings
    bad = Assemblage(gbit, ("X", "Y"), (("+", "-"),) * 2,
                     ((half, half),
                      (((r(1, 2), r(1, 4), 0)), (r(1, 2), r(1, 4), 0))))
    with pytest.raises(ValueError, match=re.escape("setting totals disagree (signaling")):
        bad.validate()
    # unnormalized total
    bad = Assemblage(gbit, ("X",), (("+", "-"),), ((half, (r(1, 4), 0, 0)),))
    with pytest.raises(ValueError, match="assemblage total is not normalized"):
        bad.validate()
    good = Assemblage(gbit, ("X",), (("+", "-"),), ((half, half),))
    good.validate()
    assert good.reduced_state().coords == barycenter(gbit).coords


def test_assemblage_from_fiducials_frozen(gbit, phi, fiducials):
    X, Y = fiducials
    asm = assemblage_from(phi, (X, Y))
    asm.validate()
    assert asm.settings == ("X", "Y")
    assert asm.element(0, 0) == (r(1, 2), r(1, 2), r(1, 2))
    assert asm.element(0, 1) == (r(1, 2), r(-1, 2), r(-1, 2))
    assert asm.element(1, 0) == (r(1, 2), r(-1, 2), r(1, 2))
    assert asm.element(1, 1) == (r(1, 2), r(1, 2), r(-1, 2))
    assert asm.reduced_state().coords == barycenter(gbit).coords


def test_assemblage_from_guards(gbit, phi, fiducials):
    X, _ = fiducials
    with pytest.raises(ValueError):
        assemblage_from(phi, ())
    too_far = BipartiteState(gbit, gbit, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    with pytest.raises(ValueError):
        assemblage_from(too_far, (X,))
    other = zoo_classical(2)
    obs_b = Observable("Z", other, ("0", "1"),
                       (Effect((1, -1)), Effect((0, 1))))
    with pytest.raises(ValueError):
        assemblage_from(phi, (obs_b,))


def test_duplicate_labels_get_suffixes(phi, fiducials):
    X, Y = fiducials
    asm = assemblage_from(phi, (X, X))
    assert asm.settings == ("X", "X#1")
    assert assemblage_from(phi, (X, Y, X)).settings == ("X", "Y", "X#1")
    assert assemblage_from(phi, (X, X, X)).settings == ("X", "X#1", "X#2")


@pytest.mark.parametrize("level", [ONE, r(1, 2)])
def test_suffixes_skip_labels_already_taken(gbit, phi, fiducials, level):
    # the repeat of "a" must not be named "a#1", the third setting's label
    X, Y = (depolarize_observable(o, level) for o in fiducials)
    family = tuple(Observable(label, gbit, o.outcomes, o.effects)
                   for label, o in zip(("a", "a", "a#1"), (X, X, Y)))
    asm = assemblage_from(phi, family)
    assert asm.settings == ("a", "a#2", "a#1")
    jm = check_joint_measurability(family, gbit)
    assert jm.jointly_measurable == (level != ONE)
    assert check_lhs(asm).unsteerable == jm.jointly_measurable
    assert is_steerable_state(phi, family).unsteerable == jm.jointly_measurable


# ------------------------------------------------------------ the LHS decision

def test_lhs_system_shape(phi, fiducials):
    asm = assemblage_from(phi, fiducials)
    system = lhs_linear_system(asm)
    assert system.variable_count == 16   # 4 strategies x 4 vertices
    assert len(system.equalities) == 12  # 2 settings x 2 outcomes x 3 coords
    assert len(system.inequalities) == 16


def test_sharp_pair_steers_with_audited_certificate(gbit, phi, fiducials):
    asm = assemblage_from(phi, fiducials)
    result = check_lhs(asm)
    assert result.status == STEERABLE
    assert not result.unsteerable
    assert result.model is None
    assert result.certificate is not None
    # the certificate refutes the rebuilt system, checked independently
    system = lhs_linear_system(asm)
    assert check_farkas(_as_fraction_rows(system.equalities),
                        _as_fraction_rows(system.inequalities),
                        [_fr(m) for m in result.certificate])
    # and reads as a steering functional
    assert functional_value(result.functional, asm) > ZERO
    assert functional_strategy_bound(result.functional, gbit,
                                     asm.outcomes) <= ZERO



@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("gbit", "classical-3", "polygon-5")),
       st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2 ** 32))
def test_strategy_bound_is_the_generator_maximum(model, shape, seed):
    # max over (strategy, vertex) generators, enumerated with plain Fractions
    space = zoo_by_name(model)
    rng = random.Random(seed)
    functional = tuple(tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                   for _ in range(space.ambient_dim))
                             for _ in range(count))
                       for count in shape)
    outcomes = tuple(tuple(str(a) for a in range(count)) for count in shape)
    expected = max(sum(fdot(functional[x][a], v) for x, a in enumerate(strategy))
                   for strategy in itertools.product(*[range(count) for count in shape])
                   for v in space.vertices)
    assert _fr(functional_strategy_bound(functional, space, outcomes)) == expected


def test_strategy_bound_checks_the_shape(gbit):
    row = ((ONE, ZERO, ZERO),) * 2
    with pytest.raises(ValueError, match="differ in shape"):
        functional_strategy_bound((row,), gbit, (("+", "-"), ("+", "-")))
    with pytest.raises(ValueError, match="differ in shape"):
        functional_strategy_bound((row, row[:1]), gbit, (("+", "-"), ("+", "-")))

def test_noisy_pair_has_local_model_frozen(gbit, phi, fiducials):
    noisy = _depolarized_pair(fiducials, r(1, 2))
    asm = assemblage_from(phi, noisy)
    result = check_lhs(asm)
    assert result.status == UNSTEERABLE
    model = result.model
    model.validate()
    assert len(model.lambdas) == 4
    assert all(lam.weight == r(1, 4) for lam in model.lambdas)
    midpoints = {(r(1), r(0), r(1)), (r(1), r(0), r(-1)),
                 (r(1), r(1), r(0)), (r(1), r(-1), r(0))}
    assert {lam.state.coords for lam in model.lambdas} == midpoints
    assert reconstruct_assemblage(model).elements == asm.elements
    # independent reconstruction in plain Fractions
    oracle_elements = assemblage_of_model(
        [_fr(lam.weight) for lam in model.lambdas],
        [tuple(_fr(c) for c in lam.state.coords) for lam in model.lambdas],
        [[[_fr(p) for p in row] for row in lam.responses]
         for lam in model.lambdas],
        2, 2)
    expected = tuple(tuple(tuple(_fr(c) for c in e) for e in row)
                     for row in asm.elements)
    assert oracle_elements == expected


def test_is_steerable_state_and_products(gbit, phi, fiducials):
    assert is_steerable_state(phi, fiducials).status == STEERABLE
    prod = product_state(gbit, State((1, 1, 1)), gbit, State((1, r(1, 2), 0)))
    assert is_steerable_state(prod, fiducials).status == UNSTEERABLE


def test_stochastic_responses_are_legal(gbit):
    lam = LhsLambda(ONE, State((1, 0, 0)), ((r(1, 2), r(1, 2)),))
    model = LhsModel(space=gbit, settings=("X",), outcomes=(("+", "-"),),
                     lambdas=(lam,))
    model.validate()
    asm = reconstruct_assemblage(model)
    asm.validate()
    assert asm.element(0, 0) == (r(1, 2), 0, 0)


def test_lhs_lambda_guards(gbit):
    with pytest.raises(ValueError):
        LhsLambda(r(-1, 2), State((1, 0, 0)), ((1, 0),))
    with pytest.raises(ValueError):
        LhsLambda(ONE, State((1, 0, 0)), ((r(1, 2), r(1, 4)),))
    with pytest.raises(ValueError):
        LhsLambda(ONE, State((1, 0, 0)), ((r(3, 2), r(-1, 2)),))
    with pytest.raises(ValueError):
        LhsModel(gbit, ("X",), (("+", "-"),), ()).validate()


@pytest.mark.parametrize("weight, rows, message", [
    (r(-1, 2), ((1, 0),), "weight must be nonnegative"),
    (ONE, ((r(3, 2), r(-1, 2)),), "probabilities must be nonnegative"),
    (ONE, ((r(1, 2), r(1, 4)),), "rows must sum to one"),
    (ONE, ((r(1, 3), r(1, 2), r(1, 7)),), "rows must sum to one"),
    (ONE, ((),), "rows must sum to one"),
])
def test_lhs_lambda_checks_name_the_fault(weight, rows, message):
    with pytest.raises(ValueError, match=message):
        LhsLambda(weight, State((1, 0, 0)), rows)


def test_lhs_sums_to_one_over_mixed_denominators(gbit):
    # rows and weights over different denominators sum to one exactly
    rows = ((r(1, 3), r(1, 6), r(1, 2)), (ONE, ZERO))
    lambdas = tuple(LhsLambda(w, State((1, 0, 0)), rows) for w in (r(2, 9), r(7, 9)))
    model = LhsModel(gbit, ("a", "b"), (("0", "1", "2"), ("+", "-")), lambdas)
    model.validate()
    short = LhsModel(gbit, ("a", "b"), model.outcomes, lambdas[:1] + (
        LhsLambda(r(7, 10), State((1, 0, 0)), rows),))
    with pytest.raises(ValueError, match="weights must sum to one"):
        short.validate()


def test_lhs_model_needs_one_outcome_row_per_setting(gbit):
    lam = LhsLambda(ONE, State((1, 0, 0)), ((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="one outcome row per setting"):
        LhsModel(gbit, ("a", "b"), (("+", "-"),), (lam,))


# ------------------------------------------------- constructions, both ways

def test_jm_to_lhs_reproduces_assemblage(gbit, phi, fiducials):
    noisy = _depolarized_pair(fiducials, r(1, 2))
    jm = check_joint_measurability(noisy, gbit)
    assert jm.jointly_measurable
    model = jm_to_lhs(jm.mother, phi)
    model.validate()
    assert reconstruct_assemblage(model).elements == \
        assemblage_from(phi, noisy).elements
    # responses are deterministic rows
    for lam in model.lambdas:
        for row in lam.responses:
            assert sorted(row) == [ZERO, ONE]


def test_jm_to_lhs_guards(gbit, phi, fiducials):
    noisy = _depolarized_pair(fiducials, r(1, 2))
    jm = check_joint_measurability(noisy, gbit)
    too_far = BipartiteState(gbit, gbit, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    with pytest.raises(ValueError):
        jm_to_lhs(jm.mother, too_far)
    other = zoo_classical(2)
    obs = Observable("Z", other, ("0", "1"), (Effect((1, -1)), Effect((0, 1))))
    jm2 = check_joint_measurability((obs,), other)
    with pytest.raises(ValueError):
        jm_to_lhs(jm2.mother, phi)


def test_jm_to_lhs_tests_max_tensor_membership_once(monkeypatch, gbit, phi, fiducials):
    import gptsteer.steering
    jm = check_joint_measurability(_depolarized_pair(fiducials, r(1, 2)), gbit)
    calls = []
    clean = gptsteer.steering.in_max_tensor

    def counted(state):
        calls.append(state)
        return clean(state)

    monkeypatch.setattr(gptsteer.steering, "in_max_tensor", counted)
    jm_to_lhs(jm.mother, phi)
    assert len(calls) == 1
    too_far = BipartiteState(gbit, gbit, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    with pytest.raises(ValueError, match="state must lie in the maximal tensor product"):
        jm_to_lhs(jm.mother, too_far)


def test_assemblage_refusal_names_normalization(gbit, fiducials):
    # twice a product state is in the cone but not normalized
    doubled = BipartiteState(gbit, gbit, ((2, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="^state must be normalized$"):
        assemblage_from(doubled, fiducials)


def test_find_conditioning_effect_frozen(phi):
    target = (r(1, 4), r(1, 4), r(1, 4))
    effect = find_conditioning_effect(phi, target)
    assert effect.coeffs == (r(1, 4), r(1, 4), r(0))
    assert subnormalized_conditional(phi, effect, "A") == target


def test_find_conditioning_effect_guards(gbit, phi):
    with pytest.raises(ValueError):
        find_conditioning_effect(phi, (r(1, 2), 1, 0))  # outside Bob's cone
    with pytest.raises(ValueError):
        find_conditioning_effect(phi, (2, 0, 0))        # weight above one


def test_remote_preparation_fails_on_product_states(gbit):
    prod = product_state(gbit, barycenter(gbit), gbit, State((1, 1, 1)))
    target = (r(1, 2), r(-1, 2), r(-1, 2))  # half the opposite vertex
    with pytest.raises(NotRemotelyPreparableError) as exc:
        find_conditioning_effect(prod, target)
    certificate = exc.value.certificate
    system = conditioning_system(prod, target)
    assert check_farkas(_as_fraction_rows(system.equalities),
                        _as_fraction_rows(system.inequalities),
                        [_fr(m) for m in certificate])


def test_lhs_to_mother_roundtrip(gbit, phi, fiducials):
    noisy = _depolarized_pair(fiducials, r(1, 2))
    jm = check_joint_measurability(noisy, gbit)
    model = jm_to_lhs(jm.mother, phi)
    mother = lhs_to_mother(model, phi)
    mother.validate()
    # the rebuilt marginals are exactly the observables we started from
    for rebuilt, original in zip(mother.axes, noisy):
        assert rebuilt.outcomes == original.outcomes
        assert tuple(e.coeffs for e in rebuilt.effects) == \
            tuple(e.coeffs for e in original.effects)
    # on the canonical state, remote preparation is unique, so the mother
    # effects themselves come back unchanged
    assert tuple(e.coeffs for e in mother.effects) == \
        tuple(e.coeffs for e in jm.mother.effects)


def test_lhs_to_mother_roundtrip_classical():
    space = zoo_classical(2)
    state = canonical_max_entangled(space)
    obs = Observable("Z", space, ("0", "1"), (Effect((1, -1)), Effect((0, 1))))
    jm = check_joint_measurability((obs, obs), space)
    model = jm_to_lhs(jm.mother, state)
    mother = lhs_to_mother(model, state)
    for rebuilt in mother.axes:
        assert tuple(e.coeffs for e in rebuilt.effects) == \
            tuple(e.coeffs for e in obs.effects)


def test_lhs_to_mother_wrong_space(gbit, phi):
    other = zoo_classical(2)
    lam = LhsLambda(ONE, State((1, 0)), ((1, 0),))
    model = LhsModel(other, ("X",), (("+", "-"),), (lam,))
    with pytest.raises(ValueError):
        lhs_to_mother(model, phi)


# --------------------------------------------------------- strong steering

def test_vertex_decomposition_is_preparable_frozen(gbit, phi):
    quarter = r(1, 4)
    decomposition = tuple((quarter, State(v)) for v in gbit.vertices)
    strongly, reports = is_strongly_steerable_for(phi, (decomposition,))
    assert strongly is False
    (report,) = reports
    assert report.prepared
    assert tuple(e.coeffs for e in report.effects) == (
        (quarter, quarter, r(0)),
        (quarter, r(0), r(-1, 4)),
        (quarter, r(0), quarter),
        (quarter, r(-1, 4), r(0)))


def test_random_decompositions_all_preparable(gbit, phi):
    rng = random.Random(17)
    for _ in range(25):
        decomposition = random_decomposition(gbit, barycenter(gbit), rng)
        strongly, reports = is_strongly_steerable_for(phi, (decomposition,))
        assert strongly is False
        assert reports[0].prepared


def test_product_state_fails_some_decomposition(gbit):
    prod = product_state(gbit, barycenter(gbit), gbit, barycenter(gbit))
    decomposition = tuple((r(1, 4), State(v)) for v in gbit.vertices)
    strongly, reports = is_strongly_steerable_for(prod, (decomposition,))
    assert strongly is True
    (report,) = reports
    assert not report.prepared
    assert report.failed_component == 0
    assert report.certificate is not None


def _lhs_to_mother_failure(state, parts):
    lambdas = tuple(LhsLambda(w, s, ((ONE, ZERO),)) for w, s in parts)
    model = LhsModel(state.space_b, ("X",), (("+", "-"),), lambdas)
    with pytest.raises(NotRemotelyPreparableError) as exc:
        lhs_to_mother(model, state)
    assert isinstance(exc.value.__cause__, NotRemotelyPreparableError)
    index = re.match(r"hidden state (\d+) is not remotely preparable: ", str(exc.value))
    return int(index.group(1)), exc.value.certificate


def _strong_steering_failure(state, parts):
    strongly, (report,) = is_strongly_steerable_for(state, (parts,))
    assert strongly is True
    assert not report.prepared and report.effects == ()
    return report.failed_component, report.certificate


@pytest.mark.parametrize("failure", [_lhs_to_mother_failure, _strong_steering_failure])
def test_preparation_failure_names_the_second_part(gbit, failure):
    # Conditioning a product state only prepares multiples of Bob's
    # marginal: part 0 is that marginal, part 1 a vertex.
    prod = product_state(gbit, barycenter(gbit), gbit, barycenter(gbit))
    parts = ((r(1, 2), barycenter(gbit)),
             (r(1, 4), State((1, 1, 1))),
             (r(1, 4), State((1, -1, -1))))
    index, certificate = failure(prod, parts)
    assert index == 1
    target = tuple(r(1, 4) * c for c in parts[1][1].coords)
    assert refutes(conditioning_system(prod, target), certificate)


def test_strong_steering_input_validation(gbit, phi):
    with pytest.raises(ValueError):
        is_strongly_steerable_for(phi, (((r(1, 2), State((1, 1, 1))),),))
    with pytest.raises(ValueError):
        is_strongly_steerable_for(phi, (((ZERO, State((1, 1, 1))),
                                         (ONE, State((1, -1, -1)))),))
    with pytest.raises(ValueError):
        is_strongly_steerable_for(
            phi, (((ONE, State((1, 2, 0))),),))
    with pytest.raises(ValueError):
        is_strongly_steerable_for(
            phi, (((ONE, State((1, 1, 1))),),))  # mixes to a vertex, not the marginal


# ------------------------------------------------------------- thresholds

def test_lhs_threshold_matches_jm_side(phi, fiducials):
    lo, hi = lhs_noise_threshold(fiducials, phi, r(1, 128))
    assert (lo, hi) == (r(1, 2), r(65, 128))


def test_lhs_threshold_trivial_family():
    space = zoo_classical(2)
    state = canonical_max_entangled(space)
    obs = Observable("Z", space, ("0", "1"), (Effect((1, -1)), Effect((0, 1))))
    assert lhs_noise_threshold((obs, obs), state, r(1, 4)) == (ONE, ONE)
    with pytest.raises(ValueError):
        lhs_noise_threshold((obs,), state, ZERO)


# --------------------------------------------------- pinned steering outputs

@functools.cache
def _pinned_cases():
    """(state, family, jm) triples: on gbit, polygon-5, classical-3 and
    sphere-5 with themselves, and on gbit with polygon-5 and sphere-5 with
    classical-3, the canonical state where the space has one and two
    seeded max-tensor states, each steered by two seeded families of two
    or three dichotomic observables, and on gbit also the square's
    fiducials, each family sharp and at levels 3/4 and 1/2."""
    gbit, polygon, classical, sphere = zoo_gbit(), zoo_polygon(5), zoo_classical(3), \
        _sphere_space()
    rng = random.Random(2029)
    config = SamplerConfig(seed=2029)
    cases = []
    for space_a, space_b in ((gbit, gbit), (polygon, polygon), (classical, classical),
                             (sphere, sphere), (gbit, polygon), (sphere, classical)):
        states = [random_max_tensor_state(space_a, space_b, rng) for _ in range(2)]
        if space_a is space_b:
            try:
                states.insert(0, canonical_max_entangled(space_a))
            except UnsupportedModelError:
                pass
        families = [random_observable_set(space_a, rng, config) for _ in range(2)]
        if space_a is gbit:
            families.append(square_fiducials(gbit))
        for sharp, level in itertools.product(families, (ONE, r(3, 4), r(1, 2))):
            family = tuple(depolarize_observable(o, level) for o in sharp)
            jm = check_joint_measurability(family, space_a)
            cases += [(state, family, jm) for state in states]
    return tuple(cases)


def test_steering_outputs_are_pinned():
    # one digest over the assemblages, the check_lhs models and
    # certificates and the jm_to_lhs models of the pinned cases
    def text(values):
        return " ".join(map(format_ratio, values))

    def model_lines(model):
        return [f"lambda {text((lam.weight,))} | {text(lam.state.coords)} | "
                + " / ".join(map(text, lam.responses)) for lam in model.lambdas]

    lines = []
    for state, family, jm in _pinned_cases():
        asm = assemblage_from(state, family)
        lines += ["assemblage " + " / ".join(map(text, row)) for row in asm.elements]
        result = check_lhs(asm)
        if result.unsteerable:
            lines += model_lines(result.model)
        else:
            lines.append("certificate " + text(result.certificate))
        if jm.jointly_measurable:
            lines += ["mother"] + model_lines(jm_to_lhs(jm.mother, state))
    kinds = {line.split()[0] for line in lines}
    assert kinds == {"assemblage", "lambda", "certificate", "mother"}
    assert len(lines) == 1018
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "9247cdb1c1bba9afe6c7ea0939cde9d45754c771c69464d045d5a261ff619d45"


def test_assemblage_from_is_the_oracle_conditional():
    for state, family, _ in _pinned_cases():
        matrix = [[_fr(c) for c in row] for row in state.matrix]
        expected = tuple(tuple(conditional(matrix, [_fr(c) for c in e.coeffs])
                               for e in obs.effects) for obs in family)
        assert assemblage_from(state, family).elements == expected


# ----------------------------------------------------------- theorem driver

def test_theorem_verify_small_run(gbit):
    config = SamplerConfig(seed=99)
    report = theorem_verify(gbit, 5, config)
    assert report.space_label == "gbit"
    assert report.seed == 99
    assert len(report.trials) == 5
    assert report.disagreements == 0
    assert report.extra_failures == 0
    assert report.all_agree
    for trial in report.trials:
        assert trial.agree
        assert trial.extra_states == 0
        assert trial.extra_all_unsteerable is None
        assert trial.extra_all_reconstructed is None


def test_theorem_verify_is_deterministic(gbit):
    config = SamplerConfig(seed=5)
    first = theorem_verify(gbit, 4, config)
    second = theorem_verify(gbit, 4, config)
    for a, b in zip(first.trials, second.trials):
        assert a.jm.status == b.jm.status
        assert a.lhs.status == b.lhs.status
        assert [tuple(e.coeffs for e in o.effects) for o in a.observables] == \
            [tuple(e.coeffs for e in o.effects) for o in b.observables]


def test_theorem_verify_fixed_sets_lead(gbit, fiducials):
    config = SamplerConfig(seed=1)
    report = theorem_verify(gbit, 1, config, fixed_sets=(fiducials,))
    assert len(report.trials) == 2
    first = report.trials[0]
    assert tuple(o.label for o in first.observables) == ("X", "Y")
    assert not first.jm.jointly_measurable
    assert first.lhs.status == STEERABLE
    assert first.agree
    assert report.all_agree


def test_theorem_verify_extras(gbit, fiducials):
    noisy = _depolarized_pair(fiducials, r(1, 2))
    config = SamplerConfig(seed=7)
    report = theorem_verify(gbit, 0, config, extra_states_per_jm_trial=2,
                            fixed_sets=(noisy, fiducials))
    jm_trial, steer_trial = report.trials
    assert jm_trial.extra_states == 2
    assert jm_trial.extra_all_unsteerable is True
    assert jm_trial.extra_all_reconstructed is True
    assert steer_trial.extra_states == 0
    assert steer_trial.extra_all_unsteerable is None
    assert report.extra_failures == 0
    with pytest.raises(ValueError):
        theorem_verify(gbit, -1, config)


def test_theorem_verify_rejects_negative_extra_states(monkeypatch, gbit, fiducials):
    import gptsteer.steering
    calls = []
    monkeypatch.setattr(gptsteer.steering, "check_joint_measurability",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="extra state count"):
        theorem_verify(gbit, 2, SamplerConfig(seed=1), extra_states_per_jm_trial=-1,
                       fixed_sets=(fiducials,))
    assert calls == []  # raised before the first trial


def test_theorem_verify_builds_each_assemblage_once(monkeypatch, gbit, fiducials):
    import gptsteer.steering
    calls = []
    clean = gptsteer.steering.assemblage_from

    def counted(state, observables):
        calls.append(state)
        return clean(state, observables)

    monkeypatch.setattr(gptsteer.steering, "assemblage_from", counted)
    noisy = _depolarized_pair(fiducials, r(1, 2))
    report = theorem_verify(gbit, 0, SamplerConfig(seed=7), extra_states_per_jm_trial=2,
                            fixed_sets=(noisy,))
    assert report.trials[0].extra_all_reconstructed is True
    # one for the family on the canonical state, one per extra state
    assert len(calls) == 3


def test_theorem_verify_records_failures(monkeypatch, gbit, fiducials, capsys):
    # check_lhs flips its second and third verdicts, and every mother-derived
    # model misses its assemblage; the calls here are the noisy family, its
    # extra state, then the sharp family
    import gptsteer.steering
    calls = []
    clean = gptsteer.steering.check_lhs

    def flipped(assemblage):
        result = clean(assemblage)
        calls.append(result.status)
        if len(calls) in (2, 3):
            return LhsResult(STEERABLE if result.unsteerable else UNSTEERABLE)
        return result

    def misses(*args):
        raise ConstructionError("mother-derived model misses the assemblage")

    monkeypatch.setattr(gptsteer.steering, "check_lhs", flipped)
    monkeypatch.setattr(gptsteer.steering, "_model_from_mother", misses)
    noisy = _depolarized_pair(fiducials, r(1, 2))
    report = theorem_verify(gbit, 0, SamplerConfig(seed=7), extra_states_per_jm_trial=1,
                            fixed_sets=(noisy, fiducials))
    assert calls == [UNSTEERABLE, UNSTEERABLE, STEERABLE]
    jm_trial, steer_trial = report.trials
    assert jm_trial.agree and not steer_trial.agree
    assert jm_trial.extra_all_unsteerable is False
    assert jm_trial.extra_all_reconstructed is False
    assert (report.disagreements, report.extra_failures) == (1, 1)
    assert not report.all_agree
    # the command on three random families, each jointly measurable: the
    # second's verdict flips and every extra state fails its reconstruction
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    calls.clear()
    status = main(["theorem-verify", "--model", "gbit", "--trials", "3", "--seed", "7",
                   "--extra-states", "1", "--out", "text"])
    assert calls == [UNSTEERABLE] * 6
    assert status == EXIT_REFUTED
    assert capsys.readouterr().out.splitlines() == [
        "trials: 3", "disagreements: 1", "extra_failures: 3"]


def test_rejection_sampling_gives_up_with_a_value_error(gbit, monkeypatch):
    from gptsteer import sampler
    monkeypatch.setattr(sampler, "_REJECTION_CAP", 3)
    rng = random.Random(5)
    with pytest.raises(ValueError, match="no decomposition in 3 draws"):
        random_decomposition(gbit, State((1, 2, 0)), rng)
    with pytest.raises(ValueError, match="no valid effect in 3 draws"):
        sampler.random_effect(zoo_classical(20), rng)
