"""Bipartite states: tensor cones, separability, marginals, conditioning."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsteer.composites import (ENTANGLED, SEPARABLE, BipartiteState,
                                 canonical_max_entangled, conditional_state,
                                 effect_to_state_isomorphism, in_max_tensor,
                                 is_separable, joint_probability, marginal,
                                 max_tensor_violation, mix_bipartite_states,
                                 product_state, separability_system,
                                 subnormalized_conditional,
                                 verify_entanglement_certificate)
from gptsteer.errors import NullConditioningError, UnsupportedModelError
from gptsteer.exactlp import _Tableau
from gptsteer.kernel import (Effect, State, barycenter, extremal_effects,
                             probability, zoo_by_name, zoo_classical,
                             zoo_polygon)
from gptsteer.ratio import as_ratio, format_ratio
from gptsteer.sampler import random_separable_state, random_state
from gptsteer.vecs import outer

from oracles import check_farkas
from test_exactlp import _sphere_space

r = as_ratio


def _as_fraction_rows(rows):
    return [(tuple(Fraction(format_ratio(c)) for c in coeffs),
             Fraction(format_ratio(rhs))) for coeffs, rhs in rows]


def test_bipartite_shape_validation(gbit, classical2):
    with pytest.raises(ValueError):
        BipartiteState(gbit, classical2, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        BipartiteState(gbit, gbit, ((1, 0, 0), (0, 0, 0)))


def test_normalization_flag(gbit):
    state = BipartiteState(gbit, gbit, ((r(1, 2), 0, 0), (0, 0, 0), (0, 0, 0)))
    assert not state.is_normalized
    assert canonical_max_entangled(gbit).is_normalized


def test_product_state_matrix_and_probabilities(gbit, classical2, fiducials):
    X, Y = fiducials
    omega = State((1, 1, 1))
    tau = State((1, r(1, 2)))
    prod = product_state(gbit, omega, classical2, tau)
    assert prod.matrix == outer(omega.coords, tau.coords)
    e_b = Effect((0, 1))
    assert joint_probability(prod, X.effect("+"), e_b) \
        == probability(X.effect("+"), omega) * probability(e_b, tau)
    with pytest.raises(ValueError):
        product_state(gbit, State((r(1, 2), 0, 0)), classical2, tau)
    with pytest.raises(ValueError):
        product_state(gbit, State((1, 2, 0)), classical2, tau)


def test_mixing_bipartite(gbit, phi):
    prod = product_state(gbit, State((1, 1, 1)), gbit, State((1, -1, -1)))
    mixed = mix_bipartite_states((phi, prod), (r(1, 2), r(1, 2)))
    assert mixed.matrix[0][0] == r(1)
    with pytest.raises(ValueError):
        mix_bipartite_states((phi, prod), (r(1, 2), r(1, 4)))


def test_max_tensor_membership(gbit, phi):
    assert in_max_tensor(phi)
    assert max_tensor_violation(phi) is None
    prod = product_state(gbit, State((1, 1, 1)), gbit, State((1, 1, 1)))
    assert in_max_tensor(prod)
    # classical correlations stretched beyond the square break positivity
    too_far = BipartiteState(gbit, gbit, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert not in_max_tensor(too_far)
    ea, eb = max_tensor_violation(too_far)
    assert joint_probability(too_far, ea, eb) < 0


def _perturbed_product(space, raw, denominator):
    """The barycenter product plus a grid perturbation off entry (0, 0)."""
    center = barycenter(space).coords
    return BipartiteState(space, space, tuple(
        tuple(a * b + (0 if i == j == 0 else r(raw[i][j], denominator))
              for j, b in enumerate(center))
        for i, a in enumerate(center)))


# Coarse grids mostly leave the maximal tensor product, fine ones mostly stay.
_PERTURBATION = st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                         min_size=3, max_size=3)
_DENOMINATOR = st.sampled_from((8, 16, 64))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("classical-3", "polygon-5")), _PERTURBATION, _DENOMINATOR)
def test_max_tensor_equals_all_extremal_effect_pairs(name, raw, denominator):
    state = _perturbed_product(zoo_by_name(name), raw, denominator)
    effects = extremal_effects(state.space_a)
    brute = all(joint_probability(state, ea, eb) >= 0
                for ea in effects for eb in effects)
    assert in_max_tensor(state) == brute


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("gbit", "classical-3", "polygon-5")), _PERTURBATION,
       _DENOMINATOR)
def test_violation_is_a_negative_extremal_effect_pair(name, raw, denominator):
    state = _perturbed_product(zoo_by_name(name), raw, denominator)
    violation = max_tensor_violation(state)
    if violation is not None:
        effects = extremal_effects(state.space_a)
        ea, eb = violation
        assert ea in effects and eb in effects
        assert joint_probability(state, ea, eb) < 0


def test_phi_is_entangled_with_verified_certificate(gbit, phi):
    result = is_separable(phi)
    assert result.status == ENTANGLED
    assert result.decomposition is None
    assert verify_entanglement_certificate(phi, result.certificate)
    system = separability_system(phi)
    assert check_farkas(_as_fraction_rows(system.equalities),
                        _as_fraction_rows(system.inequalities),
                        [Fraction(format_ratio(m)) for m in result.certificate])


def test_product_state_is_separable(gbit, classical2):
    prod = product_state(gbit, State((1, r(1, 2), r(-1, 2))), classical2,
                         State((1, r(1, 3))))
    result = is_separable(prod)
    assert result.status == SEPARABLE
    dec = result.decomposition
    assert sum(dec.weights) == r(1)
    total = [[r(0)] * 2 for _ in range(3)]
    for w, (sa, sb) in zip(dec.weights, dec.pairs):
        block = outer(sa.coords, sb.coords)
        total = [[t + w * b for t, b in zip(trow, brow)]
                 for trow, brow in zip(total, block)]
    assert tuple(tuple(row) for row in total) == prod.matrix


def test_separability_rejects_outside_max_tensor(gbit):
    too_far = BipartiteState(gbit, gbit, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    with pytest.raises(ValueError):
        is_separable(too_far)


def test_refusals_name_normalization_before_the_cone(gbit, fiducials):
    # twice a product state: inside the cone of the maximal tensor product,
    # so the only thing wrong is its normalization
    doubled = BipartiteState(gbit, gbit, ((2, 0, 0), (0, 0, 0), (0, 0, 0)))
    too_far = BipartiteState(gbit, gbit, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    effect = fiducials[0].effect("+")
    with pytest.raises(ValueError, match="^state is not normalized$"):
        is_separable(doubled)
    with pytest.raises(ValueError, match="^state is not normalized$"):
        conditional_state(doubled, effect, "A")
    for check in (is_separable, lambda s: conditional_state(s, effect, "A")):
        with pytest.raises(ValueError, match="^state is not in the maximal tensor product$"):
            check(too_far)


def test_random_separable_states_are_in_both_cones(gbit, classical3):
    rng = random.Random(11)
    for _ in range(25):
        state = random_separable_state(gbit, classical3, rng)
        assert in_max_tensor(state)
        assert is_separable(state).status == SEPARABLE


def test_marginals(gbit, classical2, phi):
    assert marginal(phi, "A").coords == barycenter(gbit).coords
    assert marginal(phi, "B").coords == barycenter(gbit).coords
    omega = State((1, 1, -1))
    tau = State((1, r(1, 4)))
    prod = product_state(gbit, omega, classical2, tau)
    assert marginal(prod, "A").coords == omega.coords
    assert marginal(prod, "B").coords == tau.coords
    with pytest.raises(ValueError):
        marginal(prod, "C")
    with pytest.raises(ValueError):
        marginal(BipartiteState(gbit, gbit,
                                ((r(1, 2), 0, 0), (0, 0, 0), (0, 0, 0))), "A")


def test_conditioning_on_fiducials_steers_to_vertices(phi, fiducials):
    X, Y = fiducials
    expected = {("X", "+"): (1, 1, 1), ("X", "-"): (1, -1, -1),
                ("Y", "+"): (1, -1, 1), ("Y", "-"): (1, 1, -1)}
    for obs in (X, Y):
        for outcome, effect in obs.items():
            p, state = conditional_state(phi, effect, "A")
            assert p == r(1, 2)
            assert state.coords == tuple(r(c) for c in expected[(obs.label, outcome)])


def test_conditioning_edge_cases(gbit, phi):
    p, state = conditional_state(phi, gbit.unit, "A")
    assert p == r(1) and state.coords == marginal(phi, "B").coords
    with pytest.raises(NullConditioningError):
        conditional_state(phi, Effect((0, 0, 0)), "A")
    too_far = BipartiteState(gbit, gbit, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    with pytest.raises(ValueError):
        conditional_state(too_far, gbit.unit, "A")
    assert subnormalized_conditional(phi, Effect((0, 0, 0)), "A") == (r(0),) * 3


def test_no_signaling_and_conditional_chain(gbit, phi, fiducials):
    # summing the subnormalized conditionals of any observable on one side
    # must recover the other side's marginal, exactly
    X, Y = fiducials
    mu_b = marginal(phi, "B").coords
    for obs in (X, Y):
        total = (r(0),) * 3
        for _, effect in obs.items():
            vec = subnormalized_conditional(phi, effect, "A")
            total = tuple(t + v for t, v in zip(total, vec))
        assert total == mu_b
    # same on side B against the A marginal
    mu_a = marginal(phi, "A").coords
    total = (r(0),) * 3
    for _, effect in X.items():
        vec = subnormalized_conditional(phi, effect, "B")
        total = tuple(t + v for t, v in zip(total, vec))
    assert total == mu_a


def test_isomorphism_matrices_frozen(gbit, classical2):
    assert effect_to_state_isomorphism(gbit) == (
        (r(1), r(0), r(0)), (r(0), r(1), r(-1)), (r(0), r(1), r(1)))
    assert effect_to_state_isomorphism(classical2) == (
        (r(1), r(1, 2)), (r(1, 2), r(1, 2)))
    with pytest.raises(UnsupportedModelError):
        effect_to_state_isomorphism(zoo_polygon(5))


def test_canonical_state_gbit_frozen(phi):
    assert phi.matrix == ((r(1), r(0), r(0)),
                          (r(0), r(1), r(1)),
                          (r(0), r(-1), r(1)))


def test_canonical_state_on_simplices_is_diagonal_correlation():
    for n in (2, 3):
        space = zoo_classical(n)
        state = canonical_max_entangled(space)
        expected = [[r(0)] * n for _ in range(n)]
        for v in space.vertices:
            block = outer(v, v)
            expected = [[e + b / n for e, b in zip(erow, brow)]
                        for erow, brow in zip(expected, block)]
        assert state.matrix == tuple(tuple(row) for row in expected)
        assert in_max_tensor(state)
        assert marginal(state, "A").coords == barycenter(space).coords


def test_canonical_state_unsupported():
    with pytest.raises(UnsupportedModelError):
        canonical_max_entangled(zoo_polygon(5))


def test_correlated_classical_state_is_separable():
    space = zoo_classical(2)
    state = canonical_max_entangled(space)
    result = is_separable(state)
    assert result.status == SEPARABLE


def test_minimal_inside_maximal_random(gbit):
    rng = random.Random(3)
    for _ in range(10):
        a = random_state(gbit, rng)
        b = random_state(gbit, rng)
        assert in_max_tensor(product_state(gbit, a, gbit, b))


def test_separability_evidence_is_frozen(gbit, phi, monkeypatch):
    # Every is_separable status, decomposition and certificate, and the
    # (row, column) of every simplex pivot, on phi, on the gbit mixture
    # 3/5 phi + 2/5 (barycenter x barycenter), still entangled, and on
    # seeded separable states of gbit, polygon-5, polygon-8 and sphere-5.
    # The states are built before the recording starts. The digests were
    # taken while each separability LP still kept its rows as rationals
    # beside their integer form, so the integer rows alone change nothing.
    centers = product_state(gbit, barycenter(gbit), gbit, barycenter(gbit))
    rng = random.Random(26)
    states = [phi, mix_bipartite_states((phi, centers), (r(3, 5), r(2, 5)))]
    states += [random_separable_state(space, space, rng)
               for space in (gbit, zoo_polygon(5), zoo_polygon(8), _sphere_space())]
    pivots = []
    step = _Tableau.step
    monkeypatch.setattr(_Tableau, "step",
                        lambda self, *args: pivots.append(args[-2:]) or step(self, *args))
    results = [is_separable(state) for state in states]

    def ratios(values):
        return "-" if values is None else ",".join(map(format_ratio, values))

    lines = []
    for res in results:
        parts = res.decomposition
        pairs = "-" if parts is None else ";".join(
            ratios(a.coords) + "|" + ratios(b.coords) for a, b in parts.pairs)
        lines.append(f"{res.status} {ratios(parts and parts.weights)} {pairs} "
                     f"{ratios(res.certificate)}")
    assert [res.status for res in results] == [ENTANGLED, ENTANGLED] + [SEPARABLE] * 4
    assert len(pivots) == 188
    assert hashlib.sha256(repr(pivots).encode()).hexdigest() == \
        "a3cdbb4d8ee87a18f697e53887a6ed2c83f946d6e0efa9b0d74bd830ae2f5a37"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "1c1824b856ae46e74e9d529603bfec6daecbe9999103d3561f725fc2e8c6e4ae"
