"""Joint measurability: mothers, certificates, thresholds."""

import random
from fractions import Fraction

import pytest

from gptsteer.compatibility import (INCOMPATIBLE, JOINTLY_MEASURABLE,
                                    MotherObservable,
                                    check_joint_measurability,
                                    jm_linear_system, jm_noise_threshold,
                                    marginalize_mother, subset_jm_scan,
                                    verify_incompatibility_certificate)
from gptsteer.kernel import (LP_SIZE_CAP, Effect, Observable, depolarize_observable,
                             dichotomic_observable, mother_outcome_tuples,
                             trivial_observable)
from gptsteer.ratio import as_ratio, format_ratio
from gptsteer.sampler import random_dichotomic
from gptsteer.steering import assemblage_from, lhs_linear_system

from oracles import (ansatz_is_valid, ansatz_mother, check_farkas,
                     product_mother_effects,
                     sharp_fiducials_jm_region_vertices)

r = as_ratio


def _as_fraction_rows(rows):
    return [(tuple(Fraction(format_ratio(c)) for c in coeffs),
             Fraction(format_ratio(rhs))) for coeffs, rhs in rows]


def test_single_observable_is_jm(gbit, fiducials):
    X, _ = fiducials
    result = check_joint_measurability((X,), gbit)
    assert result.status == JOINTLY_MEASURABLE
    assert result.jointly_measurable
    got = marginalize_mother(result.mother, 0)
    assert tuple(e.coeffs for e in got.effects) == tuple(e.coeffs for e in X.effects)


def test_trivial_partner_never_hurts(gbit, fiducials):
    X, _ = fiducials
    result = check_joint_measurability((X, trivial_observable(gbit)), gbit)
    assert result.jointly_measurable


def test_classical_family_matches_product_mother(classical3):
    # on a simplex, measure-the-vertex-then-answer is an explicit mother
    # for any family; the oracle builds it, the library must agree JM
    e1 = Effect((r(1, 2), r(1, 4), r(1, 4)))
    e2 = Effect((r(1, 3), r(1, 3), r(0)))
    obs = (dichotomic_observable("A", classical3, e1),
           dichotomic_observable("B", classical3, e2))
    oracle_mother = product_mother_effects(
        tuple(tuple(Fraction(format_ratio(c)) for c in v)
              for v in classical3.vertices),
        tuple(tuple(tuple(Fraction(format_ratio(c)) for c in e.coeffs)
                    for e in o.effects) for o in obs))
    # the oracle mother marginalizes to the inputs
    for x in range(2):
        for k in range(2):
            total = [Fraction(0)] * 3
            for combo, g in oracle_mother.items():
                if combo[x] == k:
                    total = [t + c for t, c in zip(total, g)]
            expected = [Fraction(format_ratio(c)) for c in obs[x].effects[k].coeffs]
            assert total == expected
    result = check_joint_measurability(obs, classical3)
    assert result.jointly_measurable
    result.mother.validate()


def test_sharp_fiducials_incompatible(gbit, fiducials):
    X, Y = fiducials
    result = check_joint_measurability((X, Y), gbit)
    assert result.status == INCOMPATIBLE
    assert not result.jointly_measurable
    assert result.mother is None
    assert verify_incompatibility_certificate((X, Y), gbit, result.certificate)
    # certificate re-verified independently with plain Fractions
    system = jm_linear_system((X, Y), gbit)
    assert check_farkas(_as_fraction_rows(system.equalities),
                        _as_fraction_rows(system.inequalities),
                        [Fraction(format_ratio(m)) for m in result.certificate])
    # tampering breaks it
    broken = list(result.certificate)
    broken[0] += 1
    assert not verify_incompatibility_certificate((X, Y), gbit, broken)


def test_sharp_fiducials_incompatible_by_exhaustion():
    # independent proof: the 3-parameter feasible region for the mother's
    # (+,+) effect is bounded, so emptiness of its basic-point set is
    # emptiness of the region
    assert sharp_fiducials_jm_region_vertices() == ()


def test_jm_system_shape(gbit, fiducials):
    X, Y = fiducials
    system = jm_linear_system((X, Y), gbit)
    assert system.variable_count == 4 * 3
    assert len(system.equalities) == 3 + 2 * 2 * 3
    assert len(system.inequalities) == 4 * 4
    with pytest.raises(ValueError):
        jm_linear_system((), gbit)


def test_lp_size_cap_refuses_before_building(gbit, phi, fiducials):
    # k alternating X/Y copies have 2^k outcome tuples, times 4 gbit vertices
    X, Y = fiducials
    copies = [depolarize_observable((X, Y)[i % 2], r(1, 2)) for i in range(7)]
    assert 2 ** 6 * 4 == LP_SIZE_CAP
    system = jm_linear_system(copies[:6], gbit)
    assert len(system.inequalities) == LP_SIZE_CAP
    assert len(lhs_linear_system(assemblage_from(phi, copies[:6])).inequalities) == LP_SIZE_CAP
    message = f"512 \\(outcome tuple, vertex\\) pairs, more than the cap of {LP_SIZE_CAP}"
    with pytest.raises(ValueError, match=message):
        jm_linear_system(copies, gbit)
    with pytest.raises(ValueError, match=message):
        lhs_linear_system(assemblage_from(phi, copies))

def test_family_validation(gbit, classical2, fiducials):
    X, _ = fiducials
    c_obs = dichotomic_observable("c", classical2, Effect((r(1, 2), 0)))
    with pytest.raises(ValueError):
        check_joint_measurability((X, c_obs), gbit)
    not_normalized = Observable("bad", gbit, ("+", "-"),
                                (X.effect("+"), X.effect("+")))
    with pytest.raises(ValueError):
        check_joint_measurability((not_normalized,), gbit)


def test_depolarized_fiducials_at_half_match_ansatz(gbit, fiducials):
    X, Y = fiducials
    half = r(1, 2)
    noisy = (depolarize_observable(X, half), depolarize_observable(Y, half))
    result = check_joint_measurability(noisy, gbit)
    assert result.jointly_measurable
    # the symmetric ansatz is itself a valid mother at this level
    assert ansatz_is_valid(Fraction(1, 2))
    candidate = ansatz_mother(Fraction(1, 2))
    effects = tuple(Effect(tuple(r(str(c)) for c in candidate[(a, b)]))
                    for a in (1, -1) for b in (1, -1))
    mother = MotherObservable(noisy, mother_outcome_tuples(noisy), effects)
    mother.validate()


def test_ansatz_fails_just_above_half():
    assert not ansatz_is_valid(Fraction(33, 64))
    assert not ansatz_is_valid(Fraction(3, 4))


def test_incompatible_just_above_half(gbit, fiducials):
    X, Y = fiducials
    level = r(33, 64)
    noisy = (depolarize_observable(X, level), depolarize_observable(Y, level))
    assert check_joint_measurability(noisy, gbit).status == INCOMPATIBLE


def test_noise_threshold_bracket_frozen(gbit, fiducials):
    X, Y = fiducials
    lo, hi = jm_noise_threshold((X, Y), gbit, r(1, 128))
    assert (lo, hi) == (r(1, 2), r(65, 128))
    # bracket endpoints justified by direct probes
    for level, expected in ((lo, True), (hi, False)):
        noisy = [depolarize_observable(o, level) for o in (X, Y)]
        assert check_joint_measurability(noisy, gbit).jointly_measurable == expected


def test_noise_threshold_trivial_family(classical2):
    a = dichotomic_observable("a", classical2, Effect((r(1, 2), r(1, 4))))
    b = dichotomic_observable("b", classical2, Effect((r(1, 4), r(1, 2))))
    assert jm_noise_threshold((a, b), classical2, r(1, 16)) == (r(1), r(1))


def test_noise_threshold_rejects_bad_precision(gbit, fiducials):
    X, Y = fiducials
    with pytest.raises(ValueError):
        jm_noise_threshold((X, Y), gbit, 0)
    with pytest.raises(ValueError):
        jm_noise_threshold((X, Y), gbit, r(-1, 4))


def test_compatibility_monotone_in_noise(gbit, fiducials):
    X, Y = fiducials
    verdicts = []
    for level in (r(1, 4), r(1, 2), r(9, 16), r(3, 4), r(1)):
        noisy = [depolarize_observable(o, level) for o in (X, Y)]
        verdicts.append(check_joint_measurability(noisy, gbit).jointly_measurable)
    assert verdicts == [True, True, False, False, False]
    # once incompatible, lowering visibility never breaks compatibility
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert earlier or not later


def test_marginalize_mother_roundtrip(gbit, fiducials):
    X, Y = fiducials
    half = r(1, 2)
    noisy = (depolarize_observable(X, half), depolarize_observable(Y, half))
    mother = check_joint_measurability(noisy, gbit).mother
    for i, original in enumerate(noisy):
        got = marginalize_mother(mother, i)
        assert tuple(e.coeffs for e in got.effects) \
            == tuple(e.coeffs for e in original.effects)
        assert got.outcomes == original.outcomes
    with pytest.raises(ValueError):
        marginalize_mother(mother, 2)


def test_mother_validation_catches_corruption(gbit, fiducials):
    X, Y = fiducials
    half = r(1, 2)
    noisy = (depolarize_observable(X, half), depolarize_observable(Y, half))
    mother = check_joint_measurability(noisy, gbit).mother
    # swap two effects: marginals break
    effects = list(mother.effects)
    effects[0], effects[1] = effects[1], effects[0]
    tampered = MotherObservable(mother.axes, mother.outcome_tuples, tuple(effects))
    with pytest.raises(ValueError):
        tampered.validate()
    # wrong tuple order
    with pytest.raises(ValueError):
        MotherObservable(mother.axes, tuple(reversed(mother.outcome_tuples)),
                         mother.effects).validate()


def test_subset_scan(gbit, fiducials):
    X, Y = fiducials
    scan = subset_jm_scan((X, Y), gbit)
    assert scan[(0,)] == JOINTLY_MEASURABLE
    assert scan[(1,)] == JOINTLY_MEASURABLE
    assert scan[(0, 1)] == INCOMPATIBLE
    with pytest.raises(ValueError):
        subset_jm_scan((X,) * 5, gbit)


def test_jm_is_monotone_under_subsets(gbit):
    # any subset of a jointly measurable family stays jointly measurable
    rng = random.Random(99)
    for _ in range(8):
        family = tuple(random_dichotomic(gbit, rng, 4, f"m{i}") for i in range(3))
        scan = subset_jm_scan(family, gbit)
        full = scan[(0, 1, 2)]
        if full == JOINTLY_MEASURABLE:
            assert all(status == JOINTLY_MEASURABLE for status in scan.values())
        for pair in ((0, 1), (0, 2), (1, 2)):
            if scan[pair] == INCOMPATIBLE:
                assert full == INCOMPATIBLE
