"""Noise thresholds: one exact LP per call, cross-checked against bisection.

The bisection below is the threshold contract written out over the
feasibility checks: (1, 1) when the family passes sharp, otherwise halve
[0, 1], probing each midpoint with its own LP, until the bracket is no
wider than the precision. The library derives the same bracket from
the exact critical visibility without probing, so every case here must
come out identical.
"""

import hashlib
import logging
import math
import random

import pytest

import gptsteer.compatibility as compatibility
import gptsteer.steering as steering
from gptsteer.compatibility import (check_joint_measurability, jm_critical_visibility,
                                    jm_linear_system, jm_noise_threshold)
from gptsteer.composites import canonical_max_entangled
from gptsteer.kernel import (Effect, Observable, depolarize_observable,
                             dichotomic_observable, extremal_effects, zoo_classical,
                             zoo_polygon)
from gptsteer.ratio import ONE, ZERO, as_ratio, format_ratio
from gptsteer.sampler import (SamplerConfig, random_max_tensor_state,
                              random_observable_set)
from gptsteer.steering import (assemblage_from, check_lhs, is_steerable_state,
                               lhs_critical_visibility, lhs_noise_threshold)

r = as_ratio


def bisect(holds_at, precision):
    if holds_at(ONE):
        return (ONE, ONE)
    lo, hi = ZERO, ONE
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if holds_at(mid):
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def noisy(observables, level):
    return tuple(depolarize_observable(o, level) for o in observables)


def jm_bisect(observables, space, precision):
    return bisect(lambda level: check_joint_measurability(
        noisy(observables, level), space).jointly_measurable, precision)


def lhs_bisect(observables, state, precision):
    return bisect(lambda level: check_lhs(
        assemblage_from(state, noisy(observables, level))).unsteerable, precision)


def rotated_pairs(gbit, seed, count):
    """Seeded sharp gbit effects, each with its quarter turn, incompatible sharp."""
    rng = random.Random(seed)
    config = SamplerConfig(seed=seed, min_observables=1, max_observables=1)
    half = r(1, 2)
    pairs = []
    while len(pairs) < count:
        (obs,) = random_observable_set(gbit, rng, config)
        _, c1, c2 = obs.effects[0].coeffs
        spread = abs(c1) + abs(c2)
        if spread == 0:
            continue
        a, b = half * c1 / spread, half * c2 / spread
        family = (dichotomic_observable("u", gbit, Effect((half, a, b))),
                  dichotomic_observable("v", gbit, Effect((half, -b, a))))
        if not check_joint_measurability(family, gbit).jointly_measurable:
            pairs.append(family)
    return pairs


def quarter_turn_pair(n):
    """Two sharp polygon-n effects a quarter of the way round from each other."""
    space = zoo_polygon(n)
    sharp = [e for e in extremal_effects(space) if any(e.coeffs[1:])]
    sharp.sort(key=lambda e: math.atan2(e.coeffs[2], e.coeffs[1]))
    return space, (dichotomic_observable("a", space, sharp[0]),
                   dichotomic_observable("b", space, sharp[len(sharp) // 4]))


@pytest.mark.parametrize("precision, expected", [
    (r(1, 128), (r(1, 2), r(65, 128))),
    (r(1, 3), (r(1, 2), r(3, 4))),
    (r(2), (r(0), r(1))),
])
def test_fiducial_brackets_match_bisection(gbit, phi, fiducials, precision, expected):
    assert jm_noise_threshold(fiducials, gbit, precision) == expected
    assert lhs_noise_threshold(fiducials, phi, precision) == expected
    assert jm_bisect(fiducials, gbit, precision) == expected
    assert lhs_bisect(fiducials, phi, precision) == expected


@pytest.mark.parametrize("seed", [3, 17])
def test_rotated_gbit_pairs_match_bisection(gbit, phi, seed):
    precision = r(1, 32)
    for family in rotated_pairs(gbit, seed, 2):
        bracket = jm_noise_threshold(family, gbit, precision)
        assert bracket != (ONE, ONE)
        assert bracket == jm_bisect(family, gbit, precision)
        assert lhs_noise_threshold(family, phi, precision) == bracket
        assert lhs_bisect(family, phi, precision) == bracket


@pytest.mark.parametrize("n", [5, 6, 8])
def test_polygon_quarter_turn_pairs_match_bisection(n):
    space, pair = quarter_turn_pair(n)
    precision = r(1, 32)
    bracket = jm_noise_threshold(pair, space, precision)
    assert bracket == jm_bisect(pair, space, precision)
    lo, hi = bracket
    assert lo <= jm_critical_visibility(pair, space) < hi


def test_lhs_bracket_on_a_seeded_entangled_state(gbit, fiducials):
    # off the canonical state the steering threshold is its own number
    state = random_max_tensor_state(gbit, gbit, random.Random(5), 8)
    precision = r(1, 16)
    assert lhs_noise_threshold(fiducials, state, precision) == \
        lhs_bisect(fiducials, state, precision)


def test_compatible_sharp_family_gives_one_one():
    space = zoo_classical(2)
    state = canonical_max_entangled(space)
    a = dichotomic_observable("a", space, Effect((r(1, 2), r(1, 4))))
    b = dichotomic_observable("b", space, Effect((r(1, 4), r(1, 2))))
    for precision in (r(1, 16), r(2)):
        assert jm_noise_threshold((a, b), space, precision) == (ONE, ONE)
        assert lhs_noise_threshold((a, b), state, precision) == (ONE, ONE)
        assert jm_bisect((a, b), space, precision) == (ONE, ONE)
    assert jm_critical_visibility((a, b), space) == ONE
    assert lhs_critical_visibility((a, b), state) == ONE


def test_each_threshold_call_runs_one_lp(monkeypatch, gbit, phi, fiducials):
    calls = []
    clean = compatibility.lp_optimize

    def counted(*args, **kwargs):
        calls.append("lp_optimize")
        return clean(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a threshold ran a feasibility LP")

    monkeypatch.setattr(compatibility, "lp_optimize", counted)
    monkeypatch.setattr(compatibility, "lp_feasible", forbidden)
    monkeypatch.setattr(steering, "lp_feasible", forbidden)
    jm_noise_threshold(fiducials, gbit, r(1, 128))
    assert calls == ["lp_optimize"]
    lhs_noise_threshold(fiducials, phi, r(1, 128))
    assert calls == ["lp_optimize"] * 2


def test_debug_line_per_threshold_call(caplog, gbit, phi, fiducials):
    with caplog.at_level(logging.DEBUG, logger="gptsteer.compatibility"):
        jm_noise_threshold(fiducials, gbit, r(1, 128))
        lhs_noise_threshold(fiducials, phi, r(1, 128))
    lines = [rec.getMessage() for rec in caplog.records
             if rec.name == "gptsteer.compatibility"]
    assert lines == [
        "JM noise threshold: critical level 1/2, bracket [1/2, 65/128]",
        "LHS noise threshold: critical level 1/2, bracket [1/2, 65/128]",
    ]


def test_lhs_threshold_validates_the_family_first(gbit, phi, fiducials):
    half, quarter = r(1, 2), r(1, 4)
    # both effects are valid, but they do not sum to the unit
    bad = Observable("bad", gbit, ("0", "1"),
                     (Effect((half, half, 0)), Effect((quarter, 0, 0))))
    with pytest.raises(ValueError, match="observable 'bad' is not valid"):
        lhs_noise_threshold((fiducials[0], bad), phi, r(1, 8))
    with pytest.raises(ValueError, match="observable 'bad' is not valid"):
        jm_noise_threshold((fiducials[0], bad), gbit, r(1, 8))
    with pytest.raises(ValueError, match="observable 'bad' is not valid"):
        is_steerable_state(phi, (fiducials[0], bad))
    other = dichotomic_observable("c", zoo_classical(3), Effect((1, 0, 0)))
    with pytest.raises(ValueError, match="'c' lives on a different space"):
        lhs_noise_threshold((other,), phi, r(1, 8))


def test_critical_visibilities_validate_the_family_once_per_build(gbit, phi, fiducials,
                                                                  monkeypatch):
    # each side builds its LP once, from the sharp family, and checks that
    # family once; the level-0 right-hand side needs no second check
    checked = []
    valid = compatibility.is_valid_observable
    monkeypatch.setattr(compatibility, "is_valid_observable",
                        lambda obs: checked.append(obs.label) or valid(obs))
    jm_critical_visibility(fiducials, gbit)
    assert checked == ["X", "Y"]
    checked.clear()
    lhs_critical_visibility(fiducials, phi)
    assert checked == ["X", "Y"]


def test_each_critical_visibility_builds_its_lp_once(gbit, phi, fiducials, monkeypatch):
    built = []
    for module, name in ((compatibility, "jm_linear_system"), (steering, "lhs_linear_system")):
        clean = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, clean=clean, name=name:
                            built.append(name) or clean(*args))
    assert jm_critical_visibility(fiducials, gbit) == r(1, 2)
    assert built == ["jm_linear_system"]
    built.clear()
    assert lhs_critical_visibility(fiducials, phi) == r(1, 2)
    assert built == ["lhs_linear_system"]


def lp_digest(system):
    """SHA-256 of the variable count, then each row's entries and rhs,
    equalities first."""
    lines = [str(system.variable_count)]
    for sense, rows in (("==", system.equalities), (">=", system.inequalities)):
        lines += [" ".join(map(format_ratio, coeffs)) + f" {sense} " + format_ratio(rhs)
                  for coeffs, rhs in rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_critical_level_lps_are_frozen(gbit, phi, fiducials, monkeypatch):
    # (variables, equalities, inequalities, digest) of each eta-LP, for the
    # fiducials and the first seed-3 rotated pair, JM then LHS
    seen = []
    clean = compatibility.lp_optimize
    monkeypatch.setattr(compatibility, "lp_optimize", lambda objective, system, sense:
                        seen.append(system) or clean(objective, system, sense))
    for family in (fiducials, rotated_pairs(gbit, 3, 1)[0]):
        jm_critical_visibility(family, gbit)
        lhs_critical_visibility(family, phi)
    assert [(s.variable_count, len(s.equalities), len(s.inequalities), lp_digest(s))
            for s in seen] == [
        (13, 15, 18, "57d8322d6e883b551d12198a9ef45c503271b4b5c8336c17b89cdeee59075a40"),
        (17, 12, 18, "843cc02cce5265c03bd54e16fe18838056bd862378f271ff9d0196459957ce66"),
        (13, 15, 18, "4906908af2cab8b959bef5b76e5d77a7140f8632ecc8865d3bb865b43893b9e9"),
        (17, 12, 18, "c14fca073a909d0fb30bc7b308a0529d526020c510ad4d126919134196c9a32f"),
    ]


def test_critical_level_needs_one_level_zero_rhs_per_equality(gbit, fiducials):
    sharp = jm_linear_system(fiducials, gbit)
    for count in (sharp.n_eq - 1, sharp.n_eq + 1):
        with pytest.raises(ValueError):
            compatibility._critical_level(sharp, [ZERO] * count)


def test_lhs_critical_visibility_tests_the_state_once(phi, fiducials, monkeypatch):
    # the sharp assemblage checks max-tensor membership; the level-0
    # right-hand side is steered out of the same state and not checked again
    tested = []
    member = steering.in_max_tensor
    monkeypatch.setattr(steering, "in_max_tensor",
                        lambda state: tested.append(state) or member(state))
    lhs_critical_visibility(fiducials, phi)
    assert tested == [phi]


@pytest.mark.parametrize("precision", [0, r(-1, 2), "0/3"])
def test_both_thresholds_check_the_precision_first(gbit, phi, fiducials, precision,
                                                   monkeypatch):
    # one precision rule, applied before any LP is built
    def forbidden(*args, **kwargs):
        raise AssertionError("a threshold ran before checking its precision")

    monkeypatch.setattr(compatibility, "jm_critical_visibility", forbidden)
    monkeypatch.setattr(steering, "lhs_critical_visibility", forbidden)
    with pytest.raises(ValueError, match="precision must be positive"):
        jm_noise_threshold(fiducials, gbit, precision)
    with pytest.raises(ValueError, match="precision must be positive"):
        lhs_noise_threshold(fiducials, phi, precision)
