"""Acceptance gate: one test per headline guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines. Every
check is exact; there are no tolerances anywhere.
"""

import functools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import gptsteer
from gptsteer.compatibility import (MotherObservable, check_joint_measurability,
                                    jm_critical_visibility, jm_linear_system,
                                    jm_noise_threshold, marginalize_mother)
from gptsteer.composites import (canonical_max_entangled, conditional_state,
                                 in_max_tensor, marginal, product_state,
                                 subnormalized_conditional)
from gptsteer.kernel import (Effect, State, depolarize_observable,
                             extremal_effects, mother_outcome_tuples)
from gptsteer.ratio import as_ratio, format_ratio
from gptsteer.sampler import (SamplerConfig, make_rng, random_max_tensor_state,
                              random_observable_set, random_separable_state)
from gptsteer.steering import (assemblage_from, check_lhs, jm_to_lhs,
                               lhs_critical_visibility, lhs_linear_system,
                               lhs_noise_threshold, lhs_to_mother,
                               reconstruct_assemblage, theorem_verify)

from oracles import (ansatz_is_valid, ansatz_mother, check_farkas,
                     effect_polytope_vertices)

r = as_ratio

SEED = 2024
N_TRIALS = 100
EXTRA_STATES = 10


def _fr(x):
    return Fraction(format_ratio(x))


def _fr_rows(rows):
    return [(tuple(_fr(c) for c in coeffs), _fr(rhs)) for coeffs, rhs in rows]


def criterion(number, name):
    """Emit exactly one ACCEPTANCE line per criterion, pass or fail."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")
        return run
    return wrap


@pytest.fixture(scope="module")
def gbit_run(gbit, fiducials):
    """The shared equivalence run: fixed probes first, then seeded trials."""
    X, Y = fiducials
    fixed = ((X, Y),)
    fixed += tuple((depolarize_observable(X, eta), depolarize_observable(Y, eta))
                   for eta in (r(1, 4), r(1, 2), r(3, 4)))
    start = time.monotonic()
    report = theorem_verify(gbit, N_TRIALS, SamplerConfig(seed=SEED),
                            extra_states_per_jm_trial=EXTRA_STATES,
                            fixed_sets=fixed)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def classical_runs(classical2, classical3):
    return {space.label: theorem_verify(space, N_TRIALS, SamplerConfig(seed=SEED))
            for space in (classical2, classical3)}


@criterion(1, "theorem equivalence on the gbit")
def test_equivalence_on_gbit(gbit_run):
    report, elapsed = gbit_run
    assert len(report.trials) == N_TRIALS + 4
    assert report.disagreements == 0
    assert all(t.agree for t in report.trials)
    # the fixed probes land exactly where they must
    sharp, quarter, half, threequarter = report.trials[:4]
    assert not sharp.jm.jointly_measurable and not sharp.lhs.unsteerable
    assert quarter.jm.jointly_measurable and quarter.lhs.unsteerable
    assert half.jm.jointly_measurable and half.lhs.unsteerable
    assert not threequarter.jm.jointly_measurable
    assert elapsed < 120


@criterion(2, "every compatible family leaves every max-tensor state unsteerable")
def test_if_direction_universality(gbit_run, phi):
    report, _ = gbit_run
    jm_trials = [t for t in report.trials if t.jm.jointly_measurable]
    assert jm_trials
    assert report.extra_failures == 0
    for t in jm_trials:
        assert t.extra_states == EXTRA_STATES
        assert t.extra_all_unsteerable is True
        assert t.extra_all_reconstructed is True
        # the mother-derived model reproduces the canonical assemblage too
        model = jm_to_lhs(t.jm.mother, phi)
        assert reconstruct_assemblage(model).elements == \
            assemblage_from(phi, t.observables).elements


@criterion(3, "local models convert back to mother observables")
def test_only_if_roundtrip(gbit_run, phi):
    report, _ = gbit_run
    jm_trials = [t for t in report.trials if t.jm.jointly_measurable][:25]
    assert len(jm_trials) == 25
    for t in jm_trials:
        model = jm_to_lhs(t.jm.mother, phi)
        mother = lhs_to_mother(model, phi)
        mother.validate()
        for rebuilt, original in zip(mother.axes, t.observables):
            assert rebuilt.outcomes == original.outcomes
            assert tuple(e.coeffs for e in rebuilt.effects) == \
                tuple(e.coeffs for e in original.effects)


@criterion(4, "noise threshold brackets 1/2 and both sides coincide")
def test_noise_threshold(gbit, phi, fiducials):
    precision = r(1, 128)
    lo, hi = jm_noise_threshold(fiducials, gbit, precision)
    assert lo <= r(1, 2) < hi
    assert hi - lo <= precision
    assert (lo, hi) == (r(1, 2), r(65, 128))
    # feasibility exactly at 1/2 against the closed-form symmetric mother
    assert ansatz_is_valid(Fraction(1, 2))
    X, Y = fiducials
    noisy = (depolarize_observable(X, r(1, 2)), depolarize_observable(Y, r(1, 2)))
    candidate = ansatz_mother(Fraction(1, 2))
    mother = MotherObservable(
        noisy, mother_outcome_tuples(noisy),
        tuple(Effect(tuple(r(c.numerator, c.denominator)
                           for c in candidate[(a, b)]))
              for a in (1, -1) for b in (1, -1)))
    mother.validate()
    # the steering side bisects to the same bracket
    assert lhs_noise_threshold(fiducials, phi, precision) == (lo, hi)


@criterion(5, "classical models are always compatible and unsteerable")
def test_classical_collapse(classical_runs):
    for report in classical_runs.values():
        assert len(report.trials) == N_TRIALS
        assert report.all_agree
        assert all(t.jm.jointly_measurable for t in report.trials)
        assert all(t.lhs.unsteerable for t in report.trials)


@criterion(6, "framework invariants")
def test_framework_invariants(gbit, classical2, classical3, phi, fiducials,
                              gbit_run):
    report, _ = gbit_run
    # no-signaling of every constructed assemblage, exactly
    for t in report.trials:
        assemblage_from(phi, t.observables).validate()
    # conditional/marginal consistency: sum_l p(l) * conditioned(l) = marginal
    rng = random.Random(SEED)
    states = [phi,
              product_state(gbit, State((1, 1, -1)), gbit, State((1, 0, 0))),
              random_max_tensor_state(gbit, gbit, rng, 8)]
    for state in states:
        mu = marginal(state, "B").coords
        for obs in fiducials:
            total = (r(0),) * 3
            for _, effect in obs.items():
                vec = subnormalized_conditional(state, effect, "A")
                if vec[0] != r(0):
                    p, conditioned = conditional_state(state, effect, "A")
                    assert tuple(p * c for c in conditioned.coords) == vec
                total = tuple(tt + v for tt, v in zip(total, vec))
            assert total == mu
    # minimal tensor product sits inside the maximal one
    for _ in range(50):
        assert in_max_tensor(random_separable_state(gbit, gbit, rng))
    for _ in range(50):
        assert in_max_tensor(random_separable_state(gbit, classical3, rng))
    # extremal effect counts match the brute-force oracle
    for space, count in ((classical2, 4), (gbit, 6)):
        assert len(extremal_effects(space)) == count
        oracle = effect_polytope_vertices(
            [tuple(_fr(c) for c in v) for v in space.vertices])
        assert len(oracle) == count


@criterion(7, "every verdict re-verifies from its certificate or witness")
def test_certificate_audit(gbit, classical2, classical3, phi, gbit_run,
                           classical_runs):
    report, _ = gbit_run
    spaces = {"gbit": gbit, "classical-2": classical2,
              "classical-3": classical3}
    runs = [(gbit, phi, report)]
    for label, rep in classical_runs.items():
        runs.append((spaces[label], canonical_max_entangled(spaces[label]), rep))
    for space, state, rep in runs:
        for t in rep.trials:
            if t.jm.jointly_measurable:
                t.jm.mother.validate()
                for axis_index, original in enumerate(t.observables):
                    rebuilt = marginalize_mother(t.jm.mother, axis_index)
                    assert tuple(e.coeffs for e in rebuilt.effects) == \
                        tuple(e.coeffs for e in original.effects)
            else:
                system = jm_linear_system(t.observables, space)
                assert check_farkas(_fr_rows(system.equalities),
                                    _fr_rows(system.inequalities),
                                    [_fr(c) for c in t.jm.certificate])
            asm = assemblage_from(state, t.observables)
            if t.lhs.unsteerable:
                t.lhs.model.validate()
                assert reconstruct_assemblage(t.lhs.model).elements == \
                    asm.elements
            else:
                system = lhs_linear_system(asm)
                assert check_farkas(_fr_rows(system.equalities),
                                    _fr_rows(system.inequalities),
                                    [_fr(c) for c in t.lhs.certificate])


@criterion(8, "fixed-seed runs are byte-identical")
def test_determinism():
    args = [sys.executable, "-m", "gptsteer", "theorem-verify",
            "--model", "gbit", "--trials", "20", "--seed", "7"]
    # the children import the package this process imported, installed or not
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gptsteer.__file__)))
    first = subprocess.run(args, capture_output=True, env=env)
    second = subprocess.run(args, capture_output=True, env=env)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty report


@criterion(9, "critical visibilities for JM and LHS coincide exactly")
def test_critical_visibilities_coincide(gbit, phi, fiducials):
    config = SamplerConfig(seed=SEED, min_observables=2, max_observables=3)
    rng = make_rng(config)
    families = [fiducials]
    while len(families) < 9:
        family = random_observable_set(gbit, rng, config)
        if not check_joint_measurability(family, gbit).jointly_measurable:
            families.append(family)
    for family in families:
        critical = jm_critical_visibility(family, gbit)
        assert critical == lhs_critical_visibility(family, phi)
        assert r(0) < critical < r(1)
        # both sides hold at the critical level and fail just above it
        above = critical + (1 - critical) / 1024
        for level, holds in ((critical, True), (above, False)):
            noisy = tuple(depolarize_observable(o, level) for o in family)
            assert check_joint_measurability(noisy, gbit).jointly_measurable == holds
            assert check_lhs(assemblage_from(phi, noisy)).unsteerable == holds
    assert jm_critical_visibility(fiducials, gbit) == r(1, 2)
