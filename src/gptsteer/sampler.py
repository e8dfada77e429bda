"""Seeded random model ingredients.

Effects are drawn as coefficient vectors with a fixed small denominator
and accepted by rejection against validity; states are vertex mixtures
with rational weights; bipartite draws are products or mixtures of
products, hence always inside the maximal tensor product. Every draw
goes through random.Random, whose core generator is stable across
platforms, so a fixed seed reproduces byte-identical downstream reports.
No float ever reaches a decision path: the generator only picks integer
numerators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .composites import BipartiteState, mix_bipartite_states, product_state
from .exactlp import convex_member
from .kernel import (Effect, Observable, State, StateSpace,
                     dichotomic_observable, is_valid_effect)
from .ratio import as_ratio
from .vecs import combine

_REJECTION_CAP = 10_000


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for random observable sets used by the equivalence experiment."""

    seed: int
    denominator: int = 8
    min_observables: int = 2
    max_observables: int = 3

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        if not 1 <= self.min_observables <= self.max_observables:
            raise ValueError("need 1 <= min_observables <= max_observables")


def make_rng(config: SamplerConfig) -> random.Random:
    return random.Random(config.seed)


def random_effect(space: StateSpace, rng: random.Random, denominator: int = 8) -> Effect:
    """Rejection-sample a valid effect with denominator-bounded coefficients."""
    for _ in range(_REJECTION_CAP):
        coeffs = [as_ratio(rng.randint(0, denominator), denominator)]
        coeffs += [as_ratio(rng.randint(-denominator, denominator), denominator)
                   for _ in range(space.ambient_dim - 1)]
        if is_valid_effect(coeffs, space):
            return Effect(coeffs)
    raise ValueError(f"rejection sampling found no valid effect in {_REJECTION_CAP} draws")


def random_dichotomic(space: StateSpace, rng: random.Random,
                      denominator: int = 8, label: str = "rand") -> Observable:
    return dichotomic_observable(label, space, random_effect(space, rng, denominator))


def random_observable_set(space: StateSpace, rng: random.Random,
                          config: SamplerConfig) -> tuple[Observable, ...]:
    count = rng.randint(config.min_observables, config.max_observables)
    return tuple(random_dichotomic(space, rng, config.denominator, f"rand-{i}")
                 for i in range(count))


def random_state(space: StateSpace, rng: random.Random, denominator: int = 8) -> State:
    """Random vertex mixture with rational weights."""
    return State(combine(_random_weights(rng, len(space.vertices), denominator),
                         space.vertices))


def _random_weights(rng: random.Random, count: int, denominator: int) -> list:
    """count numerators drawn from 0..denominator, redrawn until one is
    nonzero, then normalized to sum to one."""
    while True:
        raw = [rng.randint(0, denominator) for _ in range(count)]
        total = sum(raw)
        if total:
            return [as_ratio(n, total) for n in raw]


def random_product_state(space_a: StateSpace, space_b: StateSpace,
                         rng: random.Random, denominator: int = 8) -> BipartiteState:
    return product_state(space_a, random_state(space_a, rng, denominator),
                         space_b, random_state(space_b, rng, denominator))


def random_separable_state(space_a: StateSpace, space_b: StateSpace,
                           rng: random.Random, denominator: int = 8) -> BipartiteState:
    """Random mixture of two to four random product states (a
    minimal-tensor element)."""
    count = rng.randint(2, 4)
    parts = [random_product_state(space_a, space_b, rng, denominator)
             for _ in range(count)]
    return mix_bipartite_states(parts, _random_weights(rng, count, denominator))


def random_max_tensor_state(space_a: StateSpace, space_b: StateSpace,
                            rng: random.Random, denominator: int = 8) -> BipartiteState:
    """A random product or a random mixture of products, evenly split."""
    if rng.randint(0, 1):
        return random_product_state(space_a, space_b, rng, denominator)
    return random_separable_state(space_a, space_b, rng, denominator)


def random_decomposition(space: StateSpace, target: State,
                         rng: random.Random) -> tuple[tuple, ...]:
    """Random finite decomposition target = sum of weight * state.

    Draws two to four candidate states, denominator 8, until the target
    lies in their convex hull, then reads exact weights off the
    membership LP; zero-weight components are dropped. Returns
    ((weight, State), ...).
    """
    for _ in range(_REJECTION_CAP):
        count = rng.randint(2, 4)
        states = [random_state(space, rng, 8) for _ in range(count)]
        membership = convex_member(target.coords, [s.coords for s in states])
        if membership.feasible:
            pairs = tuple((w, s) for w, s in zip(membership.witness, states) if w != 0)
            if pairs:
                return pairs
    raise ValueError(f"rejection sampling found no decomposition in {_REJECTION_CAP} draws")
