"""Exact convex-operational toolkit: joint measurability and steering.

States, effects and observables over polytopic state spaces with
rational coordinates; an exact LP core with Farkas certificates; the
maximal and minimal tensor products; and the two constructions tying
compatibility of Alice's observables to unsteerability of the
assemblages they produce on a canonical maximally entangled state.
"""

from .compatibility import (INCOMPATIBLE, JOINTLY_MEASURABLE, JmResult,
                            MotherObservable, check_joint_measurability,
                            jm_critical_visibility, jm_linear_system,
                            jm_noise_threshold, marginalize_mother, subset_jm_scan,
                            verify_incompatibility_certificate)
from .composites import (ENTANGLED, SEPARABLE, BipartiteState,
                         SeparabilityResult, SeparableDecomposition,
                         canonical_max_entangled, conditional_state,
                         effect_to_state_isomorphism, in_max_tensor,
                         is_separable, joint_probability, marginal,
                         max_tensor_violation, mix_bipartite_states,
                         product_state, separability_system,
                         subnormalized_conditional,
                         verify_entanglement_certificate)
from .errors import (ConstructionError, NotRemotelyPreparableError,
                     NullConditioningError, SchemaError,
                     UnboundedRegionError, UnsupportedModelError,
                     VerificationError)
from .exactlp import (FeasibilityResult, LinearSystem, OptimizationResult,
                      certifies_optimum, cone_member, convex_member, lp_feasible,
                      lp_optimize, refutes, satisfies, vertex_enumerate)
from .kernel import (Effect, Observable, State, StateSpace, barycenter,
                     depolarize_observable, dichotomic_observable,
                     extremal_effects, in_state_cone, is_valid_effect,
                     is_valid_observable, is_valid_state, mix_effects,
                     mix_states, probability, square_fiducials,
                     state_cone_facets, trivial_observable, unit_effect,
                     zero_effect, zoo_by_name, zoo_classical, zoo_gbit,
                     zoo_names, zoo_polygon)
from .ratio import RATIONAL_BACKEND, as_ratio, format_ratio, parse_ratio
from .sampler import (SamplerConfig, make_rng, random_decomposition,
                      random_dichotomic, random_effect, random_max_tensor_state,
                      random_observable_set, random_product_state,
                      random_separable_state, random_state)
from .steering import (STEERABLE, UNSTEERABLE, Assemblage, LhsLambda, LhsModel,
                       LhsResult, PreparationReport, TheoremReport,
                       TheoremTrial, assemblage_from, check_lhs,
                       conditioning_system, find_conditioning_effect,
                       functional_strategy_bound, functional_value,
                       is_steerable_state, is_strongly_steerable_for,
                       jm_to_lhs, lhs_critical_visibility, lhs_linear_system,
                       lhs_noise_threshold, lhs_to_mother, reconstruct_assemblage,
                       theorem_verify)

__version__ = "0.1.0"
