"""Error types with domain meaning, shared across modules."""

from __future__ import annotations


class UnboundedRegionError(ValueError):
    """Vertex enumeration was asked for an unbounded polyhedron."""


class UnsupportedModelError(ValueError):
    """The state space does not support the requested construction."""


class NullConditioningError(ValueError):
    """Normalized conditioning on an effect with zero probability."""


class NotRemotelyPreparableError(RuntimeError):
    """No valid effect on one side prepares the requested target on the other.

    Carries the Farkas certificate of the underlying linear program in
    ``certificate`` (aligned with the rows of ``conditioning_system``).
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ConstructionError(RuntimeError):
    """An internal consistency check of a derived object failed.

    Raised e.g. when per-hidden-state conditioning effects do not sum to
    the unit effect, meaning the bipartite state cannot support the
    model-to-mother construction.
    """


class VerificationError(RuntimeError):
    """A verdict's own evidence failed its audit by exact substitution.

    Raised instead of returning a witness, certificate or derived object
    that does not check out; it signals a bug in the library, never bad
    input. Not a ConstructionError, so callers that tolerate failed
    constructions do not swallow it.
    """


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""
