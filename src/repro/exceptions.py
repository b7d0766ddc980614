"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FactorGraphError",
    "VariableDomainError",
    "FactorShapeError",
    "InferenceError",
    "ConvergenceError",
    "SchemaError",
    "UnknownAttributeError",
    "MappingError",
    "MappingCompositionError",
    "PDMSError",
    "UnknownPeerError",
    "QueryError",
    "RoutingError",
    "FeedbackError",
    "AlignmentError",
    "GenerationError",
    "EvaluationError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


# ---------------------------------------------------------------------------
# Factor graph / inference
# ---------------------------------------------------------------------------


class FactorGraphError(ReproError):
    """Raised when a factor graph is malformed or used inconsistently."""


class VariableDomainError(FactorGraphError):
    """Raised when a value lies outside a variable's domain."""


class FactorShapeError(FactorGraphError):
    """Raised when a factor table does not match the variables it spans."""


class InferenceError(ReproError):
    """Raised when an inference routine cannot produce a result."""


class ConvergenceError(InferenceError):
    """Raised when an iterative algorithm fails to converge and the caller
    requested strict behaviour."""


# ---------------------------------------------------------------------------
# Schemas and mappings
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """Raised for malformed schemas or schema registry misuse."""


class UnknownAttributeError(SchemaError):
    """Raised when referencing an attribute a schema does not declare."""


class MappingError(ReproError):
    """Raised for malformed schema mappings."""


class MappingCompositionError(MappingError):
    """Raised when mappings cannot be composed (e.g. schema mismatch)."""


# ---------------------------------------------------------------------------
# PDMS network
# ---------------------------------------------------------------------------


class PDMSError(ReproError):
    """Raised for errors in the peer data management network substrate."""


class UnknownPeerError(PDMSError):
    """Raised when referencing a peer that is not part of the network."""


class QueryError(PDMSError):
    """Raised for malformed queries."""


class RoutingError(PDMSError):
    """Raised when a query cannot be routed."""


class FeedbackError(ReproError):
    """Raised when cycle / parallel-path feedback is malformed."""


# ---------------------------------------------------------------------------
# Alignment, generation, evaluation
# ---------------------------------------------------------------------------


class AlignmentError(ReproError):
    """Raised by the ontology alignment substrate."""


class GenerationError(ReproError):
    """Raised when a synthetic scenario cannot be generated."""


class EvaluationError(ReproError):
    """Raised by the evaluation harness."""
