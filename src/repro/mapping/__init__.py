"""Mapping substrate: correspondences, pairwise mappings, composition and
error injection."""

from .correspondence import Correspondence
from .mapping import Mapping, MappingIdentifier
from .composition import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    parallel_paths_outcome,
    round_trip_outcome,
    validate_chain,
)
from .corruption import (
    CorruptionReport,
    corrupt_correspondence,
    corrupt_mapping,
)

__all__ = [
    "Correspondence",
    "Mapping",
    "MappingIdentifier",
    "POSITIVE",
    "NEGATIVE",
    "NEUTRAL",
    "parallel_paths_outcome",
    "round_trip_outcome",
    "validate_chain",
    "CorruptionReport",
    "corrupt_correspondence",
    "corrupt_mapping",
]
