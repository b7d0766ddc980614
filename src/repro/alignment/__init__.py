"""Alignment substrate: ontologies, string matchers, the automatic aligner
and the synthetic EON bibliography scenario."""

from .ontology import Concept, Ontology
from .matchers import (
    CompositeMatcher,
    edit_distance_matcher,
    exact_matcher,
    levenshtein_distance,
    ngram_matcher,
    normalized_label,
    token_matcher,
)
from .aligner import AlignmentResult, OntologyAligner
from .eon import EONScenario, build_eon_network, eon_ground_truth, eon_ontologies

__all__ = [
    "Concept",
    "Ontology",
    "CompositeMatcher",
    "edit_distance_matcher",
    "exact_matcher",
    "levenshtein_distance",
    "ngram_matcher",
    "normalized_label",
    "token_matcher",
    "AlignmentResult",
    "OntologyAligner",
    "EONScenario",
    "build_eon_network",
    "eon_ground_truth",
    "eon_ontologies",
]
