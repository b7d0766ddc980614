"""Automatic ontology alignment: producing (partly wrong) schema mappings.

Given two ontologies and a matcher, the aligner keeps — for every source
concept — the best-scoring target concept above a similarity threshold,
exactly the greedy strategy of simple alignment toolchains.  When a
ground-truth equivalence is available (each concept annotated with the
canonical concept it denotes), the produced correspondences are labelled
correct/incorrect so that the evaluation harness can score the detector;
the labels are invisible to the detector itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping as TMapping, Optional, Sequence, Tuple

from ..exceptions import AlignmentError
from ..mapping.correspondence import Correspondence
from ..mapping.mapping import Mapping
from .matchers import CompositeMatcher, label_forms
from .ontology import Concept, Ontology

__all__ = ["AlignmentResult", "OntologyAligner"]

#: Ground truth: {(ontology name, concept name): canonical concept id}.
GroundTruth = TMapping[Tuple[str, str], str]


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of aligning one ordered pair of ontologies."""

    mapping: Mapping
    scores: Dict[Tuple[str, str], float]
    unmatched_source_concepts: Tuple[str, ...]

    @property
    def correspondence_count(self) -> int:
        return len(self.mapping)

    @property
    def erroneous_count(self) -> int:
        return sum(
            1 for c in self.mapping.correspondences if c.is_correct is False
        )

    @property
    def error_rate(self) -> float:
        if len(self.mapping) == 0:
            return 0.0
        return self.erroneous_count / len(self.mapping)


class OntologyAligner:
    """Greedy best-match aligner over a composite similarity matcher.

    Parameters
    ----------
    matcher:
        Pairwise concept scorer; defaults to the standard composite of
        exact / edit-distance / n-gram / token matchers.
    threshold:
        Minimum similarity for a correspondence to be emitted.  Lower
        thresholds produce more correspondences and more errors — the same
        trade-off automatic alignment tools face.
    ground_truth:
        Optional ``{(ontology, concept): canonical id}`` used to label the
        produced correspondences for evaluation.
    """

    def __init__(
        self,
        matcher: Optional[CompositeMatcher] = None,
        threshold: float = 0.55,
        ground_truth: Optional[GroundTruth] = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise AlignmentError(f"threshold must be in (0, 1], got {threshold}")
        self.matcher = matcher or CompositeMatcher()
        self.threshold = threshold
        self.ground_truth = ground_truth

    # -- scoring ---------------------------------------------------------------------

    def _label(self, source: Ontology, target: Ontology, source_concept: str, target_concept: str) -> Optional[bool]:
        if self.ground_truth is None:
            return None
        canonical_source = self.ground_truth.get((source.name, source_concept))
        canonical_target = self.ground_truth.get((target.name, target_concept))
        if canonical_source is None or canonical_target is None:
            return None
        return canonical_source == canonical_target

    def align(self, source: Ontology, target: Ontology) -> AlignmentResult:
        """Align ``source`` to ``target``; returns the mapping plus scores."""
        if source.name == target.name:
            raise AlignmentError("cannot align an ontology with itself")
        scores: Dict[Tuple[str, str], float] = {}
        correspondences: List[Correspondence] = []
        unmatched: List[str] = []
        # Each concept's labels normalised once for this alignment.
        targets = [(concept, label_forms(concept)) for concept in target.concepts]
        for source_concept in source.concepts:
            source_forms = label_forms(source_concept)
            best_target: Optional[Concept] = None
            best_score = 0.0
            for target_concept, target_forms in targets:
                score = self.matcher.score_forms(source_forms, target_forms)
                scores[(source_concept.name, target_concept.name)] = score
                if score > best_score:
                    best_score = score
                    best_target = target_concept
            if best_target is None or best_score < self.threshold:
                unmatched.append(source_concept.name)
                continue
            correspondences.append(
                Correspondence(
                    source_attribute=source_concept.name,
                    target_attribute=best_target.name,
                    confidence=best_score,
                    is_correct=self._label(
                        source, target, source_concept.name, best_target.name
                    ),
                    provenance="auto-alignment",
                )
            )
        mapping = Mapping(source.name, target.name, correspondences=correspondences)
        return AlignmentResult(
            mapping=mapping,
            scores=scores,
            unmatched_source_concepts=tuple(unmatched),
        )

    def align_all(
        self,
        ontologies: Sequence[Ontology],
        pairs: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> Dict[Tuple[str, str], AlignmentResult]:
        """Align every ordered pair (or the explicit ``pairs``) of ontologies."""
        by_name = {ontology.name: ontology for ontology in ontologies}
        if pairs is None:
            pairs = [
                (first.name, second.name)
                for first in ontologies
                for second in ontologies
                if first.name != second.name
            ]
        results: Dict[Tuple[str, str], AlignmentResult] = {}
        for source_name, target_name in pairs:
            if source_name not in by_name or target_name not in by_name:
                raise AlignmentError(
                    f"unknown ontology in pair ({source_name!r}, {target_name!r})"
                )
            results[(source_name, target_name)] = self.align(
                by_name[source_name], by_name[target_name]
            )
        return results
