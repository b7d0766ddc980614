"""Attribute correspondences — the elementary unit of a schema mapping.

A mapping between two schemas is a set of attribute-level correspondences
(e.g. ``Creator → Author/DisplayName``).  The paper's whole point is that
some of these correspondences are *semantically wrong* even though they are
syntactically well-formed; we therefore keep an optional ``is_correct``
ground-truth flag on each correspondence so that the evaluation harness can
score the detector.  The flag is never consulted by the inference code —
the probabilistic machinery only observes feedback from mapping round
trips, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..exceptions import MappingError

__all__ = ["Correspondence"]


@dataclass(frozen=True)
class Correspondence:
    """A single attribute-to-attribute link inside a schema mapping.

    Parameters
    ----------
    source_attribute:
        Attribute name in the mapping's source schema.
    target_attribute:
        Attribute name in the mapping's target schema.
    confidence:
        Score assigned by whoever produced the correspondence (an automatic
        matcher or a human); purely informational for the inference.
    is_correct:
        Ground-truth label (``True``/``False``) or ``None`` when unknown.
        Used only for evaluation, never by the detector itself.
    provenance:
        Free-form origin tag, e.g. ``"manual"`` or ``"edit-distance"``.
    """

    source_attribute: str
    target_attribute: str
    confidence: float = 1.0
    is_correct: Optional[bool] = None
    provenance: str = "manual"

    def __post_init__(self) -> None:
        if not self.source_attribute or not self.target_attribute:
            raise MappingError("correspondence attributes must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise MappingError(
                f"correspondence confidence must be in [0, 1], got {self.confidence}"
            )

    def reversed(self) -> "Correspondence":
        """Correspondence with source and target swapped (for bidirectional
        mappings in undirected PDMS networks)."""
        return Correspondence(
            source_attribute=self.target_attribute,
            target_attribute=self.source_attribute,
            confidence=self.confidence,
            is_correct=self.is_correct,
            provenance=self.provenance,
        )

    def with_target(self, target_attribute: str, is_correct: Optional[bool]) -> "Correspondence":
        """Copy with a different target attribute (used by error injection)."""
        return replace(self, target_attribute=target_attribute, is_correct=is_correct)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.source_attribute} -> {self.target_attribute}"
