"""A lightweight ontology model for the alignment substrate.

The paper's real-world experiment imports OWL ontologies (serialised in
RDF/XML) from the EON Ontology Alignment Contest and aligns them
automatically.  We do not ship the original files (see DESIGN.md,
substitutions); instead this module provides a small in-memory ontology
model — named concepts with labels, optional translations and a property
list — rich enough for string-similarity alignment techniques to behave the
way they do on the real data: mostly right, sometimes confidently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from ..exceptions import AlignmentError
from ..schema.attribute import Attribute
from ..schema.schema import DataModel, Schema

__all__ = ["Concept", "Ontology"]


@dataclass(frozen=True)
class Concept:
    """A named concept (class or property) of an ontology.

    Parameters
    ----------
    name:
        Identifier of the concept inside its ontology (e.g. ``"Author"``).
    label:
        Human-readable label; defaults to the name.
    synonyms:
        Alternative labels (including translations) the matchers may use.
    kind:
        ``"class"`` or ``"property"`` — informational only.
    comment:
        Free-form documentation.
    """

    name: str
    label: str = ""
    synonyms: Tuple[str, ...] = ()
    kind: str = "class"
    comment: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise AlignmentError("concept name must be non-empty")
        if not self.label:
            object.__setattr__(self, "label", self.name)

    @property
    def all_labels(self) -> Tuple[str, ...]:
        """Name, label and synonyms (deduplicated, original casing kept)."""
        labels: Dict[str, None] = {self.name: None, self.label: None}
        for synonym in self.synonyms:
            labels.setdefault(synonym, None)
        return tuple(labels)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class Ontology:
    """A named collection of concepts.

    Ontologies double as schemas for the PDMS substrate: :meth:`to_schema`
    produces a :class:`~repro.schema.schema.Schema` whose attributes are the
    ontology's concepts, so a network of ontologies can be loaded straight
    into a :class:`~repro.pdms.network.PDMSNetwork`.
    """

    def __init__(self, name: str, concepts: Iterable[Concept | str] = (), language: str = "en") -> None:
        if not name:
            raise AlignmentError("ontology name must be non-empty")
        self.name = name
        self.language = language
        self._concepts: Dict[str, Concept] = {}
        self._order: List[str] = []
        for concept in concepts:
            self.add_concept(concept)

    def add_concept(self, concept: Concept | str) -> Concept:
        """Add a concept (or create one from a bare name)."""
        if isinstance(concept, str):
            concept = Concept(name=concept)
        if concept.name in self._concepts:
            raise AlignmentError(
                f"ontology {self.name!r} already has a concept {concept.name!r}"
            )
        self._concepts[concept.name] = concept
        self._order.append(concept.name)
        return concept

    @property
    def concepts(self) -> Tuple[Concept, ...]:
        return tuple(self._concepts[name] for name in self._order)

    @property
    def concept_names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def has_concept(self, name: str) -> bool:
        return name in self._concepts

    def __len__(self) -> int:
        return len(self._concepts)

    def __iter__(self) -> Iterator[Concept]:
        return iter(self.concepts)

    def to_schema(self) -> Schema:
        """Expose the ontology as a schema (one attribute per concept)."""
        return Schema(
            self.name,
            attributes=[
                Attribute(concept.name, description=concept.comment)
                for concept in self.concepts
            ],
            data_model=DataModel.RDF,
            description=f"schema view of ontology {self.name!r} ({self.language})",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ontology({self.name!r}, concepts={len(self)}, language={self.language!r})"
