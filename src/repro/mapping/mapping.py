"""Pairwise schema mappings.

A :class:`Mapping` connects a source schema to a target schema through a
set of attribute correspondences.  It supports the two operations the paper
relies on:

* *applying* the mapping to an attribute (or query operation) — i.e. the
  reformulation step a peer performs before forwarding a query, and
* *composition* with another mapping (see :mod:`repro.mapping.composition`),
  which is how cycle and parallel-path round trips are evaluated.

Mappings are identified by ``(source, target)`` peer/schema names plus an
optional explicit identifier so that two parallel mappings between the same
pair of peers remain distinguishable.  The name ``source->target[#label]``
parses back to its endpoints, so an endpoint may contain neither ``->`` nor
``#``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping as TMapping, Optional, Tuple

from ..exceptions import MappingError
from .correspondence import Correspondence

__all__ = ["Mapping", "MappingIdentifier"]


@dataclass(frozen=True, order=True)
class MappingIdentifier:
    """Identifies one directed mapping edge in the PDMS graph."""

    source: str
    target: str
    label: str = ""

    def __str__(self) -> str:
        suffix = f"#{self.label}" if self.label else ""
        return f"{self.source}->{self.target}{suffix}"


class Mapping:
    """A directed schema mapping from ``source`` to ``target``.

    Parameters
    ----------
    source:
        Name of the source schema / peer.
    target:
        Name of the target schema / peer.
    correspondences:
        Attribute correspondences making up the mapping.  At most one
        correspondence per *source* attribute is allowed (a query attribute
        must reformulate deterministically).
    label:
        Optional label distinguishing parallel mappings between the same
        pair of peers.
    """

    def __init__(
        self,
        source: str,
        target: str,
        correspondences: Iterable[Correspondence] = (),
        label: str = "",
    ) -> None:
        if not source or not target:
            raise MappingError("mapping endpoints must be non-empty")
        if source == target:
            raise MappingError(
                f"mapping endpoints must differ, got {source!r} twice"
            )
        for endpoint in (source, target):
            if "->" in endpoint or "#" in endpoint:
                raise MappingError(
                    f"mapping endpoint {endpoint!r} contains '->' or '#', "
                    "the delimiters of mapping names"
                )
        self.identifier = MappingIdentifier(source=source, target=target, label=label)
        # Formatted once: the walkers and the evidence read names in bulk.
        self._name = str(self.identifier)
        self._by_source: Dict[str, Correspondence] = {}
        for correspondence in correspondences:
            self.add(correspondence)

    # -- construction --------------------------------------------------------------

    def add(self, correspondence: Correspondence) -> Correspondence:
        """Add a correspondence; source attributes must be unique."""
        if correspondence.source_attribute in self._by_source:
            raise MappingError(
                f"mapping {self} already maps attribute "
                f"{correspondence.source_attribute!r}"
            )
        self._by_source[correspondence.source_attribute] = correspondence
        return correspondence

    def with_correspondence(self, correspondence: Correspondence) -> "Mapping":
        """A copy of this mapping, same name, holding ``correspondence`` in
        place of the one for its source attribute (appended when there is
        none).  This mapping is left untouched: the copy is what
        :meth:`~repro.pdms.network.PDMSNetwork.change_correspondences`
        swaps in for it."""
        copy = Mapping(self.source, self.target, label=self.label)
        copy._by_source = dict(self._by_source)
        copy._by_source[correspondence.source_attribute] = correspondence
        return copy

    @classmethod
    def from_pairs(
        cls,
        source: str,
        target: str,
        pairs: TMapping[str, str] | Iterable[Tuple[str, str]],
        label: str = "",
        is_correct: Optional[bool] = True,
        provenance: str = "manual",
    ) -> "Mapping":
        """Build a mapping from ``{source_attr: target_attr}`` pairs."""
        if isinstance(pairs, dict):
            items = pairs.items()
        else:
            items = list(pairs)
        return cls(
            source,
            target,
            correspondences=[
                Correspondence(
                    source_attribute=s,
                    target_attribute=t,
                    is_correct=is_correct,
                    provenance=provenance,
                )
                for s, t in items
            ],
            label=label,
        )

    # -- identity --------------------------------------------------------------------

    @property
    def source(self) -> str:
        return self.identifier.source

    @property
    def target(self) -> str:
        return self.identifier.target

    @property
    def label(self) -> str:
        return self.identifier.label

    @property
    def name(self) -> str:
        """Human-readable mapping name, e.g. ``'p2->p3'``."""
        return self._name

    # -- correspondences ----------------------------------------------------------------

    @property
    def correspondences(self) -> Tuple[Correspondence, ...]:
        return tuple(self._by_source.values())

    @property
    def source_attributes(self) -> Tuple[str, ...]:
        return tuple(self._by_source)

    def correspondence_for(self, source_attribute: str) -> Optional[Correspondence]:
        """The correspondence departing from ``source_attribute`` (or None)."""
        return self._by_source.get(source_attribute)

    def maps_attribute(self, source_attribute: str) -> bool:
        """True when the mapping provides a target for ``source_attribute``."""
        return source_attribute in self._by_source

    def apply(self, source_attribute: str) -> Optional[str]:
        """Image of ``source_attribute`` under the mapping.

        Returns ``None`` when the mapping has no correspondence for the
        attribute — the ``⊥`` case of the paper (§3.2.1).
        """
        correspondence = self._by_source.get(source_attribute)
        if correspondence is None:
            return None
        return correspondence.target_attribute

    # -- ground truth (evaluation only) ----------------------------------------------------

    def is_correct_for(self, source_attribute: str) -> Optional[bool]:
        """Ground-truth label of the correspondence for ``source_attribute``."""
        correspondence = self._by_source.get(source_attribute)
        if correspondence is None:
            return None
        return correspondence.is_correct

    # -- misc ----------------------------------------------------------------------------

    def reversed(self, label: str = "") -> "Mapping":
        """The inverse mapping (only meaningful for bijective mappings)."""
        return Mapping(
            self.target,
            self.source,
            correspondences=[c.reversed() for c in self._by_source.values()],
            label=label or self.label,
        )

    def __len__(self) -> int:
        return len(self._by_source)

    def __iter__(self) -> Iterator[Correspondence]:
        return iter(self._by_source.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mapping({self.name!r}, correspondences={len(self)})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name
