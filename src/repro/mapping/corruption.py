"""Error injection for schema mappings.

Generated PDMS scenarios start from *correct* mappings (identity-style
correspondences between semantically equivalent attributes) and then corrupt
a controlled fraction of correspondences to simulate the errors introduced
by automatic alignment tools or by the limited expressivity of the mapping
language (paper §1).  The corrupted target attribute is drawn uniformly from
the other attributes of the target schema, which is exactly the error model
the paper uses to justify Δ ≈ 1 / #attributes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..exceptions import GenerationError
from ..schema.schema import Schema
from .correspondence import Correspondence
from .mapping import Mapping

__all__ = [
    "CorruptionReport",
    "corrupt_mapping",
    "corrupt_mapping_in_place",
    "corrupt_correspondence",
]


@dataclass(frozen=True)
class CorruptionReport:
    """What was corrupted in a mapping (for evaluation bookkeeping)."""

    mapping_name: str
    corrupted_attributes: Tuple[str, ...]


def corrupt_correspondence(
    correspondence: Correspondence,
    target_schema: Schema,
    rng: random.Random,
) -> Correspondence:
    """Return a corrupted copy of ``correspondence``.

    The new target is a uniformly random *other* attribute of the target
    schema; the ground-truth label becomes ``False``.
    """
    candidates = [
        name
        for name in target_schema.attribute_names
        if name != correspondence.target_attribute
    ]
    if not candidates:
        raise GenerationError(
            f"cannot corrupt correspondence {correspondence}: target schema "
            f"{target_schema.name!r} has no alternative attribute"
        )
    wrong_target = rng.choice(candidates)
    return correspondence.with_target(wrong_target, is_correct=False)


def corrupt_mapping(
    mapping: Mapping,
    target_schema: Schema,
    error_rate: float = 0.0,
    attributes: Optional[Sequence[str]] = None,
    rng: Optional[random.Random] = None,
) -> Tuple[Mapping, CorruptionReport]:
    """Corrupt a mapping and return ``(corrupted mapping, report)``.

    Exactly one of the selection modes applies:

    * ``attributes`` — corrupt precisely those source attributes, or
    * ``error_rate`` — corrupt each correspondence independently with this
      probability.

    The original mapping is left untouched.
    """
    if attributes is not None and error_rate:
        raise GenerationError("pass either attributes or error_rate, not both")
    if not 0.0 <= error_rate <= 1.0:
        raise GenerationError(f"error_rate must be in [0, 1], got {error_rate}")
    rng = rng or random.Random(0)

    to_corrupt: set[str]
    if attributes is not None:
        unknown = [a for a in attributes if not mapping.maps_attribute(a)]
        if unknown:
            raise GenerationError(
                f"mapping {mapping.name} does not map attributes {unknown}"
            )
        to_corrupt = set(attributes)
    else:
        to_corrupt = {
            c.source_attribute
            for c in mapping.correspondences
            if rng.random() < error_rate
        }

    corrupted = Mapping(mapping.source, mapping.target, label=mapping.label)
    corrupted_attributes: List[str] = []
    for correspondence in mapping.correspondences:
        if correspondence.source_attribute in to_corrupt:
            corrupted.add(corrupt_correspondence(correspondence, target_schema, rng))
            corrupted_attributes.append(correspondence.source_attribute)
        else:
            corrupted.add(correspondence)
    report = CorruptionReport(
        mapping_name=mapping.name,
        corrupted_attributes=tuple(corrupted_attributes),
    )
    return corrupted, report


def corrupt_mapping_in_place(
    mapping: Mapping,
    target_schema: Schema,
    error_rate: float = 0.0,
    attributes: Optional[Sequence[str]] = None,
    rng: Optional[random.Random] = None,
) -> CorruptionReport:
    """Corrupt ``mapping``'s correspondences *in place*; return the report.

    Same selection modes as :func:`corrupt_mapping`, but the corrupted
    correspondences are swapped into the existing :class:`Mapping` object,
    so every holder of a reference (the network index, the owning peer,
    the ``MappingAdded`` event) sees them — the pattern scenario
    generation and the long-cycle network builder need.

    A construction-time tool: they call it while building a network,
    before any snapshot, structure cache or assessor has read the mapping.
    The edit bumps no version, so on a network already being assessed use
    :meth:`~repro.pdms.network.PDMSNetwork.change_correspondences` with a
    :func:`corrupt_mapping` copy instead.
    """
    corrupted, report = corrupt_mapping(
        mapping,
        target_schema,
        error_rate=error_rate,
        attributes=attributes,
        rng=rng,
    )
    for correspondence in corrupted.correspondences:
        mapping._by_source[correspondence.source_attribute] = correspondence
    return report
