"""Synthetic schema generation.

The simulation experiments of the paper use "automatically-generated
schemas" of a given size.  We generate schemas from a shared *concept pool*:
every schema covers the same underlying concepts (so that correct identity
mappings exist between any two schemas), optionally renaming attributes with
schema-specific decorations so that the alignment substrate has realistic
work to do.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import GenerationError
from ..schema.attribute import Attribute
from ..schema.schema import DataModel, Schema

__all__ = [
    "DEFAULT_CONCEPTS",
    "concept_pool",
    "generate_schema",
    "generate_schema_family",
]

#: Concepts loosely inspired by the paper's art/bibliography examples; used
#: when the caller does not supply its own pool.
DEFAULT_CONCEPTS: Tuple[str, ...] = (
    "Creator",
    "Title",
    "Subject",
    "CreatedOn",
    "Identifier",
    "Format",
    "Language",
    "Publisher",
    "Rights",
    "Description",
    "Location",
    "Keyword",
    "Contributor",
    "Medium",
    "Collection",
    "Provenance",
    "Dimension",
    "Genre",
    "Period",
    "Technique",
)

_DECORATION_PREFIXES = ("", "has", "item", "doc", "rec", "art")
_DECORATION_SUFFIXES = ("", "Value", "Field", "Info", "Entry", "Tag")


def concept_pool(size: int, rng: Optional[random.Random] = None) -> Tuple[str, ...]:
    """Return ``size`` concept names, extending the default pool if needed."""
    if size < 1:
        raise GenerationError(f"concept pool size must be >= 1, got {size}")
    if size <= len(DEFAULT_CONCEPTS):
        return DEFAULT_CONCEPTS[:size]
    extra = [f"Concept{i}" for i in range(size - len(DEFAULT_CONCEPTS))]
    return DEFAULT_CONCEPTS + tuple(extra)


def _decorate(concept: str, rng: random.Random) -> str:
    prefix = rng.choice(_DECORATION_PREFIXES)
    suffix = rng.choice(_DECORATION_SUFFIXES)
    name = concept
    if prefix:
        name = prefix + name[0].upper() + name[1:]
    if suffix:
        name = name + suffix
    return name


def generate_schema(
    name: str,
    concepts: Sequence[str],
    rename: bool = False,
    rng: Optional[random.Random] = None,
    data_model: DataModel = DataModel.XML,
) -> Tuple[Schema, Dict[str, str]]:
    """Generate one schema covering ``concepts``.

    Returns ``(schema, concept_to_attribute)`` where the dict maps each
    concept to the attribute name used by this schema (identity unless
    ``rename`` is set).
    """
    rng = rng or random.Random(0)
    mapping: Dict[str, str] = {}
    attributes: List[Attribute] = []
    used: set[str] = set()
    for concept in concepts:
        attribute_name = concept
        if rename:
            attribute_name = _decorate(concept, rng)
            while attribute_name in used:
                attribute_name = _decorate(concept, rng) + str(rng.randint(1, 99))
        used.add(attribute_name)
        mapping[concept] = attribute_name
        attributes.append(Attribute(attribute_name))
    return Schema(name, attributes=attributes, data_model=data_model), mapping


def generate_schema_family(
    count: int,
    attribute_count: int = 10,
    rename: bool = False,
    seed: int = 0,
    name_prefix: str = "p",
) -> Tuple[List[Schema], Dict[str, Dict[str, str]]]:
    """Generate ``count`` schemas over the same ``attribute_count`` concepts.

    Returns ``(schemas, {schema name: {concept: attribute name}})``.  All
    schemas cover all concepts, so a correct mapping exists between every
    pair — the generators then corrupt a controlled fraction of them.
    """
    if count < 1:
        raise GenerationError(f"schema family size must be >= 1, got {count}")
    rng = random.Random(seed)
    concepts = concept_pool(attribute_count)
    schemas: List[Schema] = []
    concept_maps: Dict[str, Dict[str, str]] = {}
    for index in range(1, count + 1):
        schema, mapping = generate_schema(
            f"{name_prefix}{index}", concepts, rename=rename, rng=rng
        )
        schemas.append(schema)
        concept_maps[schema.name] = mapping
    return schemas, concept_maps
