"""Schemas: ordered collections of attributes owned by a peer database.

A :class:`Schema` is intentionally lightweight — the paper's probabilistic
machinery only needs to know which attributes exist so that mapping
round trips can be compared attribute by attribute.  We nevertheless keep a
data-model flavour (relational / XML / RDF) because the generators and the
alignment substrate use it to produce realistic synthetic scenarios.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..exceptions import SchemaError, UnknownAttributeError
from .attribute import Attribute, AttributeType

__all__ = ["DataModel", "Schema"]


class DataModel(str, Enum):
    """Flavour of the underlying data model of a peer database."""

    RELATIONAL = "relational"
    XML = "xml"
    RDF = "rdf"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Schema:
    """A named schema: an ordered set of uniquely named attributes.

    Parameters
    ----------
    name:
        Schema name.
    attributes:
        Attributes of the schema.  Names must be unique (case-sensitive).
    data_model:
        Flavour of the data model (defaults to XML, matching the paper's
        introductory example).
    description:
        Free-form documentation.
    """

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute | str] = (),
        data_model: DataModel = DataModel.XML,
        description: str = "",
    ) -> None:
        if not name or not name.strip():
            raise SchemaError("schema name must be non-empty")
        self.name = name
        self.data_model = DataModel(data_model)
        self.description = description
        self._attributes: Dict[str, Attribute] = {}
        self._order: List[str] = []
        for attribute in attributes:
            self.add_attribute(attribute)

    # -- construction -----------------------------------------------------------

    def add_attribute(self, attribute: Attribute | str) -> Attribute:
        """Add an attribute (or create one from a bare name)."""
        if isinstance(attribute, str):
            attribute = Attribute(name=attribute)
        if attribute.name in self._attributes:
            raise SchemaError(
                f"schema {self.name!r} already has an attribute "
                f"{attribute.name!r}"
            )
        self._attributes[attribute.name] = attribute
        self._order.append(attribute.name)
        return attribute

    # -- lookups ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """Attributes in insertion order."""
        return tuple(self._attributes[name] for name in self._order)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """Attribute names in insertion order."""
        return tuple(self._order)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``."""
        try:
            return self._attributes[name]
        except KeyError:
            raise UnknownAttributeError(
                f"schema {self.name!r} has no attribute {name!r}"
            ) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._attributes

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._attributes

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attribute_names == other.attribute_names
            and self.data_model == other.data_model
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attribute_names, self.data_model))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schema({self.name!r}, attributes={len(self)}, "
            f"data_model={self.data_model.value!r})"
        )

    # -- convenience -----------------------------------------------------------------

    def rename(self, new_name: str) -> "Schema":
        """Return a copy of the schema under a different name."""
        return Schema(
            new_name,
            attributes=self.attributes,
            data_model=self.data_model,
            description=self.description,
        )

    @classmethod
    def from_names(
        cls,
        name: str,
        attribute_names: Sequence[str],
        data_model: DataModel = DataModel.XML,
        data_type: AttributeType = AttributeType.STRING,
    ) -> "Schema":
        """Build a schema from bare attribute names (all of ``data_type``)."""
        return cls(
            name,
            attributes=[Attribute(n, data_type=data_type) for n in attribute_names],
            data_model=data_model,
        )
