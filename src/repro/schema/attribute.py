"""Attributes — the semantic unit the paper reasons about.

The paper deliberately stays data-model agnostic (§2): an *attribute* may be
a relational column, an XML element/attribute, or an RDF class/property.
What matters is that queries project/select on attributes and that mappings
connect attributes of different schemas.  We capture that with a small value
type carrying a name, an optional path (for XML-style nesting), a coarse
data type and free-form annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from ..exceptions import SchemaError

__all__ = ["AttributeType", "Attribute"]


class AttributeType(str, Enum):
    """Coarse data type of an attribute's values."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"
    BOOLEAN = "boolean"
    REFERENCE = "reference"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Attribute:
    """A named attribute of a schema.

    Parameters
    ----------
    name:
        Attribute name, unique within its schema (e.g. ``Creator``).
    path:
        Optional hierarchical path for XML-like schemas
        (e.g. ``/Photoshop_Image/Creator``).  Defaults to ``/<name>``.
    data_type:
        Coarse value type; used by matchers and the instance generator.
    description:
        Optional human-readable documentation, used by synonym matchers.
    """

    name: str
    path: Optional[str] = None
    data_type: AttributeType = AttributeType.STRING
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise SchemaError("attribute name must be non-empty")
        if self.path is None:
            object.__setattr__(self, "path", f"/{self.name}")
        elif not self.path.startswith("/"):
            raise SchemaError(
                f"attribute path must start with '/', got {self.path!r}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def tokenize_identifier(identifier: str) -> Tuple[str, ...]:
    """Split an identifier into lower-cased word tokens.

    Handles camelCase, PascalCase, snake_case, kebab-case and dotted names.

    Examples
    --------
    >>> tokenize_identifier("createdOn")
    ('created', 'on')
    >>> tokenize_identifier("display_name")
    ('display', 'name')
    """
    if not identifier:
        return ()
    pieces: list[str] = []
    current = ""
    previous_lower = False
    for char in identifier:
        if char in "_-. /":
            if current:
                pieces.append(current)
            current = ""
            previous_lower = False
            continue
        if char.isupper() and previous_lower:
            pieces.append(current)
            current = char
        else:
            current += char
        previous_lower = char.islower() or char.isdigit()
    if current:
        pieces.append(current)
    return tuple(piece.lower() for piece in pieces if piece)
