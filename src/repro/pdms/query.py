"""Queries: selections and projections over attributes.

The paper abstracts queries to "generic selection / projection operations
on attributes" (§2).  A :class:`Query` therefore carries a set of
:class:`Operation` instances, each naming one attribute (optionally with a
predicate for selections).  Reformulation through a mapping rewrites the
attribute names; an operation whose attribute has no image under the mapping
is dropped (and, per the paper, the mapping's correctness for that attribute
is considered void).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import QueryError

__all__ = ["OperationKind", "Operation", "Query", "substring_predicate"]


class OperationKind(str, Enum):
    """Kind of a query operation."""

    PROJECTION = "projection"
    SELECTION = "selection"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Operation:
    """A single selection or projection on one attribute.

    Selections carry a ``predicate`` (callable on a value) plus a
    human-readable ``predicate_description`` so that reformulated queries
    remain printable; projections carry neither.
    """

    kind: OperationKind
    attribute: str
    predicate: Optional[Callable[[Any], bool]] = None
    predicate_description: str = ""

    def __post_init__(self) -> None:
        if not self.attribute:
            raise QueryError("operation attribute must be non-empty")
        if self.kind is OperationKind.SELECTION and self.predicate is None:
            raise QueryError("selection operations require a predicate")
        if self.kind is OperationKind.PROJECTION and self.predicate is not None:
            raise QueryError("projection operations must not carry a predicate")

    def renamed(self, attribute: str) -> "Operation":
        """Copy of the operation over a different attribute name."""
        return replace(self, attribute=attribute)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is OperationKind.PROJECTION:
            return f"π({self.attribute})"
        return f"σ({self.attribute} {self.predicate_description or '<predicate>'})"


def substring_predicate(needle: str) -> Callable[[Any], bool]:
    """Case-insensitive substring predicate, mirroring XQuery ``LIKE "%x%"``."""
    lowered = needle.lower()

    def predicate(value: Any) -> bool:
        return lowered in str(value).lower()

    return predicate


_query_counter = itertools.count(1)


@dataclass(frozen=True)
class Query:
    """A query posed against the schema of one peer.

    Parameters
    ----------
    schema_name:
        Schema (peer) the query is expressed against.
    operations:
        Selection / projection operations making up the query.
    query_id:
        Unique identifier; auto-assigned when omitted.  Reformulated copies
        of a query keep the same id so that traces can be correlated.
    """

    schema_name: str
    operations: Tuple[Operation, ...]
    query_id: int = field(default_factory=lambda: next(_query_counter))

    def __post_init__(self) -> None:
        if not self.schema_name:
            raise QueryError("query schema_name must be non-empty")
        if not self.operations:
            raise QueryError("a query needs at least one operation")
        object.__setattr__(self, "operations", tuple(self.operations))

    # -- introspection -------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Distinct attributes referenced by the query, in first-use order."""
        seen: Dict[str, None] = {}
        for operation in self.operations:
            seen.setdefault(operation.attribute, None)
        return tuple(seen)

    # -- builders ---------------------------------------------------------------------

    @classmethod
    def select_project(
        cls,
        schema_name: str,
        project: Sequence[str],
        where: Optional[Dict[str, Callable[[Any], bool]]] = None,
        where_descriptions: Optional[Dict[str, str]] = None,
    ) -> "Query":
        """Convenience builder for the common SELECT/WHERE shape.

        ``project`` lists projected attributes; ``where`` maps attribute
        names to predicates.
        """
        operations: List[Operation] = [
            Operation(OperationKind.PROJECTION, attribute) for attribute in project
        ]
        descriptions = where_descriptions or {}
        for attribute, predicate in (where or {}).items():
            operations.append(
                Operation(
                    OperationKind.SELECTION,
                    attribute,
                    predicate=predicate,
                    predicate_description=descriptions.get(attribute, ""),
                )
            )
        return cls(schema_name=schema_name, operations=tuple(operations))

    def with_operations(
        self, operations: Sequence[Operation], schema_name: Optional[str] = None
    ) -> "Query":
        """Copy of the query with different operations (same query id)."""
        return Query(
            schema_name=schema_name or self.schema_name,
            operations=tuple(operations),
            query_id=self.query_id,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(str(op) for op in self.operations)
        return f"Q{self.query_id}@{self.schema_name}[{ops}]"
