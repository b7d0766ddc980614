"""Instance data stored at each peer.

Peers in the paper are XML databases answering XQuery selections and
projections.  The probabilistic machinery never inspects instance values,
but the examples and the routing substrate need actual data to demonstrate
false positives caused by faulty mappings (the "Creator vs CreatedOn"
confusion in the introductory example).  A :class:`Record` is simply a
mapping from attribute names to values validated against a schema, and an
:class:`InstanceStore` is an in-memory collection of records supporting the
selection/projection operations the paper's queries are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Mapping, Sequence, Tuple

from ..exceptions import UnknownAttributeError
from .schema import Schema

__all__ = ["Record", "InstanceStore"]


@dataclass(frozen=True)
class Record:
    """A single data record conforming to a schema.

    Values for attributes the record does not provide are simply absent;
    lookups return ``None`` for them.
    """

    schema_name: str
    values: Mapping[str, Any]

    def get(self, attribute_name: str) -> Any:
        """Value of ``attribute_name`` or ``None`` when absent."""
        return self.values.get(attribute_name)

    def project(self, attribute_names: Sequence[str]) -> "Record":
        """Return a record restricted to ``attribute_names``."""
        return Record(
            schema_name=self.schema_name,
            values={name: self.values[name] for name in attribute_names if name in self.values},
        )


class InstanceStore:
    """In-memory collection of records validated against one schema."""

    def __init__(self, schema: Schema, records: Iterable[Mapping[str, Any] | Record] = ()) -> None:
        self.schema = schema
        self._records: List[Record] = []
        for record in records:
            self.insert(record)

    def insert(self, record: Mapping[str, Any] | Record) -> Record:
        """Insert a record, validating its attributes against the schema."""
        if isinstance(record, Record):
            values = dict(record.values)
        else:
            values = dict(record)
        for attribute_name in values:
            if not self.schema.has_attribute(attribute_name):
                raise UnknownAttributeError(
                    f"record has attribute {attribute_name!r} which schema "
                    f"{self.schema.name!r} does not declare"
                )
        stored = Record(schema_name=self.schema.name, values=values)
        self._records.append(stored)
        return stored

    def insert_many(self, records: Iterable[Mapping[str, Any] | Record]) -> int:
        """Insert several records; returns how many were inserted."""
        count = 0
        for record in records:
            self.insert(record)
            count += 1
        return count

    # -- query primitives ---------------------------------------------------------

    def scan(self) -> Tuple[Record, ...]:
        """All records."""
        return tuple(self._records)

    def project(self, attribute_names: Sequence[str]) -> Tuple[Record, ...]:
        """Project every record onto ``attribute_names``."""
        for name in attribute_names:
            if not self.schema.has_attribute(name):
                raise UnknownAttributeError(
                    f"schema {self.schema.name!r} has no attribute {name!r}"
                )
        return tuple(record.project(attribute_names) for record in self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InstanceStore(schema={self.schema.name!r}, records={len(self)})"
