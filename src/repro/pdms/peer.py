"""Peers: autonomous databases participating in the PDMS.

A peer owns a schema, a local instance store and the set of *outgoing*
mappings it maintains towards its neighbours (the paper's per-hop routing
model only requires the source of a mapping to know about it, §4.1).  Peers
also hold the probabilistic state the core contribution needs: prior
beliefs, the local factor-graph fragment and the latest posteriors — those
are attached lazily by :mod:`repro.core.embedded` so that the network
substrate stays independent of the inference machinery.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping as TMapping, Tuple

from ..exceptions import PDMSError
from ..mapping.mapping import Mapping
from ..schema.instances import InstanceStore, Record
from ..schema.schema import Schema

__all__ = ["Peer"]


class Peer:
    """One autonomous database in the PDMS.

    Parameters
    ----------
    name:
        Unique peer identifier (the paper's peer ID / address).
    schema:
        The peer's local schema.
    records:
        Optional initial data records.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        records: Iterable[TMapping[str, Any]] = (),
    ) -> None:
        if not name:
            raise PDMSError("peer name must be non-empty")
        self.name = name
        self.schema = schema
        self.store = InstanceStore(schema, records)
        self._outgoing: Dict[str, Mapping] = {}

    # -- mappings -------------------------------------------------------------------

    def add_outgoing_mapping(self, mapping: Mapping) -> Mapping:
        """Register an outgoing mapping; its source must be this peer."""
        if mapping.source != self.name:
            raise PDMSError(
                f"peer {self.name!r} cannot own mapping {mapping.name} "
                f"(source is {mapping.source!r})"
            )
        key = mapping.name
        if key in self._outgoing:
            raise PDMSError(f"peer {self.name!r} already owns mapping {key}")
        self._outgoing[key] = mapping
        return mapping

    @property
    def outgoing_mappings(self) -> Tuple[Mapping, ...]:
        """All mappings departing from this peer."""
        return tuple(self._outgoing.values())

    # -- data ------------------------------------------------------------------------

    def insert(self, record: TMapping[str, Any] | Record) -> Record:
        """Insert a record into the peer's local store."""
        return self.store.insert(record)

    def insert_many(self, records: Iterable[TMapping[str, Any] | Record]) -> int:
        return self.store.insert_many(records)

    @property
    def record_count(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Peer({self.name!r}, schema={self.schema.name!r}, "
            f"records={self.record_count}, outgoing={len(self._outgoing)})"
        )
