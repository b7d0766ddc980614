"""The PDMS network: peers plus the graph of pairwise mappings.

A :class:`PDMSNetwork` is the substrate everything else operates on.  It
holds the peers, registers mappings both on the owning peer and in a global
index (the index is an *experimenter's view*; the decentralised algorithms
only ever use per-peer information), and exposes the mapping graph as a
:mod:`networkx` ``DiGraph`` / ``MultiDiGraph`` for topology analysis.

Both directed and undirected PDMS are supported (§3.2 vs §3.3): an
undirected network simply registers every mapping in both directions
(``bidirectional=True`` on :meth:`add_mapping`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, Optional, Tuple

import networkx as nx

from ..exceptions import PDMSError, UnknownPeerError
from ..mapping.mapping import Mapping
from ..schema.schema import Schema
from .events import (
    MappingAdded,
    MappingRemoved,
    PeerAdded,
    PeerRemoved,
    TopologyEvent,
    apply as apply_event,
)
from .peer import Peer

__all__ = ["PDMSNetwork"]


class PDMSNetwork:
    """A collection of peers connected by directed pairwise schema mappings.

    Parameters
    ----------
    name:
        Network name, used in reports.
    directed:
        ``True`` for a directed PDMS (mappings are one-way), ``False`` for
        an undirected one.  Undirected networks still store directed
        mappings internally; :meth:`add_mapping` simply registers the
        reverse direction automatically when the network is undirected and
        ``auto_reverse`` is left on.
    """

    #: Event-log entries kept for incremental consumers; older entries
    #: are dropped and :meth:`events_since` reports the log as truncated.
    MUTATION_LOG_LIMIT = 256

    def __init__(self, name: str = "pdms", directed: bool = True) -> None:
        self.name = name
        self.directed = directed
        self._peers: Dict[str, Peer] = {}
        self._mappings: Dict[str, Mapping] = {}
        self._version = 0
        self._event_log: Deque[Tuple[int, TopologyEvent]] = deque(
            maxlen=self.MUTATION_LOG_LIMIT
        )
        self._mutation_floor = 0
        self._snapshot = None

    @property
    def version(self) -> int:
        """Monotonic topology version, bumped on every peer/mapping mutation.

        Consumers that derive expensive structures from the topology (e.g.
        :class:`repro.core.analysis.StructureCache`) key their caches on
        this counter so a mutated network is re-probed automatically.
        """
        return self._version

    def _record_event(self, event: TopologyEvent) -> None:
        """Append one typed event to the bounded log (O(1)).

        The log is a ``deque(maxlen=...)``: when full, appending evicts
        the oldest entry in constant time, and the evicted entry's version
        becomes the truncation floor below which incremental consumers
        must fall back to a full re-derivation.
        """
        if len(self._event_log) == self.MUTATION_LOG_LIMIT:
            self._mutation_floor = self._event_log[0][0]
        self._event_log.append((self._version, event))

    def events_since(
        self, version: int
    ) -> Optional[Tuple[Tuple[int, TopologyEvent], ...]]:
        """Typed topology events applied after ``version``, oldest first.

        Each entry is ``(version_after_mutation, event)``.  Returns
        ``None`` when the bounded log no longer reaches back to
        ``version`` — callers must then fall back to a full
        re-derivation.  :meth:`snapshot` feeds these entries to
        :meth:`~repro.pdms.discovery.TopologySnapshot.successor` to carry
        every walk they leave unchanged into the next version.
        """
        if version < self._mutation_floor:
            return None
        newer = []
        for entry in reversed(self._event_log):
            if entry[0] <= version:
                break
            newer.append(entry)
        return tuple(reversed(newer))

    def event_log(self) -> Tuple[TopologyEvent, ...]:
        """The retained typed events, oldest first.

        Bounded by :attr:`MUTATION_LOG_LIMIT`; when :attr:`log_truncated`
        is ``False`` this is the *complete* mutation history and
        :meth:`from_events` replays it to a network with identical peers,
        mappings and :attr:`version`.
        """
        return tuple(event for _, event in self._event_log)

    @property
    def log_truncated(self) -> bool:
        """``True`` when the bounded log has dropped its oldest entries."""
        return self._mutation_floor > 0

    @classmethod
    def from_events(
        cls,
        events: Iterable[TopologyEvent],
        name: str = "pdms",
        directed: bool = True,
    ) -> "PDMSNetwork":
        """Replay a recorded event log into a fresh network.

        Applies each event through the deterministic transition
        :func:`repro.pdms.events.apply`; replaying a network's complete
        :meth:`event_log` reproduces its peers, mappings and ``version``
        exactly (instance records are data, not topology, and are not
        replayed).
        """
        network = cls(name=name, directed=directed)
        for event in events:
            apply_event(network, event)
        return network

    # -- peers -----------------------------------------------------------------------

    def add_peer(self, peer: Peer | Schema, name: Optional[str] = None) -> Peer:
        """Add a peer (or build one from a schema).

        When passing a :class:`Schema`, ``name`` defaults to the schema name.
        """
        if isinstance(peer, Schema):
            peer = Peer(name or peer.name, peer)
        if peer.name in self._peers:
            raise PDMSError(f"peer {peer.name!r} already exists in {self.name!r}")
        self._peers[peer.name] = peer
        self._version += 1
        self._record_event(PeerAdded(name=peer.name, schema=peer.schema))
        return peer

    def remove_peer(self, name: str) -> Peer:
        """Remove a peer, cascading the removal of its incident mappings.

        Every incident mapping (outgoing *and* incoming) is removed first
        through :meth:`remove_mapping` — each recording its own
        :class:`~repro.pdms.events.MappingRemoved` event — and the peer's
        departure is then recorded as a typed
        :class:`~repro.pdms.events.PeerRemoved` event, so the log stays
        replayable without hidden cascades.  The next :meth:`snapshot`
        drops the peer's walks (a rejoining peer walks cold) and re-walks
        exactly the other origins its mapping removals touch.
        """
        peer = self.peer(name)
        incident = [
            mapping.name
            for mapping in self._mappings.values()
            if mapping.source == name or mapping.target == name
        ]
        for mapping_name in incident:
            self.remove_mapping(mapping_name)
        del self._peers[name]
        self._version += 1
        self._record_event(PeerRemoved(name=name))
        return peer

    def peer(self, name: str) -> Peer:
        """Return the peer called ``name``."""
        try:
            return self._peers[name]
        except KeyError:
            raise UnknownPeerError(f"unknown peer {name!r}") from None

    def has_peer(self, name: str) -> bool:
        return name in self._peers

    @property
    def peers(self) -> Tuple[Peer, ...]:
        return tuple(self._peers.values())

    @property
    def peer_names(self) -> Tuple[str, ...]:
        return tuple(self._peers)

    def __len__(self) -> int:
        return len(self._peers)

    def __iter__(self) -> Iterator[Peer]:
        return iter(self._peers.values())

    # -- mappings ---------------------------------------------------------------------

    def add_mapping(self, mapping: Mapping, bidirectional: Optional[bool] = None) -> Mapping:
        """Register a mapping (and its reverse when the network is undirected).

        ``bidirectional`` overrides the network-level default: ``None``
        means "reverse automatically iff the network is undirected".
        """
        if mapping.source not in self._peers:
            raise UnknownPeerError(
                f"mapping {mapping.name} departs from unknown peer {mapping.source!r}"
            )
        if mapping.target not in self._peers:
            raise UnknownPeerError(
                f"mapping {mapping.name} arrives at unknown peer {mapping.target!r}"
            )
        if mapping.name in self._mappings:
            raise PDMSError(f"mapping {mapping.name} already registered")
        self._mappings[mapping.name] = mapping
        self._peers[mapping.source].add_outgoing_mapping(mapping)
        self._version += 1
        self._record_event(MappingAdded(mapping=mapping))

        reverse = (not self.directed) if bidirectional is None else bidirectional
        if reverse:
            reversed_mapping = mapping.reversed()
            if reversed_mapping.name not in self._mappings:
                self._mappings[reversed_mapping.name] = reversed_mapping
                self._peers[reversed_mapping.source].add_outgoing_mapping(reversed_mapping)
                self._version += 1
                self._record_event(MappingAdded(mapping=reversed_mapping))
        return mapping

    def mapping(self, name: str) -> Mapping:
        """Return the mapping called ``name`` (e.g. ``'p2->p3'``)."""
        try:
            return self._mappings[name]
        except KeyError:
            raise PDMSError(f"unknown mapping {name!r}") from None

    def remove_mapping(self, name: str) -> Mapping:
        """Unregister a mapping from the network and its owning peer."""
        mapping = self.mapping(name)
        del self._mappings[name]
        self._peers[mapping.source]._outgoing.pop(name, None)
        self._version += 1
        self._record_event(MappingRemoved(name=name))
        return mapping

    def has_mapping(self, name: str) -> bool:
        return name in self._mappings

    @property
    def mappings(self) -> Tuple[Mapping, ...]:
        return tuple(self._mappings.values())

    @property
    def mapping_names(self) -> Tuple[str, ...]:
        return tuple(self._mappings)

    def mappings_between(self, source: str, target: str) -> Tuple[Mapping, ...]:
        """All mappings from ``source`` to ``target`` (parallel mappings)."""
        return tuple(
            m for m in self._mappings.values() if m.source == source and m.target == target
        )

    # -- topology ------------------------------------------------------------------------

    def snapshot(self):
        """The immutable, picklable
        :class:`~repro.pdms.discovery.TopologySnapshot` of the current peers
        and mappings (insertion order preserved) that probe plans are built
        on.

        Shared per topology version: every call returns the same snapshot
        until :attr:`version` changes, so its integer lowering and the
        per-origin walks it remembers serve every consumer of this version.
        A new version's snapshot is built from the previous one plus
        :meth:`events_since` its version
        (:meth:`~repro.pdms.discovery.TopologySnapshot.successor`) and
        inherits every walk those events leave unchanged.  It starts cold
        when there is no previous snapshot, after
        :meth:`invalidate_snapshot`, or when the bounded log no longer
        reaches back to the previous version.  ``TopologySnapshot.of(network)``
        builds a private, cold snapshot instead.
        """
        from .discovery import TopologySnapshot

        previous = self._snapshot
        if previous is None or previous.version != self._version:
            events = None if previous is None else self.events_since(previous.version)
            self._snapshot = (
                TopologySnapshot.of(self)
                if events is None
                else previous.successor(self, events)
            )
        return self._snapshot

    def invalidate_snapshot(self) -> None:
        """Drop the shared snapshot and its walks; the next :meth:`snapshot`
        lowers the network afresh and walks cold.  Call it after
        out-of-band surgery the version counter cannot see; the structure
        caches' ``invalidate()`` calls this."""
        self._snapshot = None

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export the mapping graph; edge key is the mapping name."""
        graph = nx.MultiDiGraph(name=self.name)
        graph.add_nodes_from(self._peers)
        for mapping in self._mappings.values():
            graph.add_edge(mapping.source, mapping.target, key=mapping.name)
        return graph

    def out_degree(self, peer_name: str) -> int:
        """Number of outgoing mappings of ``peer_name``."""
        return len(self.peer(peer_name).outgoing_mappings)

    def attribute_universe(self) -> Tuple[str, ...]:
        """Union of all attribute names across peer schemas (sorted)."""
        names: set[str] = set()
        for peer in self._peers.values():
            names.update(peer.schema.attribute_names)
        return tuple(sorted(names))

    def clustering_coefficient(self) -> float:
        """Average clustering coefficient of the (undirected view of the)
        mapping graph.

        The paper motivates cycle analysis by the unusually high clustering
        of real semantic overlay networks (0.54 for the SRS biology schemas,
        §3.2.1); this lets generated topologies be checked against that.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self._peers)
        graph.add_edges_from(
            (m.source, m.target) for m in self._mappings.values()
        )
        if graph.number_of_nodes() == 0:
            return 0.0
        return float(nx.average_clustering(graph))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return (
            f"PDMSNetwork({self.name!r}, {kind}, peers={len(self._peers)}, "
            f"mappings={len(self._mappings)})"
        )
