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

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

import networkx as nx

from ..exceptions import PDMSError, UnknownPeerError
from ..mapping.mapping import Mapping
from ..schema.schema import Schema
from .events import TopologyEvent, apply as apply_event
from .peer import Peer

__all__ = ["PDMSNetwork", "TopologyDelta"]


@dataclass
class TopologyDelta:
    """The net topology change since a network's shared snapshot.

    A :class:`PDMSNetwork` folds every mutation into one delta while it
    holds a shared snapshot, and :meth:`PDMSNetwork.snapshot` hands it to
    :meth:`~repro.pdms.discovery.TopologySnapshot.successor`.  Its size is
    bounded by the peers and mapping names the changes touch, however many
    mutations it folds.
    """

    #: Peers that left (a peer that rejoined stays here: it walks cold).
    left: Set[str] = field(default_factory=set)
    #: Names of the mappings added, in first-addition order.
    added: Dict[str, None] = field(default_factory=dict)
    #: Names of the mappings removed or whose correspondences changed.
    removed: Set[str] = field(default_factory=set)
    #: The sources of the mappings named in ``added`` and ``removed``.
    sources: Set[str] = field(default_factory=set)


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

    def __init__(self, name: str = "pdms", directed: bool = True) -> None:
        self.name = name
        self.directed = directed
        self._peers: Dict[str, Peer] = {}
        self._mappings: Dict[str, Mapping] = {}
        self._version = 0
        self._snapshot = None
        # The change since ``_snapshot``; ``None`` while there is none.
        self._delta: Optional[TopologyDelta] = None

    @property
    def version(self) -> int:
        """Monotonic topology version, bumped on every peer/mapping mutation
        and every :meth:`change_correspondences`.

        Consumers that derive expensive structures from the topology (e.g.
        :class:`repro.core.analysis.StructureCache`) key their caches on
        this counter so a mutated network is re-probed automatically.
        """
        return self._version

    def _fold(self, mapping: Mapping, added: bool) -> None:
        """Fold one mapping's addition, or its removal or change, into the
        delta since the shared snapshot."""
        delta = self._delta
        if delta is not None:
            if added:
                delta.added[mapping.name] = None
            else:
                delta.removed.add(mapping.name)
            delta.sources.add(mapping.source)

    @classmethod
    def from_events(
        cls,
        events: Iterable[TopologyEvent],
        name: str = "pdms",
        directed: bool = True,
    ) -> "PDMSNetwork":
        """Replay a script of typed events into a fresh network.

        Applies each event through the deterministic transition
        :func:`repro.pdms.events.apply`, so the same script always yields
        the same peers, mapping order and ``version`` (instance records
        are data, not topology, and are not replayed).  The gossip
        journals rebuild their replicas this way.
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
        return peer

    def remove_peer(self, name: str) -> Peer:
        """Remove a peer, cascading the removal of its incident mappings.

        Every incident mapping (outgoing *and* incoming) is removed first
        through :meth:`remove_mapping`, each bumping :attr:`version`, and
        the peer's departure bumps it once more.  The next :meth:`snapshot`
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
        if self._delta is not None:
            self._delta.left.add(name)
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
        self._fold(mapping, added=True)

        reverse = (not self.directed) if bidirectional is None else bidirectional
        if reverse:
            reversed_mapping = mapping.reversed()
            if reversed_mapping.name not in self._mappings:
                self._mappings[reversed_mapping.name] = reversed_mapping
                self._peers[reversed_mapping.source].add_outgoing_mapping(reversed_mapping)
                self._version += 1
                self._fold(reversed_mapping, added=True)
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
        self._fold(mapping, added=False)
        return mapping

    def change_correspondences(self, replacement: Mapping) -> Mapping:
        """Swap a registered mapping for ``replacement``, which carries its
        name and new correspondences; return the replaced mapping.

        Copy-on-write: ``replacement`` takes the registered mapping's place
        at the same position in :attr:`mappings` and in its owner's
        outgoing order, and the replaced object is never mutated — gossip
        replicas and the oracle share the ``Mapping`` objects of their
        :class:`~repro.pdms.events.MappingAdded` entries, and walks carried
        from earlier versions hold them.  The change bumps :attr:`version`,
        so every derived cache sees it; the next :meth:`snapshot` re-walks
        the origins whose walks hold the mapping.
        Only the named direction changes, also in an undirected network.
        """
        current = self.mapping(replacement.name)
        if replacement is current:
            raise PDMSError(
                f"change_correspondences({replacement.name}) needs a new "
                "Mapping object; the registered one is never edited in place"
            )
        self._mappings[replacement.name] = replacement
        self._peers[replacement.source]._outgoing[replacement.name] = replacement
        self._version += 1
        self._fold(replacement, added=False)
        return current

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
        and mappings (insertion order preserved) whose walks every
        structure read goes through.

        Shared per topology version: every call returns the same snapshot
        until :attr:`version` changes, so its integer lowering and the
        per-origin walks it remembers serve every consumer of this version.
        While it holds a shared snapshot the network folds every mutation
        into one :class:`TopologyDelta`; a new version's snapshot is built
        from the previous one plus that delta
        (:meth:`~repro.pdms.discovery.TopologySnapshot.successor`) and
        inherits every walk the change leaves unchanged, however many
        mutations it took.  It starts cold only when there is no previous
        snapshot or after :meth:`invalidate_snapshot`.
        ``TopologySnapshot.of(network)`` builds a private, cold snapshot
        instead.
        """
        from .discovery import TopologySnapshot

        previous = self._snapshot
        if previous is None or previous.version != self._version:
            self._snapshot = (
                TopologySnapshot.of(self)
                if previous is None
                else previous.successor(self, self._delta)
            )
            self._delta = TopologyDelta()
        return self._snapshot

    def invalidate_snapshot(self) -> None:
        """Drop the shared snapshot and its walks; the next :meth:`snapshot`
        lowers the network afresh and walks cold.  Call it after
        out-of-band surgery the version counter cannot see; the structure
        caches' ``invalidate()`` calls this."""
        self._snapshot = None
        self._delta = None

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
