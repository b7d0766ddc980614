"""The discovery core: one topology snapshot per version, whose carried
walks are the global view.

Cycle / parallel-path discovery is the probe phase of §3.2.1 — peers flood
their neighbourhood with TTL-bounded probe messages.  The walkers living in
:mod:`repro.pdms.probing` enumerate one origin's view of a snapshot at a
time; this module is the layer above them.

A :class:`TopologySnapshot` is an immutable, picklable view of a network's
topology.  It lowers itself once to integer adjacency, the one lowering
both walkers run on, and walks each origin's cycles and parallel paths at
most once per ttl: the structures a peer's probe finds do not depend on
the attribute or on who asked.  A network hands every consumer the same
snapshot per topology version
(:meth:`~repro.pdms.network.PDMSNetwork.snapshot`), and builds each new
version's snapshot from the previous one plus the events in between
(:meth:`TopologySnapshot.successor`): every walk those events leave
unchanged is carried over, so a change re-walks only the origins it
touches.

The global view is the union of those per-peer walks
(:meth:`TopologySnapshot.structures`).  Each structure has one owner — a
cycle the earliest peer on it in peer order, a parallel-path pair its
source — and is listed from its owner's walk only, so the global lists
are a concatenation of walks, with no dedupe, in the order and orientation
of a sequential per-peer sweep.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import PDMSError
from ..mapping.mapping import Mapping
from .events import (
    CorrespondenceChanged,
    MappingAdded,
    MappingRemoved,
    PeerRemoved,
    TopologyEvent,
)
from .probing import (
    MappingCycle,
    ParallelPaths,
    find_cycles_through,
    find_parallel_paths_from,
    validate_ttl,
)

__all__ = ["TopologySnapshot"]


# ---------------------------------------------------------------------------
# topology snapshot
# ---------------------------------------------------------------------------


class TopologySnapshot:
    """Immutable, picklable topology view the probe walkers run against.

    Captures exactly what the walkers of :mod:`repro.pdms.probing` consult
    — the peer names and the mapping edges, in network insertion order.

    The first lookup lowers the snapshot, in one pass, to integer
    adjacency (:meth:`adjacency`: peer ids plus per-peer out-edge rows in
    insertion order) and a mapping index (:meth:`mapping`); both walkers
    run on the adjacency.  A snapshot also remembers each origin's walks
    (:meth:`cycles_through`, :meth:`parallel_paths_from`), so every reader
    of it walks an origin at a given ttl once; :attr:`walks` counts the
    walks it ran, and :meth:`structures` lists the global view from them.
    A snapshot built by :meth:`successor` starts out holding the walks of
    its predecessor that the events in between leave unchanged, and
    :attr:`inherited` names the origins whose walks it could inherit.
    Neither the lowering nor the walks are pickled; both are rebuilt
    lazily after unpickling.
    """

    __slots__ = (
        "name",
        "version",
        "directed",
        "peer_names",
        "mappings",
        "inherited",
        "walks",
        "_by_name",
        "_ids",
        "_rows",
        "_cycles",
        "_paths",
        "_unsettled",
    )

    def __init__(
        self,
        peer_names: Sequence[str],
        mappings: Sequence[Mapping],
        *,
        name: str = "pdms",
        version: int = 0,
        directed: bool = True,
    ) -> None:
        self.name = name
        self.version = version
        self.directed = directed
        self.peer_names = tuple(peer_names)
        self.mappings = tuple(mappings)
        self._reset()

    def _reset(self) -> None:
        self._by_name: Optional[Dict[str, Mapping]] = None
        self._ids: Optional[Dict[str, int]] = None
        self._rows: Optional[List[List[Tuple[int, Mapping]]]] = None
        self._cycles: Dict[Tuple[str, int], Tuple[MappingCycle, ...]] = {}
        self._paths: Dict[Tuple[str, int], Tuple[ParallelPaths, ...]] = {}
        # Per ttl: inherited cycle walks not yet checked against the cycles
        # through added mappings, and the names of those mappings.
        self._unsettled: Dict[
            int, Tuple[Dict[str, Tuple[MappingCycle, ...]], Tuple[str, ...]]
        ] = {}
        #: Origins whose walks this snapshot inherited from its predecessor
        #: (empty on a cold snapshot).
        self.inherited: FrozenSet[str] = frozenset()
        #: Walks (cycles or parallel paths of one origin) this snapshot ran.
        self.walks = 0

    @classmethod
    def of(cls, source) -> "TopologySnapshot":
        """A new, private, cold snapshot of a
        :class:`~repro.pdms.network.PDMSNetwork` (idempotent on snapshots:
        an existing snapshot is returned as-is).

        :meth:`PDMSNetwork.snapshot() <repro.pdms.network.PDMSNetwork.snapshot>`
        is the shared one, whose walks every consumer of the same topology
        version reuses and the next version inherits; this builds one that
        walks every origin afresh."""
        if isinstance(source, cls):
            return source
        return cls(
            source.peer_names,
            source.mappings,
            name=source.name,
            version=source.version,
            directed=source.directed,
        )

    def successor(
        self, network, events: Sequence[Tuple[int, TopologyEvent]]
    ) -> "TopologySnapshot":
        """A snapshot of ``network``'s current topology that inherits every
        walk of this snapshot which ``events`` — the typed entries of
        :meth:`~repro.pdms.network.PDMSNetwork.events_since` this
        snapshot's version — leave unchanged.

        * Removed peers drop their walks; (re)joined peers walk cold.
        * A :class:`~repro.pdms.events.CorrespondenceChanged` mapping
          counts as removed for carrying: it keeps its name and position,
          but a carried walk would hold the replaced object.
        * An origin's cycles are carried unless (a) one of its old cycles
          holds a removed mapping, or (b) it lies on a new cycle through an
          added mapping.  Rule (b) is settled at the first cycle lookup of
          each ttl, by walking each added mapping's source on the new
          snapshot (that walk stays in the memo).  Any other cycle uses
          only mapping objects present, in the same relative order, in
          both topologies, so the depth-first walk meets the same cycles in
          the same order.
        * An origin's parallel paths are carried unless it lies within
          ``ttl - 1`` reverse hops, in the new topology, of the source of
          an added, removed or changed mapping: an origin none of whose
          simple paths of at most ``ttl`` hops crosses such a mapping
          enumerates the same paths in the same order.
        """
        removed: Set[str] = set()
        added: Dict[str, None] = {}
        changed: Set[str] = set()  # sources of added or removed mappings
        left: Set[str] = set()
        for _, event in events:
            if isinstance(event, MappingAdded):
                added[event.mapping.name] = None
                changed.add(event.mapping.source)
            elif isinstance(event, MappingRemoved):
                removed.add(event.name)
            elif isinstance(event, CorrespondenceChanged):
                removed.add(event.mapping.name)
            elif isinstance(event, PeerRemoved):
                left.add(event.name)
        # A removed (or changed) mapping added after this snapshot has its
        # source in ``changed`` already.
        changed.update(
            self.mapping(name).source for name in removed if self.has_mapping(name)
        )

        successor = TopologySnapshot.of(network)
        walked: Set[str] = {origin for origin, _ in self._cycles}
        walked.update(origin for origin, _ in self._paths)
        cycles_by_ttl: Dict[int, Dict[str, Tuple[MappingCycle, ...]]] = {}
        for ttl, (cycles, _) in self._unsettled.items():
            cycles_by_ttl[ttl] = dict(cycles)
            walked.update(cycles)
        for (origin, ttl), cycles in self._cycles.items():
            cycles_by_ttl.setdefault(ttl, {})[origin] = cycles
        successor.inherited = frozenset(walked - left)

        for ttl, cycles_of in cycles_by_ttl.items():
            kept = {
                origin: cycles
                for origin, cycles in cycles_of.items()
                if origin not in left
                and all(removed.isdisjoint(c.mapping_names) for c in cycles)
            }
            earlier = self._unsettled.get(ttl, ({}, ()))[1]
            successor._unsettled[ttl] = (
                kept,
                tuple(dict.fromkeys(earlier + tuple(added))),
            )

        for ttl in {ttl for _, ttl in self._paths}:
            near = successor._upstream(changed, ttl - 1)
            for (origin, walked_ttl), paths in self._paths.items():
                if walked_ttl == ttl and origin not in near and origin not in left:
                    successor._paths[(origin, ttl)] = paths
        return successor

    def _upstream(self, sources: Iterable[str], hops: int) -> Set[str]:
        """``sources`` and every peer within ``hops`` reverse hops of one."""
        ids, rows = self.adjacency()
        incoming: List[List[int]] = [[] for _ in rows]
        for source, row in enumerate(rows):
            for target, _ in row:
                incoming[target].append(source)
        near = {ids[name] for name in sources if name in ids}
        frontier = near
        for _ in range(hops):
            frontier = {
                peer
                for target in frontier
                for peer in incoming[target]
                if peer not in near
            }
            near |= frontier
        return {self.peer_names[index] for index in near}

    def _settle(self, ttl: int) -> None:
        """Rule (b) of :meth:`successor` for ``ttl``: keep the inherited
        cycle walks except those of origins on a cycle through a mapping
        added since they were walked."""
        inherited, added = self._unsettled.pop(ttl)
        touched: Set[str] = set()
        for name in added if inherited else ():
            if self.has_mapping(name):
                for cycle in self.cycles_through(self.mapping(name).source, ttl):
                    if name in cycle.mapping_names:
                        touched.update(mapping.source for mapping in cycle.mappings)
        for origin, cycles in inherited.items():
            if origin not in touched:
                self._cycles.setdefault((origin, ttl), cycles)

    # -- pickling: core fields only, adjacency and walks rebuilt lazily -------

    def __getstate__(self):
        return (self.name, self.version, self.directed, self.peer_names, self.mappings)

    def __setstate__(self, state) -> None:
        self.name, self.version, self.directed, self.peer_names, self.mappings = state
        self._reset()

    # -- the lowering and the walks -----------------------------------------

    def adjacency(self) -> Tuple[Dict[str, int], List[List[Tuple[int, Mapping]]]]:
        """The integer lowering: ``(ids, rows)``, where ``ids`` maps each
        peer name to its position in :attr:`peer_names` and ``rows[i]``
        lists peer ``i``'s out-edges as ``(target id, mapping)`` pairs in
        mapping insertion order.  Built once, in one pass that also fills
        the mapping index."""
        if self._rows is None:
            ids = {name: index for index, name in enumerate(self.peer_names)}
            rows: List[List[Tuple[int, Mapping]]] = [[] for _ in self.peer_names]
            by_name: Dict[str, Mapping] = {}
            for mapping in self.mappings:
                by_name[mapping.name] = mapping
                rows[ids[mapping.source]].append((ids[mapping.target], mapping))
            self._ids = ids
            self._rows = rows
            self._by_name = by_name
        return self._ids, self._rows

    def cycles_through(self, origin: str, ttl: int) -> Tuple[MappingCycle, ...]:
        """:func:`~repro.pdms.probing.find_cycles_through` on this snapshot,
        walked at most once per ``(origin, ttl)`` (or inherited)."""
        if ttl in self._unsettled:
            self._settle(ttl)
        key = (origin, ttl)
        cycles = self._cycles.get(key)
        if cycles is None:
            cycles = self._cycles[key] = find_cycles_through(self, origin, ttl)
            self.walks += 1
        return cycles

    def parallel_paths_from(self, origin: str, ttl: int) -> Tuple[ParallelPaths, ...]:
        """:func:`~repro.pdms.probing.find_parallel_paths_from` on this
        snapshot, walked at most once per ``(origin, ttl)`` (or
        inherited)."""
        key = (origin, ttl)
        paths = self._paths.get(key)
        if paths is None:
            paths = self._paths[key] = find_parallel_paths_from(self, origin, ttl=ttl)
            self.walks += 1
        return paths

    def structures(
        self, ttl: int, include_parallel_paths: bool
    ) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        """The global view at ``ttl``: every cycle, then (when
        ``include_parallel_paths``) every parallel-path pair, each listed
        once, read from :meth:`cycles_through` and
        :meth:`parallel_paths_from`.

        Per peer in :attr:`peer_names` order come the cycles of its walk
        whose earliest peer it is; then each peer's parallel-path walk as
        it stands.  That is exact: every peer on a cycle of at most ``ttl``
        hops walks it, so the first peer in order to find it is the
        earliest peer on it, and that walk fixes its orientation; a pair
        is walked only from its source, whose walk lists it once.  Nothing
        is memoised here — callers keep the lists — so when a peer rejoins
        (and moves to the end of the order) the cycles through it change
        owner on the next read.
        """
        validate_ttl(ttl)
        ids, _ = self.adjacency()
        cycles: List[MappingCycle] = []
        for index, origin in enumerate(self.peer_names):
            cycles.extend(
                cycle
                for cycle in self.cycles_through(origin, ttl)
                if all(ids[mapping.source] >= index for mapping in cycle.mappings)
            )
        parallel_paths: List[ParallelPaths] = []
        if include_parallel_paths:
            for origin in self.peer_names:
                parallel_paths.extend(self.parallel_paths_from(origin, ttl))
        return tuple(cycles), tuple(parallel_paths)

    def has_peer(self, name: str) -> bool:
        return name in self.adjacency()[0]

    def mapping(self, name: str) -> Mapping:
        self.adjacency()
        try:
            return self._by_name[name]
        except KeyError:
            raise PDMSError(f"unknown mapping {name!r} in snapshot") from None

    def has_mapping(self, name: str) -> bool:
        self.adjacency()
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.peer_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopologySnapshot({self.name!r}, version={self.version}, "
            f"peers={len(self.peer_names)}, mappings={len(self.mappings)})"
        )
