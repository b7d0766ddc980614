"""The discovery core: probe plans run in-process, walks carried across
topology versions.

Cycle / parallel-path discovery is the probe phase of §3.2.1 — peers flood
their neighbourhood with TTL-bounded probe messages.  The walkers living in
:mod:`repro.pdms.probing` enumerate one origin's view at a time; this
module is the layer above them, mirroring what
:mod:`repro.factorgraph.plan` does for the sweep engines one level down.

A :class:`ProbePlan` states *what* to discover: an immutable, picklable
:class:`TopologySnapshot` of the network plus a *frontier* of per-origin
:class:`ProbeWorkUnit`\\ s (cycles-through, parallel-paths-from and
full-neighbourhood probes), with the TTL and the parallel-path flag stated
once for the whole plan.  The structure cache of :mod:`repro.core.analysis`
reads every structure through such plans.

A snapshot lowers itself once to integer adjacency, which the cycles
walker runs on, and walks each origin's cycles and parallel paths at most
once per ttl: the structures a peer's probe finds do not depend on the
attribute or on which plan asked.  A network hands every consumer the same
snapshot per topology version
(:meth:`~repro.pdms.network.PDMSNetwork.snapshot`), and builds each new
version's snapshot from the previous one plus the events in between
(:meth:`TopologySnapshot.successor`): every walk those events leave
unchanged is carried over, so a change re-walks only the origins it
touches.

:func:`run_plan` runs a plan's units in plan order on the calling thread,
one :class:`ProbeOutcome` per unit, and :meth:`ProbeRun.merged` deduplicates
them canonically (:func:`merge_structures`): cycles by their
rotation-invariant key, parallel paths by their branch-order-invariant key,
keeping the first discovery's orientation.  The merged lists are therefore
order-identical to the historical per-peer sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..constants import DEFAULT_TTL
from ..exceptions import PDMSError, UnknownPeerError
from ..mapping.mapping import Mapping
from .events import MappingAdded, MappingRemoved, PeerRemoved, TopologyEvent
from .probing import (
    MappingCycle,
    ParallelPaths,
    find_cycles_through,
    find_parallel_paths_from,
    validate_ttl,
)

__all__ = [
    "TopologySnapshot",
    "ProbeWorkUnit",
    "ProbePlan",
    "ProbeOutcome",
    "ProbeRun",
    "CYCLES_THROUGH",
    "PATHS_FROM",
    "NEIGHBORHOOD",
    "plan_full_probe",
    "plan_neighborhood_probe",
    "execute_work_unit",
    "merge_structures",
    "run_plan",
]


# ---------------------------------------------------------------------------
# topology snapshot
# ---------------------------------------------------------------------------


class _SnapshotPeer:
    """One peer's probe-relevant view inside a snapshot: name + out-edges."""

    __slots__ = ("name", "outgoing_mappings")

    def __init__(self, name: str, outgoing_mappings: Tuple[Mapping, ...]) -> None:
        self.name = name
        self.outgoing_mappings = outgoing_mappings


class TopologySnapshot:
    """Immutable, picklable topology view a probe plan is executed against.

    Captures exactly what the walkers of :mod:`repro.pdms.probing` consult
    — the peer names and the mapping edges, in network insertion order —
    and exposes the same duck-typed surface (:meth:`peer`, :meth:`mapping`,
    :attr:`mappings`, :meth:`has_peer`) as a live
    :class:`~repro.pdms.network.PDMSNetwork`.

    The first lookup lowers the snapshot, in one pass, to integer
    adjacency (:meth:`adjacency`: peer ids plus per-peer out-edge rows in
    insertion order), which the cycles walker runs on.  A snapshot also
    remembers each origin's walks (:meth:`cycles_through`,
    :meth:`parallel_paths_from`), so every plan run against it walks an
    origin at a given ttl once; :attr:`walks` counts the walks it ran.
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
        "_peers",
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
        self._peers: Optional[Dict[str, _SnapshotPeer]] = None
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
        * An origin's cycles are carried unless (a) one of its old cycles
          holds a removed mapping, or (b) it lies on a new cycle through an
          added mapping.  Rule (b) is settled at the first cycle lookup of
          each ttl, by walking each added mapping's source on the new
          snapshot (that walk stays in the memo).  Any other cycle uses
          only mappings present, in the same relative order, in both
          topologies, so the depth-first walk meets the same cycles in the
          same order.
        * An origin's parallel paths are carried unless it lies within
          ``ttl - 1`` reverse hops, in the new topology, of the source of
          an added or removed mapping: an origin none of whose simple paths
          of at most ``ttl`` hops crosses a changed mapping enumerates the
          same paths in the same order.
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
            elif isinstance(event, PeerRemoved):
                left.add(event.name)
        # A removed mapping added after this snapshot has its source in
        # ``changed`` already.
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

    # -- probe surface (mirrors PDMSNetwork) ---------------------------------

    def _index(self) -> Dict[str, _SnapshotPeer]:
        """Lower the snapshot once: peer ids, integer out-edge rows, the
        per-peer views and the mapping index, all in one pass."""
        if self._peers is None:
            ids = {name: index for index, name in enumerate(self.peer_names)}
            rows: List[List[Tuple[int, Mapping]]] = [[] for _ in self.peer_names]
            outgoing: List[List[Mapping]] = [[] for _ in self.peer_names]
            by_name: Dict[str, Mapping] = {}
            for mapping in self.mappings:
                by_name[mapping.name] = mapping
                source = ids[mapping.source]
                rows[source].append((ids[mapping.target], mapping))
                outgoing[source].append(mapping)
            self._ids = ids
            self._rows = rows
            self._peers = {
                name: _SnapshotPeer(name, tuple(edges))
                for name, edges in zip(self.peer_names, outgoing)
            }
            self._by_name = by_name
        return self._peers

    def adjacency(self) -> Tuple[Dict[str, int], List[List[Tuple[int, Mapping]]]]:
        """The integer lowering: ``(ids, rows)``, where ``ids`` maps each
        peer name to its position in :attr:`peer_names` and ``rows[i]``
        lists peer ``i``'s out-edges as ``(target id, mapping)`` pairs in
        mapping insertion order."""
        self._index()
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

    def peer(self, name: str) -> _SnapshotPeer:
        try:
            return self._index()[name]
        except KeyError:
            raise UnknownPeerError(f"unknown peer {name!r} in snapshot") from None

    def has_peer(self, name: str) -> bool:
        return name in self._index()

    def mapping(self, name: str) -> Mapping:
        self._index()
        try:
            return self._by_name[name]
        except KeyError:
            raise PDMSError(f"unknown mapping {name!r} in snapshot") from None

    def has_mapping(self, name: str) -> bool:
        self._index()
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.peer_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopologySnapshot({self.name!r}, version={self.version}, "
            f"peers={len(self.peer_names)}, mappings={len(self.mappings)})"
        )


# ---------------------------------------------------------------------------
# work units and plans
# ---------------------------------------------------------------------------

#: Simple directed cycles through an origin peer (``subject`` = peer name).
CYCLES_THROUGH = "cycles-through"

#: Edge-disjoint parallel-path pairs departing from an origin peer.
PATHS_FROM = "paths-from"

#: Full neighbourhood probe of one origin: its cycles and (when the plan
#: includes them) its departing parallel paths, in one unit.
NEIGHBORHOOD = "neighborhood"


@dataclass(frozen=True)
class ProbeWorkUnit:
    """One origin-addressable piece of probe work: ``subject`` names the
    origin peer."""

    kind: str
    subject: str


@dataclass(frozen=True)
class ProbePlan:
    """An immutable, picklable description of one discovery problem.

    The TTL and the parallel-path flag are stated once for the whole plan;
    the units never re-derive them.  Plans are self-contained (snapshot
    included), so the same plan always produces the same outcomes.
    """

    snapshot: TopologySnapshot
    work_units: Tuple[ProbeWorkUnit, ...]
    ttl: int
    include_parallel_paths: bool


@dataclass(frozen=True)
class ProbeOutcome:
    """What one work unit discovered."""

    cycles: Tuple[MappingCycle, ...]
    parallel_paths: Tuple[ParallelPaths, ...]


def plan_full_probe(
    snapshot,
    ttl: int = DEFAULT_TTL,
    include_parallel_paths: bool = True,
) -> ProbePlan:
    """The global structure enumeration as a frontier: one cycles-through
    unit per peer, then one paths-from unit per peer (when enabled) — the
    unit order whose canonical merge reproduces the historical
    ``find_all_cycles`` / ``find_all_parallel_paths`` structure lists
    exactly, orientation and order included."""
    snapshot = TopologySnapshot.of(snapshot)
    validate_ttl(ttl)
    units = [ProbeWorkUnit(CYCLES_THROUGH, name) for name in snapshot.peer_names]
    if include_parallel_paths:
        units.extend(
            ProbeWorkUnit(PATHS_FROM, name) for name in snapshot.peer_names
        )
    return ProbePlan(snapshot, tuple(units), ttl, include_parallel_paths)


def plan_neighborhood_probe(
    snapshot,
    origins: Iterable[str],
    ttl: int = DEFAULT_TTL,
    include_parallel_paths: bool = True,
) -> ProbePlan:
    """Per-origin local views (§4.5): one neighbourhood unit per origin."""
    snapshot = TopologySnapshot.of(snapshot)
    validate_ttl(ttl)
    units = tuple(ProbeWorkUnit(NEIGHBORHOOD, origin) for origin in origins)
    for unit in units:
        snapshot.peer(unit.subject)  # raises UnknownPeerError eagerly
    return ProbePlan(snapshot, units, ttl, include_parallel_paths)


def execute_work_unit(plan: ProbePlan, unit: ProbeWorkUnit) -> ProbeOutcome:
    """Run one unit of a plan against the plan's snapshot with the walkers
    of :mod:`repro.pdms.probing`.

    Walks go through the snapshot's memo
    (:meth:`TopologySnapshot.cycles_through`,
    :meth:`TopologySnapshot.parallel_paths_from`), so the units of every
    plan on the same snapshot share one walk per origin and ttl."""
    snapshot, ttl = plan.snapshot, plan.ttl
    cycles: Tuple[MappingCycle, ...] = ()
    parallel_paths: Tuple[ParallelPaths, ...] = ()
    if unit.kind not in (CYCLES_THROUGH, PATHS_FROM, NEIGHBORHOOD):
        raise PDMSError(f"unknown probe work unit kind {unit.kind!r}")
    if unit.kind != PATHS_FROM:
        cycles = snapshot.cycles_through(unit.subject, ttl)
    if unit.kind != CYCLES_THROUGH and plan.include_parallel_paths:
        parallel_paths = snapshot.parallel_paths_from(unit.subject, ttl)
    return ProbeOutcome(cycles=cycles, parallel_paths=parallel_paths)


# ---------------------------------------------------------------------------
# canonical merge
# ---------------------------------------------------------------------------


def merge_structures(
    outcomes: Iterable[ProbeOutcome],
) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
    """Merge per-unit outcomes into one deduplicated structure set.

    Outcomes are consumed in plan position and deduplicated by the
    structures' canonical keys — rotation-invariant for cycles,
    branch-order-invariant for parallel paths — keeping the first
    discovery's orientation.  The merged lists therefore depend only on the
    plan, and coincide with the historical sequential enumeration for the
    plans :func:`plan_full_probe` builds.
    """
    cycles: List[MappingCycle] = []
    parallel_paths: List[ParallelPaths] = []
    seen_cycles: set = set()
    seen_paths: set = set()
    for outcome in outcomes:
        for cycle in outcome.cycles:
            key = cycle.canonical_key()
            if key not in seen_cycles:
                seen_cycles.add(key)
                cycles.append(cycle)
        for pair in outcome.parallel_paths:
            key = pair.canonical_key()
            if key not in seen_paths:
                seen_paths.add(key)
                parallel_paths.append(pair)
    return tuple(cycles), tuple(parallel_paths)


@dataclass(frozen=True)
class ProbeRun:
    """A plan's executed outcomes, one per work unit in plan order."""

    plan: ProbePlan
    outcomes: Tuple[ProbeOutcome, ...]

    def merged(self) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        return merge_structures(self.outcomes)


def run_plan(plan: ProbePlan) -> ProbeRun:
    """Run every unit of ``plan`` in plan order on the calling thread.

    Running the units in plan order makes even discovery *order* (not just
    the canonical sets) match the historical per-peer sweeps."""
    return ProbeRun(
        plan=plan,
        outcomes=tuple(execute_work_unit(plan, unit) for unit in plan.work_units),
    )
