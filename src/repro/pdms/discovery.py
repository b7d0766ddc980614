"""The discovery core: probe plans run in-process.

Cycle / parallel-path discovery is the probe phase of §3.2.1 — peers flood
their neighbourhood with TTL-bounded probe messages.  The recursive walkers
living in :mod:`repro.pdms.probing` enumerate one origin's view at a time;
this module is the layer above them, mirroring what
:mod:`repro.factorgraph.plan` does for the sweep engines one level down.

A :class:`ProbePlan` states *what* to discover: an immutable, picklable
:class:`TopologySnapshot` of the network plus a *frontier* of per-origin
:class:`ProbeWorkUnit`\\ s (cycles-through, parallel-paths-from/-through
and full-neighbourhood probes), with the TTL and the parallel-path flag
stated once for the whole plan.  Both structure caches of
:mod:`repro.core.analysis` lower their full probes *and* their mutation-log
incremental refreshes onto this frontier (:func:`replay_structure_log` is
the shared replay).

:func:`run_plan` runs a plan's units in plan order on the calling thread,
one :class:`ProbeOutcome` per unit, and :meth:`ProbeRun.merged` deduplicates
them canonically (:func:`merge_structures`): cycles by their
rotation-invariant key, parallel paths by their branch-order-invariant key,
keeping the first discovery's orientation.  The merged lists are therefore
order-identical to the historical recursive sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..constants import DEFAULT_TTL
from ..exceptions import PDMSError, UnknownPeerError
from ..mapping.mapping import Mapping
from .events import MappingAdded, MappingRemoved, TopologyEvent
from .probing import (
    MappingCycle,
    ParallelPaths,
    find_cycles_through,
    find_parallel_paths_from,
    find_parallel_paths_through,
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
    "PATHS_THROUGH",
    "NEIGHBORHOOD",
    "plan_full_probe",
    "plan_neighborhood_probe",
    "plan_mapping_delta",
    "execute_work_unit",
    "merge_structures",
    "run_plan",
    "replay_structure_log",
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

    Captures exactly what the recursive walkers of
    :mod:`repro.pdms.probing` consult — the peer names and the mapping
    edges, in network insertion order — and exposes the same duck-typed
    surface (:meth:`peer`, :meth:`mapping`, :attr:`mappings`,
    :meth:`has_peer`), so every walker runs unchanged against a live
    :class:`~repro.pdms.network.PDMSNetwork` or a snapshot of it.  The
    derived adjacency indexes are rebuilt lazily after unpickling instead of
    being pickled.
    """

    __slots__ = (
        "name",
        "version",
        "directed",
        "peer_names",
        "mappings",
        "_peers",
        "_by_name",
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
        self._peers: Optional[Dict[str, _SnapshotPeer]] = None
        self._by_name: Optional[Dict[str, Mapping]] = None

    @classmethod
    def of(cls, source) -> "TopologySnapshot":
        """Snapshot a :class:`~repro.pdms.network.PDMSNetwork` (idempotent on
        snapshots: an existing snapshot is returned as-is)."""
        if isinstance(source, cls):
            return source
        return cls(
            source.peer_names,
            source.mappings,
            name=source.name,
            version=source.version,
            directed=source.directed,
        )

    # -- pickling: core fields only, adjacency rebuilt lazily ----------------

    def __getstate__(self):
        return (self.name, self.version, self.directed, self.peer_names, self.mappings)

    def __setstate__(self, state) -> None:
        self.name, self.version, self.directed, self.peer_names, self.mappings = state
        self._peers = None
        self._by_name = None

    # -- probe surface (mirrors PDMSNetwork) ---------------------------------

    def _index(self) -> Dict[str, _SnapshotPeer]:
        if self._peers is None:
            outgoing: Dict[str, List[Mapping]] = {name: [] for name in self.peer_names}
            by_name: Dict[str, Mapping] = {}
            for mapping in self.mappings:
                by_name[mapping.name] = mapping
                outgoing[mapping.source].append(mapping)
            self._peers = {
                name: _SnapshotPeer(name, tuple(edges))
                for name, edges in outgoing.items()
            }
            self._by_name = by_name
        return self._peers

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

#: Parallel-path pairs routing one branch through a mapping (``subject`` =
#: mapping name) — the incremental complement used after ``add_mapping``.
PATHS_THROUGH = "paths-through"

#: Full neighbourhood probe of one origin: its cycles and (when the plan
#: includes them) its departing parallel paths, in one unit.
NEIGHBORHOOD = "neighborhood"


@dataclass(frozen=True)
class ProbeWorkUnit:
    """One origin-addressable piece of probe work.

    ``subject`` names the origin peer (or, for :data:`PATHS_THROUGH`, the
    mapping whose source peer anchors the unit).  ``via`` optionally
    restricts the unit's results to structures traversing that mapping —
    the added-edge filter of incremental refreshes.
    """

    kind: str
    subject: str
    via: str = ""


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


def plan_mapping_delta(
    snapshot,
    mapping_name: str,
    ttl: int = DEFAULT_TTL,
    include_parallel_paths: bool = True,
) -> ProbePlan:
    """The structures *through* a freshly added mapping — everything an
    incremental refresh must graft: the cycles containing it (enumerated
    from its source peer, ``via``-filtered) and, when parallel
    paths are enabled, the pairs routing a branch through it."""
    snapshot = TopologySnapshot.of(snapshot)
    validate_ttl(ttl)
    source = snapshot.mapping(mapping_name).source
    units = [ProbeWorkUnit(CYCLES_THROUGH, source, via=mapping_name)]
    if include_parallel_paths:
        units.append(ProbeWorkUnit(PATHS_THROUGH, mapping_name))
    return ProbePlan(snapshot, tuple(units), ttl, include_parallel_paths)


def execute_work_unit(plan: ProbePlan, unit: ProbeWorkUnit) -> ProbeOutcome:
    """Run one unit of a plan with the recursive walkers of
    :mod:`repro.pdms.probing` against the plan's snapshot."""
    snapshot, ttl = plan.snapshot, plan.ttl
    cycles: Tuple[MappingCycle, ...] = ()
    parallel_paths: Tuple[ParallelPaths, ...] = ()
    if unit.kind == CYCLES_THROUGH:
        cycles = find_cycles_through(snapshot, unit.subject, ttl=ttl)
    elif unit.kind == PATHS_FROM:
        if plan.include_parallel_paths:
            parallel_paths = find_parallel_paths_from(snapshot, unit.subject, ttl=ttl)
    elif unit.kind == PATHS_THROUGH:
        if plan.include_parallel_paths:
            parallel_paths = find_parallel_paths_through(
                snapshot, unit.subject, ttl=ttl
            )
    elif unit.kind == NEIGHBORHOOD:
        cycles = find_cycles_through(snapshot, unit.subject, ttl=ttl)
        if plan.include_parallel_paths:
            parallel_paths = find_parallel_paths_from(snapshot, unit.subject, ttl=ttl)
    else:
        raise PDMSError(f"unknown probe work unit kind {unit.kind!r}")
    if unit.via:
        cycles = tuple(c for c in cycles if unit.via in c.mapping_names)
        parallel_paths = tuple(
            p for p in parallel_paths if unit.via in p.mapping_names
        )
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
    the canonical sets) match the historical recursive walkers."""
    return ProbeRun(
        plan=plan,
        outcomes=tuple(execute_work_unit(plan, unit) for unit in plan.work_units),
    )


# ---------------------------------------------------------------------------
# shared incremental replay
# ---------------------------------------------------------------------------


def replay_structure_log(
    mutations: Sequence[Tuple[int, TopologyEvent]],
    cycles: Sequence[MappingCycle],
    parallel_paths: Sequence[ParallelPaths],
    *,
    include_parallel_paths: bool,
    has_mapping: Callable[[str], bool],
    structures_through: Callable[
        [int, str], Tuple[Sequence[MappingCycle], Sequence[ParallelPaths]]
    ],
    adapt_cycle: Optional[Callable[[MappingCycle], Optional[MappingCycle]]] = None,
    adapt_path: Optional[Callable[[ParallelPaths], Optional[ParallelPaths]]] = None,
) -> Optional[Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]]:
    """Replay a network event log onto a cached structure set.

    This is the one incremental-refresh algorithm both structure caches
    lower to (they used to duplicate it).  ``mutations`` holds the typed
    entries of :meth:`~repro.pdms.network.PDMSNetwork.events_since` —
    ``(version, TopologyEvent)`` pairs:

    * ``MappingRemoved`` filters the cached structures (exact: a structure
      stays valid iff all of its own mappings still exist);
    * ``MappingAdded`` grafts the structures *through* the new edge —
      enumerated by ``structures_through(entry_version, name)``, typically a
      :func:`plan_mapping_delta` run — deduplicated against the survivors by
      canonical key.
      ``adapt_cycle`` / ``adapt_path`` localise each grafted structure to
      the consumer's view first (the per-origin cache rotates cycles to its
      origin and keeps only pairs departing from it); returning ``None``
      drops the structure;
    * ``PeerAdded`` / ``PeerRemoved`` (or any other event) abort: the
      caller must fall back to a full re-probe — peer churn changes the
      reachable neighbourhood itself, not just one edge.

    Returns the refreshed ``(cycles, parallel_paths)`` or ``None`` when the
    log cannot be replayed.  Mappings added and removed again later in the
    log are skipped (the later removal entry keeps the set consistent).
    """
    if not all(
        isinstance(event, (MappingAdded, MappingRemoved))
        for _, event in mutations
    ):
        return None
    live_cycles = list(cycles)
    live_paths = list(parallel_paths)
    # Canonical keys are only needed to dedupe grafts; remove-only logs (the
    # common case) never pay for the sets.
    seen: Optional[set] = None
    seen_paths: Optional[set] = None
    for version, event in mutations:
        name = event.subject
        if isinstance(event, MappingRemoved):
            live_cycles = [c for c in live_cycles if name not in c.mapping_names]
            live_paths = [p for p in live_paths if name not in p.mapping_names]
            seen = None
            seen_paths = None
        else:  # add_mapping
            if not has_mapping(name):
                continue
            new_cycles, new_paths = structures_through(version, name)
            if seen is None:
                seen = {cycle.canonical_key() for cycle in live_cycles}
            for cycle in new_cycles:
                if adapt_cycle is not None:
                    adapted = adapt_cycle(cycle)
                    if adapted is None:
                        continue
                    cycle = adapted
                key = cycle.canonical_key()
                if key in seen:
                    continue
                seen.add(key)
                live_cycles.append(cycle)
            if include_parallel_paths:
                if seen_paths is None:
                    seen_paths = {pair.canonical_key() for pair in live_paths}
                for pair in new_paths:
                    if adapt_path is not None:
                        adapted_pair = adapt_path(pair)
                        if adapted_pair is None:
                            continue
                        pair = adapted_pair
                    key = pair.canonical_key()
                    if key in seen_paths:
                        continue
                    seen_paths.add(key)
                    live_paths.append(pair)
    return tuple(live_cycles), tuple(live_paths)
