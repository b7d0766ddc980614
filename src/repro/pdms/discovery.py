"""The discovery core: probe plans × executors × fault policy.

Cycle / parallel-path discovery is the probe phase of §3.2.1 — peers flood
their neighbourhood with TTL-bounded probe messages.  The recursive walkers
living in :mod:`repro.pdms.probing` enumerate one origin's view at a time;
this module is the layer above them, mirroring what
:mod:`repro.factorgraph.plan` did for the sweep engines one level down.
Every probe is described, run and hardened along three independent axes:

**Plan** — *what* to discover.  A :class:`ProbePlan` IR: an immutable,
picklable :class:`TopologySnapshot` of the network plus a *frontier* of
per-origin :class:`ProbeWorkUnit`\\ s (cycles-through,
parallel-paths-from/-through and full-neighbourhood probes), with the TTL
and the parallel-path flag stated once for the whole plan.  Both structure
caches of :mod:`repro.core.analysis` lower their full probes *and* their
mutation-log incremental refreshes onto this frontier
(:func:`replay_structure_log` is the shared replay that used to be
duplicated per cache).

**Executor** — *how* to run it.  A :class:`DiscoveryExecutor` protocol with
three implementations: :class:`SerialDiscoveryExecutor` (in-process, result
order identical to the historical recursive sweeps),
:class:`ProcessPoolDiscoveryExecutor` (origin-sharded fan-out over a
``multiprocessing`` pool — origins partition cleanly, every structure is
discoverable from exactly the origins its work unit names — with results
streamed back as compact, checksummed name tuples and rehydrated against
the parent's snapshot) and the chaos-hardened
:class:`~repro.reliability.ResilientDiscoveryExecutor` layered on top of
the process fan-out.  Whatever the executor, outcomes are reassembled by
work-unit position and merged canonically (:func:`merge_structures` via
:meth:`ProbeRun.merged`): deduplication by the structures'
rotation/order-invariant canonical keys makes the merged structure set
deterministic and independent of worker scheduling — serial, sharded and
chaos-ridden discovery produce identical structure lists.

**Fault policy** — *what may go wrong, and what happens then*.  Workers
can crash, hang, straggle or return corrupted payloads; the policy axis
decides how the parent reacts.  The baseline
:class:`ProcessPoolDiscoveryExecutor` is fail-fast but never silent: every
shard carries a per-shard deadline (:func:`resolve_shard_timeout`, default
:data:`repro.constants.DEFAULT_SHARD_TIMEOUT`) turning a wedged worker
into a descriptive :class:`~repro.exceptions.DiscoveryTimeoutError`, and
every wire payload carries a :func:`payload_checksum` so corruption is
detected before — never merged after — rehydration.  The resilient
executor upgrades detection to recovery: bounded retry with seeded
backoff, quarantine, per-shard serial fallback.  Deterministic chaos
(seeded :class:`~repro.reliability.FaultPlan` schedules, installed into
workers through the same :func:`_install_worker_plan` pool initializer
that ships the plan) exercises all of it reproducibly.

The executor and fault policy are selected per consumer
(``probe_executor=``, ``fault_plan=``, ``shard_timeout=``), falling back
to the ``REPRO_PROBE_EXECUTOR`` / ``REPRO_FAULT_PLAN`` /
``REPRO_SHARD_TIMEOUT`` environment variables; all resolution helpers
(:func:`resolve_discovery_executor`, :func:`resolve_probe_workers`,
:func:`resolve_shard_timeout`) validate their inputs eagerly and name the
offending knob in their errors.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..constants import (
    DEFAULT_PROBE_EXECUTOR,
    DEFAULT_PROBE_WORKERS,
    DEFAULT_SHARD_TIMEOUT,
    DEFAULT_TTL,
    PROBE_EXECUTOR_ENV,
    PROBE_EXECUTOR_PROCESS,
    PROBE_EXECUTOR_RESILIENT,
    PROBE_EXECUTOR_SERIAL,
    PROBE_WORKERS_ENV,
    SHARD_TIMEOUT_ENV,
    read_env,
)
from ..exceptions import DiscoveryTimeoutError, PDMSError, UnknownPeerError
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
    "replay_structure_log",
    "DiscoveryExecutor",
    "SerialDiscoveryExecutor",
    "ProcessPoolDiscoveryExecutor",
    "payload_checksum",
    "resolve_discovery_executor",
    "resolve_probe_workers",
    "resolve_shard_timeout",
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
    being shipped to workers.
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

_UNIT_KINDS = frozenset({CYCLES_THROUGH, PATHS_FROM, PATHS_THROUGH, NEIGHBORHOOD})


@dataclass(frozen=True)
class ProbeWorkUnit:
    """One origin-addressable piece of probe work.

    ``subject`` names the origin peer (or, for :data:`PATHS_THROUGH`, the
    mapping whose source peer anchors the unit).  ``via`` optionally
    restricts the unit's results to structures traversing that mapping —
    stated on the unit so the added-edge filter of incremental refreshes
    runs inside the worker instead of shipping discarded structures back.
    """

    kind: str
    subject: str
    via: str = ""


@dataclass(frozen=True)
class ProbePlan:
    """An immutable, picklable description of one discovery problem.

    The TTL and the parallel-path flag are stated once for the whole plan;
    executors and workers never re-derive them per unit.  Plans are
    self-contained (snapshot included), so any executor — in-process or a
    worker pool — produces identical outcomes from the same plan.
    """

    snapshot: TopologySnapshot
    work_units: Tuple[ProbeWorkUnit, ...]
    ttl: int
    include_parallel_paths: bool

    def origin_of(self, unit: ProbeWorkUnit) -> str:
        """The peer whose neighbourhood a unit probes (the sharding key)."""
        if unit.kind == PATHS_THROUGH:
            return self.snapshot.mapping(unit.subject).source
        return unit.subject


@dataclass(frozen=True)
class ProbeOutcome:
    """What one work unit discovered, tagged with its plan position."""

    index: int
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
    from its source peer, ``via``-filtered in the worker) and, when parallel
    paths are enabled, the pairs routing a branch through it."""
    snapshot = TopologySnapshot.of(snapshot)
    validate_ttl(ttl)
    source = snapshot.mapping(mapping_name).source
    units = [ProbeWorkUnit(CYCLES_THROUGH, source, via=mapping_name)]
    if include_parallel_paths:
        units.append(ProbeWorkUnit(PATHS_THROUGH, mapping_name))
    return ProbePlan(snapshot, tuple(units), ttl, include_parallel_paths)


def execute_work_unit(plan: ProbePlan, index: int) -> ProbeOutcome:
    """Run one unit of a plan with the recursive walkers of
    :mod:`repro.pdms.probing` against the plan's snapshot."""
    unit = plan.work_units[index]
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
    return ProbeOutcome(index=index, cycles=cycles, parallel_paths=parallel_paths)


# ---------------------------------------------------------------------------
# canonical merge
# ---------------------------------------------------------------------------


def merge_structures(
    outcomes: Iterable[Optional[ProbeOutcome]],
) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
    """Merge per-unit outcomes into one deduplicated structure set.

    Outcomes are consumed in plan position (callers reassemble streamed
    results by :attr:`ProbeOutcome.index` first) and deduplicated by the
    structures' canonical keys — rotation-invariant for cycles,
    branch-order-invariant for parallel paths — keeping the first
    discovery's orientation.  The merged lists therefore depend only on the
    plan, never on which worker finished first, and coincide with the
    historical sequential enumeration for the plans
    :func:`plan_full_probe` builds.
    """
    cycles: List[MappingCycle] = []
    parallel_paths: List[ParallelPaths] = []
    seen_cycles: set = set()
    seen_paths: set = set()
    for outcome in outcomes:
        if outcome is None:
            continue
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
    """A plan's executed outcomes plus how they were produced."""

    plan: ProbePlan
    outcomes: Tuple[ProbeOutcome, ...]
    sharded: bool
    workers: int

    def merged(self) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        return merge_structures(self.outcomes)


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


@runtime_checkable
class DiscoveryExecutor(Protocol):
    """Anything that can run a :class:`ProbePlan` to a :class:`ProbeRun`."""

    name: str

    def run(self, plan: ProbePlan) -> ProbeRun:  # pragma: no cover - protocol
        ...


class SerialDiscoveryExecutor:
    """In-process execution, one unit after the other.

    Result-identical to the historical recursive walkers: the units run in
    plan order on the calling thread, so even discovery *order* (not just
    the canonical sets) matches the pre-frontier sequential code.
    """

    name = PROBE_EXECUTOR_SERIAL

    def run(self, plan: ProbePlan) -> ProbeRun:
        outcomes = tuple(
            execute_work_unit(plan, index) for index in range(len(plan.work_units))
        )
        return ProbeRun(plan=plan, outcomes=outcomes, sharded=False, workers=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialDiscoveryExecutor()"


# -- worker-side machinery of the process pool --------------------------------

#: Plan installed once per worker by the pool initializer, so shards only
#: ship unit indices instead of re-pickling the snapshot per task.
_WORKER_PLAN: Optional[ProbePlan] = None

#: Chaos injector installed alongside the plan when the run carries a
#: :class:`~repro.reliability.FaultPlan`; ``None`` in production runs.
_WORKER_INJECTOR: Optional[object] = None


def _install_worker_plan(plan: ProbePlan, fault_plan: object = None) -> None:
    """Pool initializer: install the plan (and, under chaos, the injector).

    This is the one hook through which anything reaches a discovery worker
    — the probe plan always, and a seeded
    :class:`~repro.reliability.FaultPlan` when the parent executor runs a
    chaos schedule."""
    global _WORKER_PLAN, _WORKER_INJECTOR
    _WORKER_PLAN = plan
    if fault_plan is None:
        _WORKER_INJECTOR = None
    else:
        from ..reliability import FaultInjector

        _WORKER_INJECTOR = FaultInjector(fault_plan)


def _wire_cycle(cycle: MappingCycle) -> Tuple[str, Tuple[str, ...]]:
    return (cycle.origin, cycle.mapping_names)


def _wire_pair(pair: ParallelPaths) -> Tuple[str, str, Tuple[str, ...], Tuple[str, ...]]:
    return (
        pair.source,
        pair.target,
        tuple(m.name for m in pair.first),
        tuple(m.name for m in pair.second),
    )


def _execute_shard(indices: Sequence[int]):
    """Run one shard of unit indices; return *wire* outcomes.

    Structures cross the process boundary as mapping-name tuples, not as
    full :class:`~repro.mapping.mapping.Mapping` objects — a large probe
    returns tens of thousands of structures, and shipping the (shared)
    mapping objects per structure would make result pickling dominate the
    fan-out.  The parent rehydrates against its own snapshot, so merged
    structures reference the parent's mapping instances exactly as serial
    discovery would.
    """
    plan = _WORKER_PLAN
    assert plan is not None, "worker pool initialized without a probe plan"
    wired = []
    for index in indices:
        outcome = execute_work_unit(plan, index)
        wired.append(
            (
                index,
                tuple(_wire_cycle(c) for c in outcome.cycles),
                tuple(_wire_pair(p) for p in outcome.parallel_paths),
            )
        )
    return wired


def payload_checksum(wired) -> int:
    """CRC32 over a shard's wire payload (nested tuples of names/indices).

    The payload is pure strings, ints and tuples, whose ``repr`` is a
    deterministic serialization — cheap enough to compute on both sides of
    the process boundary, strong enough that a corrupted shard result is
    detected and re-executed instead of merged."""
    return zlib.crc32(repr(wired).encode("utf-8"))


def _execute_shard_task(task):
    """Run one ``(shard, attempt, indices)`` task; return a checksummed result.

    The returned tuple is ``(shard, attempt, fired, wired, checksum)``:
    ``fired`` names the injected fault that hit this attempt (``None``
    outside chaos runs), and ``checksum`` is :func:`payload_checksum` over
    the *authentic* payload — computed before an injected ``corrupt`` fault
    mangles the wire tuples, so the parent's integrity check observes the
    mismatch exactly as it would observe real corruption.
    """
    shard, attempt, indices = task
    fired = None
    if _WORKER_INJECTOR is not None:
        # A "crash" raises out of the worker here; "hang"/"delay" sleep.
        fired = _WORKER_INJECTOR.fire(shard, attempt)
    wired = _execute_shard(indices)
    checksum = payload_checksum(wired)
    if fired == "corrupt":
        from ..reliability import corrupt_payload

        wired = corrupt_payload(wired)
    return shard, attempt, fired, wired, checksum


def _rehydrate_outcome(snapshot: TopologySnapshot, wire) -> ProbeOutcome:
    index, wire_cycles, wire_pairs = wire
    cycles = tuple(
        MappingCycle(
            origin=origin,
            mappings=tuple(snapshot.mapping(name) for name in names),
        )
        for origin, names in wire_cycles
    )
    parallel_paths = tuple(
        ParallelPaths(
            source=source,
            target=target,
            first=tuple(snapshot.mapping(name) for name in first),
            second=tuple(snapshot.mapping(name) for name in second),
        )
        for source, target, first, second in wire_pairs
    )
    return ProbeOutcome(index=index, cycles=cycles, parallel_paths=parallel_paths)


def resolve_probe_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit argument, then
    ``REPRO_PROBE_WORKERS``, then the machine's CPU count.

    The environment variable is re-read here (not only captured at import
    in :data:`~repro.constants.DEFAULT_PROBE_WORKERS`) so a malformed value
    surfaces as one clear error at resolution time, naming the variable and
    the accepted values, instead of a raw ``ValueError`` at import."""
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ValueError(
                f"probe workers must be an integer >= 1, got {workers!r}"
            )
        if workers < 1:
            raise ValueError(f"probe workers must be >= 1, got {workers}")
        return workers
    raw = read_env(PROBE_WORKERS_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{PROBE_WORKERS_ENV} must be an integer worker count "
                f"(unset, empty or <= 0 meaning 'decide at runtime'), "
                f"got {raw!r}"
            ) from None
        if value > 0:
            return value
        return os.cpu_count() or 1
    if DEFAULT_PROBE_WORKERS is not None:
        return DEFAULT_PROBE_WORKERS
    return os.cpu_count() or 1


def resolve_shard_timeout(timeout: object = None) -> float:
    """Resolve a per-shard deadline (seconds): explicit argument, then
    ``REPRO_SHARD_TIMEOUT``, then
    :data:`~repro.constants.DEFAULT_SHARD_TIMEOUT`.

    Pass ``float("inf")`` to disable the deadline entirely; zero and
    negative values are rejected (they would time every shard out
    immediately)."""
    if timeout is not None:
        try:
            value = float(timeout)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(
                f"shard timeout must be a positive number of seconds, "
                f"got {timeout!r}"
            ) from None
        if not value > 0:
            raise ValueError(
                f"shard timeout must be > 0 seconds, got {timeout!r}"
            )
        return value
    raw = read_env(SHARD_TIMEOUT_ENV)
    if raw:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"{SHARD_TIMEOUT_ENV} must be a positive number of "
                f"seconds, got {raw!r}"
            ) from None
        if not value > 0:
            raise ValueError(
                f"{SHARD_TIMEOUT_ENV} must be > 0 seconds, got {raw!r}"
            )
        return value
    return DEFAULT_SHARD_TIMEOUT if DEFAULT_SHARD_TIMEOUT else float("inf")


#: How often the parent polls outstanding shard results for readiness or
#: deadline expiry — short enough that healthy sub-second probes are not
#: noticeably delayed, long enough not to busy-spin.
_POLL_INTERVAL_SECONDS = 0.005


class ProcessPoolDiscoveryExecutor:
    """Origin-sharded fan-out of a probe plan over a ``multiprocessing`` pool.

    The plan's units are grouped by origin peer (one origin's units never
    split across workers — the per-origin caches key on exactly that
    partition) and the origin groups are dealt round-robin into a few
    shards per worker.  Each worker receives the plan once through the pool
    initializer, executes its shards with the same per-unit walkers the
    serial executor uses, and streams compact, checksummed results back;
    the parent verifies each payload's :func:`payload_checksum` and
    reassembles outcomes by unit index, so the outcome tuple — and hence
    the canonical merge — is bit-identical to serial discovery regardless
    of scheduling.

    Fault policy: fail fast, never hang, never merge garbage.  Every shard
    carries a per-shard deadline (``shard_timeout``, default
    :data:`~repro.constants.DEFAULT_SHARD_TIMEOUT` via
    :func:`resolve_shard_timeout`) — a wedged worker raises
    :class:`~repro.exceptions.DiscoveryTimeoutError` instead of blocking
    the parent forever — and a corrupted payload raises
    :class:`~repro.exceptions.PDMSError` before rehydration.  For retry,
    quarantine and graceful degradation, use the
    :class:`~repro.reliability.ResilientDiscoveryExecutor` subclass.

    Plans smaller than ``min_units`` (or a 1-worker pool) run inline: the
    fork/pickle overhead would dwarf the work, and incremental-refresh delta
    plans are routinely 1–2 units.
    """

    name = PROBE_EXECUTOR_PROCESS

    #: Shards dealt per worker — small enough to keep shard payloads chunky,
    #: large enough that an unlucky hub-heavy shard cannot serialize the run.
    SHARDS_PER_WORKER = 4

    def __init__(
        self,
        workers: Optional[int] = None,
        min_units: int = 4,
        shard_timeout: object = None,
        fault_plan: object = None,
    ) -> None:
        self.workers = resolve_probe_workers(workers)
        self.min_units = min_units
        self.shard_timeout = resolve_shard_timeout(shard_timeout)
        #: Optional :class:`~repro.reliability.FaultPlan` installed into the
        #: workers — deterministic chaos for tests and drills.  The base
        #: executor only *detects* the injected faults (crash propagates,
        #: hang times out, corruption fails the checksum); recovery is the
        #: resilient subclass's job.
        self.fault_plan = fault_plan
        self._serial = SerialDiscoveryExecutor()

    def _shards(self, plan: ProbePlan) -> List[List[int]]:
        groups: Dict[str, List[int]] = {}
        for index, unit in enumerate(plan.work_units):
            groups.setdefault(plan.origin_of(unit), []).append(index)
        shard_count = min(len(groups), self.workers * self.SHARDS_PER_WORKER)
        shards: List[List[int]] = [[] for _ in range(shard_count)]
        for position, indices in enumerate(groups.values()):
            shards[position % shard_count].extend(indices)
        return shards

    def run(self, plan: ProbePlan) -> ProbeRun:
        if self.workers < 2 or len(plan.work_units) < self.min_units:
            run = self._serial.run(plan)
            return ProbeRun(
                plan=plan, outcomes=run.outcomes, sharded=False, workers=1
            )
        shards = self._shards(plan)
        outcomes: List[Optional[ProbeOutcome]] = [None] * len(plan.work_units)
        with multiprocessing.get_context().Pool(
            processes=min(self.workers, len(shards)),
            initializer=_install_worker_plan,
            initargs=(plan, self.fault_plan),
        ) as pool:
            pending: Dict[int, Tuple[object, float]] = {}
            for shard, indices in enumerate(shards):
                handle = pool.apply_async(
                    _execute_shard_task, ((shard, 0, tuple(indices)),)
                )
                pending[shard] = (handle, time.monotonic() + self.shard_timeout)
            while pending:
                progressed = False
                for shard in list(pending):
                    handle, deadline = pending[shard]
                    if handle.ready():  # type: ignore[attr-defined]
                        del pending[shard]
                        progressed = True
                        # Re-raises the worker's exception (e.g. a crash).
                        _, _, _, wired, checksum = handle.get()  # type: ignore[attr-defined]
                        if payload_checksum(wired) != checksum:
                            raise PDMSError(
                                f"corrupted wire payload from probe shard "
                                f"{shard}: checksum mismatch; the shard "
                                f"result was discarded, not merged"
                            )
                        for wire in wired:
                            outcome = _rehydrate_outcome(plan.snapshot, wire)
                            outcomes[outcome.index] = outcome
                    elif time.monotonic() > deadline:
                        raise DiscoveryTimeoutError(
                            f"probe shard {shard} "
                            f"({len(shards[shard])} work units) exceeded its "
                            f"{self.shard_timeout:.1f}s deadline; the worker "
                            f"is presumed wedged (raise {SHARD_TIMEOUT_ENV} "
                            f"for slow hosts, or use the "
                            f"{PROBE_EXECUTOR_RESILIENT!r} probe executor "
                            f"for retry + serial fallback)"
                        )
                if pending and not progressed:
                    time.sleep(_POLL_INTERVAL_SECONDS)
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:  # pragma: no cover - defensive: a shard vanished
            raise PDMSError(f"probe work units {missing!r} returned no outcome")
        return ProbeRun(
            plan=plan,
            outcomes=tuple(outcomes),  # type: ignore[arg-type]
            sharded=True,
            workers=min(self.workers, len(shards)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessPoolDiscoveryExecutor(workers={self.workers})"


def resolve_discovery_executor(
    executor: object = None,
    workers: Optional[int] = None,
    *,
    shard_timeout: object = None,
    fault_plan: object = None,
) -> DiscoveryExecutor:
    """Resolve a ``probe_executor=`` specification to an executor object.

    ``None`` selects the configured default
    (:data:`repro.constants.DEFAULT_PROBE_EXECUTOR`, overridable through the
    ``REPRO_PROBE_EXECUTOR`` environment variable, re-read here so the
    error for a bad value names the variable); strings name the built-in
    executors (``"serial"`` / ``"process"`` / ``"resilient"``); anything
    with a ``run`` method passes through unchanged (``workers``,
    ``shard_timeout`` and ``fault_plan`` are ignored for it).

    ``fault_plan`` — a :class:`~repro.reliability.FaultPlan`, a spec string,
    or ``None`` to consult ``REPRO_FAULT_PLAN`` — arms deterministic chaos.
    A faulted *process* fan-out always resolves to the resilient executor:
    injected faults must be recovered from, never allowed to abort a probe
    or poison a merge.  ``"serial"`` ignores the fault plan (there is no
    fan-out to inject into).
    """
    from_env = False
    if executor is None:
        executor = read_env(PROBE_EXECUTOR_ENV) or DEFAULT_PROBE_EXECUTOR
        from_env = True
    if isinstance(executor, str):
        if executor in (PROBE_EXECUTOR_PROCESS, PROBE_EXECUTOR_RESILIENT):
            from ..reliability import ResilientDiscoveryExecutor, fault_plan_or_env

            fault_plan = fault_plan_or_env(fault_plan)
            if executor == PROBE_EXECUTOR_RESILIENT or fault_plan is not None:
                return ResilientDiscoveryExecutor(
                    workers=workers,
                    shard_timeout=shard_timeout,
                    fault_plan=fault_plan,
                )
            return ProcessPoolDiscoveryExecutor(
                workers=workers, shard_timeout=shard_timeout
            )
        if executor == PROBE_EXECUTOR_SERIAL:
            return SerialDiscoveryExecutor()
        hint = (
            f" (from the {PROBE_EXECUTOR_ENV} environment variable)"
            if from_env
            else ""
        )
        raise ValueError(
            f"unknown probe executor {executor!r}{hint}; expected "
            f"{PROBE_EXECUTOR_SERIAL!r}, {PROBE_EXECUTOR_PROCESS!r}, "
            f"{PROBE_EXECUTOR_RESILIENT!r} or an executor object"
        )
    if isinstance(executor, DiscoveryExecutor):
        return executor
    raise ValueError(
        f"probe executor must be a name or expose run(plan), got {executor!r}"
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
      :func:`plan_mapping_delta` run through the consumer's discovery
      executor — deduplicated against the survivors by canonical key.
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
