"""Network analysis: from a PDMS to the feedback evidence it can produce.

This is the glue between the PDMS substrate and the probabilistic model:
given a network and an attribute, it enumerates the cycles and parallel
paths, evaluates each of them by pushing the attribute through the
transitive closure of its mappings, and returns the resulting
:class:`~repro.core.feedback.Feedback` evidence, ready to be turned into
factors.  It also reports, per mapping, whether the mapping provides *any*
correspondence for the attribute — the paper treats a missing correspondence
as correctness probability zero for that attribute (§3.2.1, the ⊥ case).

Two caches differ in *scope* — which structures a consumer sees.
:class:`NetworkStructureCache` caches the experimenter's global view: every
cycle and parallel-path pair in the network, keyed on ``(network version,
ttl, include_parallel_paths)``.  :class:`NeighborhoodStructureCache` caches
the fully decentralised view of §4.5, one entry per *origin* peer: the
cycles through the origin and the parallel paths departing from it —
exactly what the peer's own TTL-bounded probes can discover.  Structures
are attribute-independent (§3.2.1), so either cache amortises one
enumeration across all attributes and EM rounds of a topology version; both
replay the network's typed event log (:func:`repro.pdms.discovery.replay_structure_log`
over :meth:`~repro.pdms.network.PDMSNetwork.events_since`) to refresh
incrementally when only mappings changed.

Neither cache walks the network itself: both lower their full probes and
their incremental-refresh deltas onto
:class:`~repro.pdms.discovery.ProbePlan` frontiers of per-origin work units
over the network's shared per-version snapshot and run them with
:func:`~repro.pdms.discovery.run_plan`, result-identical to the historical
per-peer sweeps.  The snapshot walks each origin's cycles once, so the
global probe, the per-origin probes and the mapping deltas of one topology
version share those walks.  :class:`StructureCacheStatistics` accounts for
lookups, refreshes and the work units executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..constants import DEFAULT_TTL
from ..exceptions import FeedbackError
from ..mapping.mapping import Mapping
from ..pdms.network import PDMSNetwork
from ..pdms.discovery import (
    plan_full_probe,
    plan_mapping_delta,
    plan_neighborhood_probe,
    replay_structure_log,
    run_plan,
)
from ..pdms.probing import (
    MappingCycle,
    ParallelPaths,
    validate_ttl,
)
from .feedback import Feedback, FeedbackKind, feedback_from_cycle, feedback_from_parallel_paths

__all__ = [
    "NetworkEvidence",
    "StructureCacheStatistics",
    "NetworkStructureCache",
    "NeighborhoodStructureCache",
    "analyze_network",
    "analyze_neighborhood",
    "structure_signatures",
]


@dataclass(frozen=True)
class NetworkEvidence:
    """All evidence gathered for one attribute across (part of) a network."""

    attribute: str
    feedbacks: Tuple[Feedback, ...]
    unmappable: Tuple[str, ...]
    cycles: Tuple[MappingCycle, ...] = ()
    parallel_paths: Tuple[ParallelPaths, ...] = ()

    @property
    def informative_feedbacks(self) -> Tuple[Feedback, ...]:
        """Feedbacks that translate into factors (positive or negative)."""
        return tuple(f for f in self.feedbacks if f.is_informative)

    @property
    def positive_count(self) -> int:
        return sum(1 for f in self.feedbacks if f.kind is FeedbackKind.POSITIVE)

    @property
    def negative_count(self) -> int:
        return sum(1 for f in self.feedbacks if f.kind is FeedbackKind.NEGATIVE)

    @property
    def neutral_count(self) -> int:
        return sum(1 for f in self.feedbacks if f.kind is FeedbackKind.NEUTRAL)

    def mappings_with_evidence(self) -> Tuple[str, ...]:
        """Names of mappings constrained by at least one informative feedback."""
        names: Dict[str, None] = {}
        for feedback in self.informative_feedbacks:
            for name in feedback.mapping_names:
                names.setdefault(name, None)
        return tuple(names)


def _unmappable_mappings(network: PDMSNetwork, attribute: str) -> Tuple[str, ...]:
    """Mappings that provide no correspondence for ``attribute`` although
    their source schema declares it."""
    unmappable: List[str] = []
    for mapping in network.mappings:
        source_schema = network.peer(mapping.source).schema
        if not source_schema.has_attribute(attribute):
            continue
        if not mapping.maps_attribute(attribute):
            unmappable.append(mapping.name)
    return tuple(unmappable)


def structure_signatures(
    cycles: Sequence[MappingCycle],
    parallel_paths: Sequence[ParallelPaths],
) -> List[Tuple[str, Tuple[str, ...]]]:
    """``(identifier, mapping names)`` pairs in evidence order.

    This is the naming contract shared by the per-attribute evidence
    (:func:`analyze_network` / :meth:`NetworkStructureCache.evidence_for`)
    and the compiled :class:`~repro.factorgraph.plan.SweepPlan`: both must
    list the same structures under the same identifiers, index for index,
    for the batched engine to bind evidence to its plan.
    """
    signatures: List[Tuple[str, Tuple[str, ...]]] = [
        (f"f{index}", cycle.mapping_names)
        for index, cycle in enumerate(cycles, start=1)
    ]
    offset = len(cycles)
    signatures.extend(
        (f"f{offset + index}=>", paths.mapping_names)
        for index, paths in enumerate(parallel_paths, start=1)
    )
    return signatures


def _evidence_from_structures(
    cycles: Sequence[MappingCycle],
    parallel_paths: Sequence[ParallelPaths],
    attribute: str,
) -> List[Feedback]:
    signatures = structure_signatures(cycles, parallel_paths)
    feedbacks: List[Feedback] = []
    for (identifier, _), cycle in zip(signatures, cycles):
        feedbacks.append(
            feedback_from_cycle(cycle, attribute, identifier=identifier)
        )
    for (identifier, _), paths in zip(
        signatures[len(cycles):], parallel_paths
    ):
        feedbacks.append(
            feedback_from_parallel_paths(paths, attribute, identifier=identifier)
        )
    return feedbacks


def _rotate_to(cycle: MappingCycle, origin: str) -> Optional[MappingCycle]:
    """``cycle`` re-oriented to start at ``origin`` (``None`` when the cycle
    does not pass through it)."""
    for index, mapping in enumerate(cycle.mappings):
        if mapping.source == origin:
            if index == 0 and cycle.origin == origin:
                return cycle
            return MappingCycle(
                origin=origin,
                mappings=cycle.mappings[index:] + cycle.mappings[:index],
            )
    return None


@dataclass
class StructureCacheStatistics:
    """Lookup and probe-work accounting of a structure cache.

    ``probes`` counts *full* cycle/parallel-path enumerations — the quantity
    the cache exists to minimise; ``hits`` and ``misses`` count lookups.  A
    miss is satisfied either by a full re-probe (``full_refreshes``, always
    equal to ``probes``) or — when the network's mutation log shows only
    mapping-level changes the cache can replay — by an incremental update of
    the affected structures (``partial_refreshes``).

    ``work_units`` counts the :class:`~repro.pdms.discovery.ProbeWorkUnit`\\ s
    executed on the cache's behalf, full probes and incremental deltas
    alike.
    """

    probes: int = 0
    hits: int = 0
    misses: int = 0
    partial_refreshes: int = 0
    full_refreshes: int = 0
    work_units: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class _ProbeDriver:
    """Shared probe-execution plumbing of both structure caches.

    Builds every plan on the network's shared per-version snapshot, so the
    global and the per-origin cache walk each origin once per topology
    version between them, and owns the probe-work accounting: every plan —
    full probe, neighbourhood batch or incremental delta — runs through
    :meth:`run`, which counts its work units (not walks) in the cache's
    :class:`StructureCacheStatistics`.
    """

    def __init__(
        self,
        network: PDMSNetwork,
        ttl: int,
        statistics: StructureCacheStatistics,
    ) -> None:
        self.network = network
        self.ttl = ttl
        self.statistics = statistics

    def run(self, plan):
        self.statistics.work_units += len(plan.work_units)
        return run_plan(plan)

    def full_probe(
        self, include_parallel_paths: bool
    ) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        """The whole network's structures via one full-probe frontier."""
        plan = plan_full_probe(
            self.network.snapshot(),
            ttl=self.ttl,
            include_parallel_paths=include_parallel_paths,
        )
        return self.run(plan).merged()

    def neighborhood_probe(
        self, origins: Sequence[str], include_parallel_paths: bool
    ) -> Dict[str, Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]]:
        """Each origin's local structures, batched into one neighbourhood
        plan."""
        plan = plan_neighborhood_probe(
            self.network.snapshot(),
            origins,
            ttl=self.ttl,
            include_parallel_paths=include_parallel_paths,
        )
        run = self.run(plan)
        return {
            unit.subject: (outcome.cycles, outcome.parallel_paths)
            for unit, outcome in zip(plan.work_units, run.outcomes)
        }

    def structures_through(
        self, mapping_name: str, include_parallel_paths: bool
    ) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        """The structures through a freshly added mapping (the graft set of
        an incremental refresh), via a mapping-delta plan."""
        plan = plan_mapping_delta(
            self.network.snapshot(),
            mapping_name,
            ttl=self.ttl,
            include_parallel_paths=include_parallel_paths,
        )
        return self.run(plan).merged()


class NetworkStructureCache:
    """Probe-once cache of a network's cycle / parallel-path structures.

    The cache is keyed on ``(network version, ttl, include_parallel_paths)``:
    a topology mutation (added/removed peer or mapping) bumps
    :attr:`~repro.pdms.network.PDMSNetwork.version` and transparently forces
    a refresh, and :meth:`invalidate` drops the cached structures and the
    network's shared snapshot explicitly for mutations the version counter
    cannot see (e.g. direct fiddling with network internals in tests).

    Incremental maintenance
    -----------------------
    When the network's typed event log (:meth:`PDMSNetwork.events_since`)
    shows only mapping-level changes since the cached version, the refresh
    updates just the structures touching the mutated mappings instead of
    re-enumerating the whole network:

    * :class:`~repro.pdms.events.MappingRemoved` drops the cycles and
      parallel paths traversing the removed mapping (exact: a structure
      stays valid iff all its own mappings still exist);
    * :class:`~repro.pdms.events.MappingAdded` enumerates only the
      structures *through the new edge*: the cycles from the new
      mapping's source peer that contain the new mapping (every genuinely
      new cycle must contain it) and — when parallel paths are enabled —
      the parallel-path pairs with one branch traversing it (a
      :func:`~repro.pdms.discovery.plan_mapping_delta` frontier; every
      genuinely new pair must route a branch through the new edge).
      Unseen structures are appended;
    * :class:`~repro.pdms.events.PeerAdded` /
      :class:`~repro.pdms.events.PeerRemoved` always fall back to a full
      re-probe — peer churn changes the reachable neighbourhood itself.

    Both the full probes and the incremental deltas are probe plans run by
    :func:`~repro.pdms.discovery.run_plan`; the replay itself is the
    shared :func:`~repro.pdms.discovery.replay_structure_log`.

    ``statistics.partial_refreshes`` / ``full_refreshes`` record which path
    served each miss.  Incrementally added structures are appended after the
    surviving ones, so feedback identifiers may be numbered differently than
    a fresh probe would number them.  Grafted cycles are rotated to the
    orientation a fresh full probe reports — starting at the cycle's first
    peer in network order, the first origin whose probe discovers it —
    because a cycle's feedback traces the attribute in its origin's schema:
    the same cycle read from another peer can flip sign, and a live cache
    must assess exactly like a fresh one.

    Correspondence-level edits (corruptions, repairs) deliberately do *not*
    invalidate: they change how a structure evaluates for an attribute — the
    per-call :meth:`evidence_for` always re-evaluates — not which structures
    exist.
    """

    def __init__(
        self,
        network: PDMSNetwork,
        ttl: int = DEFAULT_TTL,
        include_parallel_paths: Optional[bool] = None,
    ) -> None:
        self.network = network
        # Fail fast: a nonsense ttl would otherwise only surface at the
        # first (possibly much later) probe.
        self.ttl = validate_ttl(ttl)
        self.include_parallel_paths = include_parallel_paths
        self.statistics = StructureCacheStatistics()
        self._driver = _ProbeDriver(network, self.ttl, self.statistics)
        self._key: Optional[Tuple[int, int, bool]] = None
        self._cycles: Tuple[MappingCycle, ...] = ()
        self._parallel_paths: Tuple[ParallelPaths, ...] = ()

    def _resolved_include_parallel_paths(self) -> bool:
        if self.include_parallel_paths is None:
            return self.network.directed
        return self.include_parallel_paths

    @property
    def key(self) -> Optional[Tuple[int, int, bool]]:
        """The ``(version, ttl, include_parallel_paths)`` key of the cached
        structures, or ``None`` when nothing is cached yet.

        Consumers deriving further state from the structures (e.g. the
        compiled :class:`~repro.factorgraph.plan.SweepPlan` of the quality
        assessor) key their own caches on this value.
        """
        return self._key

    def structures(self) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        """The network's cycles and parallel paths, probing at most once per
        topology version (and only partially when the mutation log allows)."""
        include = self._resolved_include_parallel_paths()
        key = (self.network.version, self.ttl, include)
        if key == self._key:
            self.statistics.hits += 1
            return self._cycles, self._parallel_paths
        self.statistics.misses += 1
        if self._refresh_incrementally(key):
            self.statistics.partial_refreshes += 1
        else:
            self.statistics.probes += 1
            self.statistics.full_refreshes += 1
            self._cycles, self._parallel_paths = self._driver.full_probe(include)
        self._key = key
        return self._cycles, self._parallel_paths

    def _refresh_incrementally(self, key: Tuple[int, int, bool]) -> bool:
        """Replay the mutation log onto the cached structures when possible.

        Returns ``True`` when the cached cycles / parallel paths were brought
        up to ``key`` without a full enumeration; ``False`` requests a full
        re-probe (peer additions, truncated logs, or ttl / parallel-path
        flag changes).  The replay is the shared
        :func:`~repro.pdms.discovery.replay_structure_log`; the graft sets of
        added mappings are mapping-delta plans.
        """
        if self._key is None or self._key[1:] != key[1:]:
            return False
        mutations = self.network.events_since(self._key[0])
        if mutations is None or not mutations:
            return False
        include = key[2]
        # Grafted cycles start at their first peer in network order: the
        # orientation plan_full_probe's canonical merge keeps.
        rank = {name: index for index, name in enumerate(self.network.peer_names)}
        refreshed = replay_structure_log(
            mutations,
            self._cycles,
            self._parallel_paths,
            include_parallel_paths=include,
            has_mapping=self.network.has_mapping,
            structures_through=lambda version, name: self._driver.structures_through(
                name, include
            ),
            adapt_cycle=lambda cycle: _rotate_to(
                cycle, min((m.source for m in cycle.mappings), key=rank.__getitem__)
            ),
        )
        if refreshed is None:
            return False
        self._cycles, self._parallel_paths = refreshed
        return True

    def evidence_for(self, attribute: str) -> NetworkEvidence:
        """Per-attribute evidence derived from the cached structures.

        Equivalent to :func:`analyze_network` — same structures, same
        feedback identifiers — but the exponential enumeration is amortised
        across attributes and EM rounds.
        """
        cycles, parallel_paths = self.structures()
        feedbacks = _evidence_from_structures(cycles, parallel_paths, attribute)
        return NetworkEvidence(
            attribute=attribute,
            feedbacks=tuple(feedbacks),
            unmappable=_unmappable_mappings(self.network, attribute),
            cycles=cycles,
            parallel_paths=parallel_paths,
        )

    def invalidate(self) -> None:
        """Drop the cached structures and the network's shared snapshot
        with its walks; the next lookup re-probes the current topology."""
        self.network.invalidate_snapshot()
        self._key = None
        self._cycles = ()
        self._parallel_paths = ()


@dataclass
class _NeighborhoodEntry:
    """Cached local view of one origin: its structures at one cache key."""

    key: Tuple[int, int, bool]
    cycles: Tuple[MappingCycle, ...]
    parallel_paths: Tuple[ParallelPaths, ...]


class NeighborhoodStructureCache:
    """Probe-once cache of every peer's *local* structure view (§4.5).

    Where :class:`NetworkStructureCache` caches the global structure set,
    this cache keeps one entry per *origin*: the cycles through the origin
    and the parallel paths departing from it — exactly the evidence the
    peer's own TTL-bounded probes can discover.  Entries are keyed on
    ``(network version, ttl, include_parallel_paths)`` and refreshed lazily,
    so assessing the decentralised view over many origins, attributes and EM
    rounds costs exactly one neighbourhood probe per ``(origin, network
    version)``.

    Incremental maintenance
    -----------------------
    Mirrors :class:`NetworkStructureCache`, replayed per origin from the
    network's mutation log:

    * ``remove_mapping`` filters each origin's cached cycles and parallel
      paths (exact);
    * ``add_mapping`` enumerates the structures *through the new edge*
      once — a :func:`~repro.pdms.discovery.plan_mapping_delta` frontier
      yielding the cycles containing the new mapping and, when parallel
      paths are enabled, the parallel-path pairs routing a branch through
      it — then grafts onto each cached origin the new cycles passing
      through it (rotated to start at that origin, the orientation its own
      probe would report) and the new pairs departing from it;
    * ``add_peer`` (or a truncated log) always falls back to a full
      re-probe of the origin on its next lookup.

    Full probes and deltas are probe plans run by
    :func:`~repro.pdms.discovery.run_plan`; :meth:`warm` batches many
    origins' pending full probes into one neighbourhood plan instead of one
    plan per origin.

    As with the global cache, incrementally appended cycles are numbered
    after the surviving ones, so feedback identifiers may differ from what a
    fresh probe would produce; the structure *set* is identical.
    """

    def __init__(
        self,
        network: PDMSNetwork,
        ttl: int = DEFAULT_TTL,
        include_parallel_paths: Optional[bool] = None,
    ) -> None:
        self.network = network
        # Fail fast: a nonsense ttl would otherwise only surface at the
        # first (possibly much later) probe.
        self.ttl = validate_ttl(ttl)
        self.include_parallel_paths = include_parallel_paths
        self.statistics = StructureCacheStatistics()
        self._driver = _ProbeDriver(network, self.ttl, self.statistics)
        self._entries: Dict[str, _NeighborhoodEntry] = {}
        # Structures through a freshly added mapping, shared across the
        # origins replaying the same log entry at the same topology version.
        self._delta_memo: Dict[
            Tuple[int, str, int, bool],
            Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]],
        ] = {}
        # The unmappable-mapping scan is origin-independent; share it across
        # the per-origin evidence_for calls of one (attribute, version).
        self._unmappable_memo: Dict[Tuple[str, int], Tuple[str, ...]] = {}

    def _resolved_include_parallel_paths(self) -> bool:
        if self.include_parallel_paths is None:
            return self.network.directed
        return self.include_parallel_paths

    def current_key(self) -> Tuple[int, int, bool]:
        """The ``(version, ttl, include_parallel_paths)`` key a lookup made
        now would be served under (consumers key derived state on this)."""
        return (
            self.network.version,
            self.ttl,
            self._resolved_include_parallel_paths(),
        )

    def structures_for(
        self, origin: str
    ) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        """``origin``'s local cycles and parallel paths, probing at most once
        per topology version (and only partially when the log allows)."""
        key = self.current_key()
        entry = self._entries.get(origin)
        if entry is not None and entry.key == key:
            self.statistics.hits += 1
            return entry.cycles, entry.parallel_paths
        self.statistics.misses += 1
        if entry is not None and self._refresh_incrementally(entry, origin, key):
            self.statistics.partial_refreshes += 1
            entry.key = key
            return entry.cycles, entry.parallel_paths
        self.statistics.probes += 1
        self.statistics.full_refreshes += 1
        cycles, parallel_paths = self._driver.neighborhood_probe((origin,), key[2])[
            origin
        ]
        self._entries[origin] = _NeighborhoodEntry(key, cycles, parallel_paths)
        return cycles, parallel_paths

    def warm(self, origins: Sequence[str]) -> None:
        """Bring many origins' entries up to the current key in one pass.

        Fresh entries are left untouched (and unaccounted: no lookup
        happens), refreshable entries replay the mutation log exactly as a
        lazy lookup would, and the remaining origins' full probes are
        batched into a *single* neighbourhood plan.  Per-origin statistics
        (``misses`` / ``probes`` / ``partial_refreshes`` /
        ``full_refreshes``) are identical to probing the origins one
        :meth:`structures_for` call at a time.
        """
        key = self.current_key()
        pending: List[str] = []
        for origin in dict.fromkeys(origins):
            entry = self._entries.get(origin)
            if entry is not None and entry.key == key:
                continue
            if entry is not None and self._refresh_incrementally(entry, origin, key):
                self.statistics.misses += 1
                self.statistics.partial_refreshes += 1
                entry.key = key
                continue
            pending.append(origin)
        if not pending:
            return
        probed = self._driver.neighborhood_probe(tuple(pending), key[2])
        for origin in pending:
            cycles, parallel_paths = probed[origin]
            self.statistics.misses += 1
            self.statistics.probes += 1
            self.statistics.full_refreshes += 1
            self._entries[origin] = _NeighborhoodEntry(key, cycles, parallel_paths)

    def _structures_through_added(
        self, entry_version: int, name: str, include_parallel_paths: bool
    ) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        """The structures through the freshly added mapping ``name`` — the
        cycles containing it (oriented from its source peer) and the pairs
        routing a branch through it, each pair carrying the origin whose
        probe would discover it.

        Enumerated once per (log entry, current topology version) via a
        mapping-delta plan and shared across the origins replaying the same
        entry.
        """
        memo_key = (entry_version, name, self.network.version, include_parallel_paths)
        cached = self._delta_memo.get(memo_key)
        if cached is not None:
            return cached
        structures = self._driver.structures_through(name, include_parallel_paths)
        if len(self._delta_memo) > 64:
            self._delta_memo.clear()
        self._delta_memo[memo_key] = structures
        return structures

    def _refresh_incrementally(
        self, entry: _NeighborhoodEntry, origin: str, key: Tuple[int, int, bool]
    ) -> bool:
        """Replay the mutation log onto one origin's entry when possible.

        The replay is the shared
        :func:`~repro.pdms.discovery.replay_structure_log`, localised to the
        origin's view: grafted cycles are rotated to start at the origin
        (the orientation its own probe would report; cycles not passing
        through it are dropped), and grafted pairs are kept only when they
        depart from the origin — parallel paths are only discoverable by
        the probe of their shared start peer.
        """
        if entry.key[1:] != key[1:]:
            return False
        mutations = self.network.events_since(entry.key[0])
        if mutations is None or not mutations:
            return False
        include = key[2]
        refreshed = replay_structure_log(
            mutations,
            entry.cycles,
            entry.parallel_paths,
            include_parallel_paths=include,
            has_mapping=self.network.has_mapping,
            structures_through=lambda version, name: self._structures_through_added(
                version, name, include
            ),
            adapt_cycle=lambda cycle: _rotate_to(cycle, origin),
            adapt_path=lambda pair: pair if pair.source == origin else None,
        )
        if refreshed is None:
            return False
        entry.cycles, entry.parallel_paths = refreshed
        return True

    def evidence_for(self, origin: str, attribute: str) -> NetworkEvidence:
        """``origin``'s per-attribute local evidence from the cached view.

        Equivalent to :func:`analyze_neighborhood` — same structures, same
        feedback identifiers — but the neighbourhood probe is amortised
        across attributes and EM rounds.
        """
        cycles, parallel_paths = self.structures_for(origin)
        feedbacks = _evidence_from_structures(cycles, parallel_paths, attribute)
        memo_key = (attribute, self.network.version)
        unmappable = self._unmappable_memo.get(memo_key)
        if unmappable is None:
            unmappable = _unmappable_mappings(self.network, attribute)
            if len(self._unmappable_memo) > 256:
                self._unmappable_memo.clear()
            self._unmappable_memo[memo_key] = unmappable
        return NetworkEvidence(
            attribute=attribute,
            feedbacks=tuple(feedbacks),
            unmappable=unmappable,
            cycles=cycles,
            parallel_paths=parallel_paths,
        )

    def invalidate(self) -> None:
        """Drop every origin's cached view and the network's shared
        snapshot with its walks; the next lookups re-probe the current
        topology."""
        self.network.invalidate_snapshot()
        self._entries.clear()
        self._delta_memo.clear()
        self._unmappable_memo.clear()


def analyze_network(
    network: PDMSNetwork,
    attribute: str,
    ttl: int = DEFAULT_TTL,
    include_parallel_paths: Optional[bool] = None,
) -> NetworkEvidence:
    """Gather all feedback evidence for ``attribute`` across ``network``.

    ``include_parallel_paths`` defaults to the network's directedness:
    parallel paths are only meaningful in directed PDMS (§3.3) — in an
    undirected network they already appear as cycles.  The enumeration is
    one full-probe plan.

    This probes the network from scratch on every call; use a
    :class:`NetworkStructureCache` when gathering evidence for several
    attributes (or repeatedly, as the EM update does) on the same topology.
    """
    if include_parallel_paths is None:
        include_parallel_paths = network.directed
    plan = plan_full_probe(
        network, ttl=ttl, include_parallel_paths=include_parallel_paths
    )
    cycles, parallel_paths = run_plan(plan).merged()
    feedbacks = _evidence_from_structures(cycles, parallel_paths, attribute)
    return NetworkEvidence(
        attribute=attribute,
        feedbacks=tuple(feedbacks),
        unmappable=_unmappable_mappings(network, attribute),
        cycles=cycles,
        parallel_paths=parallel_paths,
    )


def analyze_neighborhood(
    network: PDMSNetwork,
    origin: str,
    attribute: str,
    ttl: int = DEFAULT_TTL,
    include_parallel_paths: Optional[bool] = None,
) -> NetworkEvidence:
    """Gather the feedback evidence one peer can see by probing with ``ttl``.

    This is the fully decentralised view: only cycles through ``origin`` and
    parallel paths departing from ``origin`` are considered, which is
    exactly what the peer can learn from its own probes (§3.2.1, §4.5).
    The probe is a one-origin neighbourhood plan.
    """
    if include_parallel_paths is None:
        include_parallel_paths = network.directed
    plan = plan_neighborhood_probe(
        network, (origin,), ttl=ttl, include_parallel_paths=include_parallel_paths
    )
    (outcome,) = run_plan(plan).outcomes
    cycles, parallel_paths = outcome.cycles, outcome.parallel_paths
    feedbacks = _evidence_from_structures(cycles, parallel_paths, attribute)
    return NetworkEvidence(
        attribute=attribute,
        feedbacks=tuple(feedbacks),
        unmappable=_unmappable_mappings(network, attribute),
        cycles=cycles,
        parallel_paths=parallel_paths,
    )
