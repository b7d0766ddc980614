"""Network analysis: from a PDMS to the feedback evidence it can produce.

This is the glue between the PDMS substrate and the probabilistic model:
given a network and an attribute, it enumerates the cycles and parallel
paths, evaluates each of them by pushing the attribute through the
transitive closure of its mappings, and returns the resulting
:class:`~repro.core.feedback.Feedback` evidence, ready to be turned into
factors.  It also reports, per mapping, whether the mapping provides *any*
correspondence for the attribute — the paper treats a missing correspondence
as correctness probability zero for that attribute (§3.2.1, the ⊥ case).

One :class:`StructureCache` class serves both views a consumer needs: the
experimenter's global view (every cycle and parallel-path pair in the
network, :meth:`StructureCache.structures`) and the fully decentralised view
of §4.5, one per *origin* peer (the cycles through the origin and the
parallel paths departing from it — exactly what the peer's own TTL-bounded
probes can discover, :meth:`StructureCache.structures_for`).  Structures are
attribute-independent (§3.2.1), so the cache amortises one enumeration
across all attributes and EM rounds of a topology version.

The cache never walks the network itself: it reads every structure through
:class:`~repro.pdms.discovery.ProbePlan` frontiers run by
:func:`~repro.pdms.discovery.run_plan` on the network's shared snapshot
(:meth:`~repro.pdms.network.PDMSNetwork.snapshot`).  That snapshot walks
each origin once per version and inherits, from the previous version's
snapshot, every walk the topology events in between leave unchanged — so a
change re-walks only the origins it touches, and every list is
order-identical to a fresh probe.  :class:`StructureCacheStatistics`
accounts for lookups and the walks they ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..constants import DEFAULT_TTL
from ..pdms.network import PDMSNetwork
from ..pdms.discovery import (
    ProbePlan,
    ProbeRun,
    plan_full_probe,
    plan_neighborhood_probe,
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
    "StructureCache",
    "analyze_network",
    "structure_feedbacks",
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
    (:func:`analyze_network` / :meth:`StructureCache.evidence_for`)
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


def structure_feedbacks(
    cycles: Sequence[MappingCycle],
    parallel_paths: Sequence[ParallelPaths],
    attribute: str,
    signatures: Optional[Sequence[Tuple[str, Tuple[str, ...]]]] = None,
) -> List[Feedback]:
    """Each structure evaluated for ``attribute``, in evidence order.

    Every feedback carries the identifier and mapping names of its
    :func:`structure_signatures` entry; a caller that compiled its plan
    from relabelled signatures (the per-origin instances of the local
    view) passes them as ``signatures`` and gets feedbacks labelled to
    match, one per structure.
    """
    if signatures is None:
        signatures = structure_signatures(cycles, parallel_paths)
    feedbacks: List[Feedback] = [
        feedback_from_cycle(cycle, attribute, identifier, names)
        for (identifier, names), cycle in zip(signatures, cycles)
    ]
    feedbacks.extend(
        feedback_from_parallel_paths(paths, attribute, identifier, names)
        for (identifier, names), paths in zip(
            signatures[len(cycles):], parallel_paths
        )
    )
    return feedbacks


@dataclass
class StructureCacheStatistics:
    """Lookup and walk accounting of a :class:`StructureCache`.

    ``hits`` and ``misses`` count lookups: a hit is served from the cache's
    own table for the current key, a miss reads the network's snapshot.  A
    miss is a *partial refresh* when that snapshot inherited walks from its
    predecessor (for a per-origin lookup: that origin's walks), so at most
    the origins a change touched were walked again.  Any other miss is a
    *probe* (``full_refreshes`` is the same count): it is served by cold
    walks only — no previous snapshot, an invalidated one, a truncated
    event log, or a (re)joined peer.  ``work_units`` counts the walks
    actually run on the cache's behalf: one per origin for its cycles and
    one for its parallel paths.
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


class StructureCache:
    """Per-version cache of a network's cycle / parallel-path structures.

    :meth:`structures` serves the global view — the canonical merge of every
    origin's walks in peer order, exactly what
    :func:`~repro.pdms.discovery.plan_full_probe` plus
    :func:`~repro.pdms.discovery.merge_structures` return — and
    :meth:`structures_for` / :meth:`warm` serve one origin's local view
    (§4.5).  An assessor keeps one instance per view, so each keeps its own
    :class:`StructureCacheStatistics`.

    Entries are keyed on ``(network version, ttl, include_parallel_paths)``:
    a lookup on an unchanged key is a dict hit, and a topology mutation
    bumps :attr:`~repro.pdms.network.PDMSNetwork.version`, after which the
    cache reads the walks of the network's next snapshot — inherited where
    the mutation left them unchanged, re-walked where it touched them.
    :meth:`invalidate` drops the cached structures and the network's shared
    snapshot for mutations the version counter cannot see (e.g. direct
    fiddling with network internals in tests).

    Correspondence-level edits (corruptions, repairs) deliberately do *not*
    invalidate: they change how a structure evaluates for an attribute —
    :meth:`evidence_for` re-evaluates the feedbacks on every call — not
    which structures exist.
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
        self._key: Optional[Tuple[int, int, bool]] = None
        self._global: Optional[
            Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]
        ] = None
        self._local: Dict[
            str, Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]
        ] = {}
        # The unmappable-mapping scan is origin-independent; share it across
        # the evidence_for calls of one (attribute, key).
        self._unmappable: Dict[str, Tuple[str, ...]] = {}

    def current_key(self) -> Tuple[int, int, bool]:
        """The ``(version, ttl, include_parallel_paths)`` key a lookup made
        now would be served under (consumers key derived state on this)."""
        include = self.include_parallel_paths
        if include is None:
            include = self.network.directed
        return (self.network.version, self.ttl, include)

    @property
    def key(self) -> Optional[Tuple[int, int, bool]]:
        """The key of the cached structures, or ``None`` when nothing is
        cached yet.

        Consumers deriving further state from the structures (e.g. the
        compiled :class:`~repro.factorgraph.plan.SweepPlan` of the quality
        assessor) key their own caches on this value.
        """
        return self._key

    def _sync(self) -> Tuple[int, int, bool]:
        """Drop every table of an older key; return the current key."""
        key = self.current_key()
        if key != self._key:
            self._key = key
            self._global = None
            self._local = {}
            self._unmappable = {}
        return key

    def _run(self, plan: ProbePlan, inherited: Iterable[bool]) -> ProbeRun:
        """Run ``plan`` for one lookup per ``inherited`` flag, accounting
        for the lookups and the walks they ran."""
        snapshot = plan.snapshot
        walks = snapshot.walks
        run = run_plan(plan)
        self.statistics.work_units += snapshot.walks - walks
        for partial in inherited:
            self.statistics.misses += 1
            if partial:
                self.statistics.partial_refreshes += 1
            else:
                self.statistics.probes += 1
                self.statistics.full_refreshes += 1
        return run

    def structures(self) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        """The network's cycles and parallel paths, merged once per topology
        version from the per-origin walks of the network's snapshot."""
        _, ttl, include = self._sync()
        if self._global is not None:
            self.statistics.hits += 1
            return self._global
        snapshot = self.network.snapshot()
        plan = plan_full_probe(snapshot, ttl=ttl, include_parallel_paths=include)
        self._global = self._run(plan, (bool(snapshot.inherited),)).merged()
        return self._global

    def structures_for(
        self, origin: str
    ) -> Tuple[Tuple[MappingCycle, ...], Tuple[ParallelPaths, ...]]:
        """``origin``'s local cycles and parallel paths, read at most once
        per topology version."""
        self._sync()
        entry = self._local.get(origin)
        if entry is not None:
            self.statistics.hits += 1
            return entry
        self.warm((origin,))
        return self._local[origin]

    def warm(self, origins: Sequence[str]) -> None:
        """Bring many origins' entries up to the current key in one plan.

        Fresh entries are left untouched (and unaccounted: no lookup
        happens); the other origins are read through a *single*
        neighbourhood plan, with the per-origin statistics of one
        :meth:`structures_for` call each.
        """
        _, ttl, include = self._sync()
        pending = [
            origin for origin in dict.fromkeys(origins) if origin not in self._local
        ]
        if not pending:
            return
        snapshot = self.network.snapshot()
        plan = plan_neighborhood_probe(
            snapshot, pending, ttl=ttl, include_parallel_paths=include
        )
        run = self._run(plan, (origin in snapshot.inherited for origin in pending))
        for origin, outcome in zip(pending, run.outcomes):
            self._local[origin] = (outcome.cycles, outcome.parallel_paths)

    def evidence_for(self, *scope: str) -> NetworkEvidence:
        """Per-attribute evidence from the cached structures:
        ``evidence_for(attribute)`` over the global view — the structures
        and feedback identifiers of :func:`analyze_network` — and
        ``evidence_for(origin, attribute)`` over ``origin``'s local view.
        The enumeration is amortised across attributes and EM rounds.  The
        ⊥ scan (mappings with no correspondence for the attribute) is
        memoised per attribute and key: an edit that drops or adds a
        correspondence shows after the next version bump or
        :meth:`invalidate`.
        """
        *origin, attribute = scope
        cycles, parallel_paths = (
            self.structures_for(*origin) if origin else self.structures()
        )
        return NetworkEvidence(
            attribute=attribute,
            feedbacks=tuple(
                structure_feedbacks(cycles, parallel_paths, attribute)
            ),
            unmappable=self.unmappable(attribute),
            cycles=cycles,
            parallel_paths=parallel_paths,
        )

    def unmappable(self, attribute: str) -> Tuple[str, ...]:
        """The ⊥ scan of :meth:`evidence_for`: mappings whose source schema
        declares ``attribute`` but that provide no correspondence for it,
        memoised per attribute and key."""
        self._sync()
        unmappable = self._unmappable.get(attribute)
        if unmappable is None:
            unmappable = _unmappable_mappings(self.network, attribute)
            self._unmappable[attribute] = unmappable
        return unmappable

    def invalidate(self) -> None:
        """Drop the cached structures and the network's shared snapshot
        with its walks; the next lookup walks the current topology cold."""
        self.network.invalidate_snapshot()
        self._key = None
        self._global = None
        self._local = {}
        self._unmappable = {}


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

    This probes a private, cold snapshot on every call; use a
    :class:`StructureCache` when gathering evidence for several
    attributes (or repeatedly, as the EM update does) on the same topology.
    """
    if include_parallel_paths is None:
        include_parallel_paths = network.directed
    plan = plan_full_probe(
        network, ttl=ttl, include_parallel_paths=include_parallel_paths
    )
    cycles, parallel_paths = run_plan(plan).merged()
    feedbacks = structure_feedbacks(cycles, parallel_paths, attribute)
    return NetworkEvidence(
        attribute=attribute,
        feedbacks=tuple(feedbacks),
        unmappable=_unmappable_mappings(network, attribute),
        cycles=cycles,
        parallel_paths=parallel_paths,
    )
