"""Cycle and parallel-path discovery by TTL-bounded probing.

Peers discover the structures that generate feedback — mapping cycles and
parallel mapping paths — "either by proactively flooding their neighbourhood
with probe messages with a certain Time-To-Live (TTL) or by examining the
trace of routed queries" (§3.2.1).  This module implements the probing view:
starting from a peer, it enumerates the simple directed cycles through that
peer's outgoing mappings and the pairs of edge-disjoint parallel paths
departing from it, both bounded by a TTL (maximum number of mapping hops).

The returned structures are lists of :class:`~repro.mapping.mapping.Mapping`
objects in traversal order, ready to be fed to the feedback analysis.

This module holds only the *per-work-unit* walkers: each entry point
enumerates one origin peer's view (or one mapping's delta).  Whole-network
enumeration is a composition concern — :mod:`repro.pdms.discovery` builds
frontiers of per-origin work units over these walkers and runs them with
:func:`~repro.pdms.discovery.run_plan`; :func:`find_all_cycles` and
:func:`find_all_parallel_paths` remain as thin conveniences delegating to a
full-probe plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..constants import DEFAULT_TTL
from ..exceptions import PDMSError
from ..mapping.mapping import Mapping
from .network import PDMSNetwork

__all__ = [
    "MappingCycle",
    "ParallelPaths",
    "find_cycles_through",
    "find_parallel_paths_from",
    "find_parallel_paths_through",
    "find_all_cycles",
    "find_all_parallel_paths",
    "probe_neighborhood",
    "validate_ttl",
    "ProbeResult",
]


def validate_ttl(ttl: int) -> int:
    """Check that a probe TTL is a positive hop count; return it.

    Historically the entry points disagreed: :func:`find_cycles_through`
    silently returned an empty tuple for ``ttl < 2`` (indistinguishable
    from "no cycles exist") while other callers happily recursed with
    nonsense bounds.  A non-positive TTL is always a caller bug, so every
    probing entry point — and the structure caches and assessor layered on
    top — now rejects it with :class:`ValueError`.  ``ttl == 1`` stays
    valid: it legitimately means "one hop", which can discover no cycle but
    is a well-defined probe.
    """
    if ttl < 1:
        raise ValueError(f"probe ttl must be a positive hop count, got {ttl}")
    return ttl


@dataclass(frozen=True)
class MappingCycle:
    """A directed cycle of mappings starting and ending at ``origin``."""

    origin: str
    mappings: Tuple[Mapping, ...]

    @property
    def length(self) -> int:
        return len(self.mappings)

    # Cached: the evidence evaluation re-reads the names once per attribute
    # (frozen dataclasses keep a __dict__, which cached_property writes to).
    @cached_property
    def mapping_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.mappings)

    def canonical_key(self) -> Tuple[str, ...]:
        """Rotation-invariant key identifying the cycle regardless of the
        peer that discovered it."""
        names = list(self.mapping_names)
        rotations = [tuple(names[i:] + names[:i]) for i in range(len(names))]
        return min(rotations)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " -> ".join(self.mapping_names)


@dataclass(frozen=True)
class ParallelPaths:
    """Two edge-disjoint directed mapping paths sharing source and target."""

    source: str
    target: str
    first: Tuple[Mapping, ...]
    second: Tuple[Mapping, ...]

    @property
    def mappings(self) -> Tuple[Mapping, ...]:
        """All mappings involved, first path then second path."""
        return self.first + self.second

    @cached_property
    def mapping_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.mappings)

    def canonical_key(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Order-invariant key identifying the pair of paths."""
        a = tuple(m.name for m in self.first)
        b = tuple(m.name for m in self.second)
        return (a, b) if a <= b else (b, a)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        first = " -> ".join(m.name for m in self.first)
        second = " -> ".join(m.name for m in self.second)
        return f"{first} || {second}"


@dataclass(frozen=True)
class ProbeResult:
    """Everything a peer learns from probing its neighbourhood."""

    origin: str
    ttl: int
    cycles: Tuple[MappingCycle, ...]
    parallel_paths: Tuple[ParallelPaths, ...]

    @property
    def structure_count(self) -> int:
        return len(self.cycles) + len(self.parallel_paths)


def _paths_from(
    network: PDMSNetwork,
    start: str,
    max_hops: int,
) -> Iterable[Tuple[Mapping, ...]]:
    """Enumerate simple directed mapping paths (no repeated peer) from
    ``start`` with at most ``max_hops`` mappings."""

    def extend(path: Tuple[Mapping, ...], visited: Tuple[str, ...]):
        if len(path) >= max_hops:
            return
        current = path[-1].target if path else start
        for mapping in network.peer(current).outgoing_mappings:
            if mapping.target in visited:
                continue
            new_path = path + (mapping,)
            yield new_path
            yield from extend(new_path, visited + (mapping.target,))

    yield from extend((), (start,))


def find_cycles_through(
    network: PDMSNetwork, origin: str, ttl: int = DEFAULT_TTL
) -> Tuple[MappingCycle, ...]:
    """Simple directed mapping cycles through ``origin`` of length ≤ ``ttl``.

    A cycle is reported once, oriented to start at ``origin`` with one of
    the peer's outgoing mappings.  Raises :class:`ValueError` for a
    non-positive ``ttl`` (``ttl == 1`` is valid but can discover no cycle).
    """
    if validate_ttl(ttl) < 2:
        return ()
    cycles: List[MappingCycle] = []
    seen: set[Tuple[str, ...]] = set()

    def walk(path: Tuple[Mapping, ...], visited: Tuple[str, ...]) -> None:
        current = path[-1].target
        if len(path) >= 2:
            # Close the cycle if an outgoing mapping returns to the origin.
            pass
        for mapping in network.peer(current).outgoing_mappings:
            if mapping.target == origin and len(path) + 1 >= 2:
                cycle = MappingCycle(origin=origin, mappings=path + (mapping,))
                key = cycle.canonical_key()
                if key not in seen:
                    seen.add(key)
                    cycles.append(cycle)
                continue
            if mapping.target in visited:
                continue
            if len(path) + 1 >= ttl:
                continue
            walk(path + (mapping,), visited + (mapping.target,))

    for first in network.peer(origin).outgoing_mappings:
        if first.target == origin:
            continue
        walk((first,), (origin, first.target))
    return tuple(cycles)


def find_parallel_paths_from(
    network: PDMSNetwork, origin: str, ttl: int = DEFAULT_TTL
) -> Tuple[ParallelPaths, ...]:
    """Pairs of edge-disjoint directed paths from ``origin`` to a common
    destination, each of length ≤ ``ttl``.

    Mirrors the paper's f⇒ feedback structures (§3.3).  Pairs whose two
    branches share a mapping are skipped (they would not provide independent
    evidence about the shared mapping anyway), as are trivial pairs whose
    branches are identical.
    """
    validate_ttl(ttl)
    paths_by_destination: Dict[str, List[Tuple[Mapping, ...]]] = {}
    for path in _paths_from(network, origin, max_hops=ttl):
        destination = path[-1].target
        if destination == origin:
            continue
        paths_by_destination.setdefault(destination, []).append(path)

    results: List[ParallelPaths] = []
    seen: set[Tuple[Tuple[str, ...], Tuple[str, ...]]] = set()
    for destination, paths in paths_by_destination.items():
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                first, second = paths[i], paths[j]
                first_names = {m.name for m in first}
                second_names = {m.name for m in second}
                if first_names & second_names:
                    continue
                pair = ParallelPaths(
                    source=origin, target=destination, first=first, second=second
                )
                key = pair.canonical_key()
                if key in seen:
                    continue
                seen.add(key)
                results.append(pair)
    return tuple(results)


def find_parallel_paths_through(
    network: PDMSNetwork, mapping_name: str, ttl: int = DEFAULT_TTL
) -> Tuple[ParallelPaths, ...]:
    """All parallel-path pairs one of whose branches traverses ``mapping_name``.

    The incremental complement of :func:`find_all_parallel_paths`: after a
    mapping is added, every genuinely new pair must route one branch through
    the new edge, so enumerating the branches through it — backward simple
    prefixes into its source peer × forward simple suffixes out of its
    target peer, within the TTL — and the edge-disjoint partner paths of
    each branch yields exactly the pairs a full re-probe would add.  Each
    pair is reported from the shared start peer of its two branches, i.e.
    the origin whose own probe (:func:`find_parallel_paths_from`) would
    discover it.
    """
    validate_ttl(ttl)
    mapping = network.mapping(mapping_name)
    if mapping.source == mapping.target:
        # A self-loop never appears in a simple path, so no pair contains it.
        return ()
    incoming: Dict[str, List[Mapping]] = {}
    for candidate in network.mappings:
        incoming.setdefault(candidate.target, []).append(candidate)

    results: List[ParallelPaths] = []
    seen: set[Tuple[Tuple[str, ...], Tuple[str, ...]]] = set()
    # Partner paths are enumerated once per distinct branch origin (the
    # peers within TTL upstream of the new edge), not once per branch.
    partner_memo: Dict[str, Dict[str, List[Tuple[Mapping, ...]]]] = {}

    def partner_paths(origin: str) -> Dict[str, List[Tuple[Mapping, ...]]]:
        by_destination = partner_memo.get(origin)
        if by_destination is None:
            by_destination = {}
            for path in _paths_from(network, origin, max_hops=ttl):
                destination = path[-1].target
                if destination == origin:
                    continue
                by_destination.setdefault(destination, []).append(path)
            partner_memo[origin] = by_destination
        return by_destination

    def emit(branch: Tuple[Mapping, ...]) -> None:
        origin, destination = branch[0].source, branch[-1].target
        branch_names = {m.name for m in branch}
        for partner in partner_paths(origin).get(destination, []):
            if branch_names & {m.name for m in partner}:
                continue
            pair = ParallelPaths(
                source=origin, target=destination, first=branch, second=partner
            )
            key = pair.canonical_key()
            if key in seen:
                continue
            seen.add(key)
            results.append(pair)

    def extend_backward(
        prefix: Tuple[Mapping, ...],
        suffix: Tuple[Mapping, ...],
        visited: frozenset,
    ) -> None:
        emit(prefix + (mapping,) + suffix)
        if len(prefix) + 1 + len(suffix) >= ttl:
            return
        head = prefix[0].source if prefix else mapping.source
        for previous in incoming.get(head, []):
            if previous.source in visited:
                continue
            extend_backward(
                (previous,) + prefix, suffix, visited | {previous.source}
            )

    def extend_forward(
        suffix: Tuple[Mapping, ...], visited: frozenset
    ) -> None:
        extend_backward((), suffix, visited)
        if len(suffix) + 1 >= ttl:
            return
        current = suffix[-1].target if suffix else mapping.target
        for nxt in network.peer(current).outgoing_mappings:
            if nxt.target in visited:
                continue
            extend_forward(suffix + (nxt,), visited | {nxt.target})

    extend_forward((), frozenset((mapping.source, mapping.target)))
    return tuple(results)


def probe_neighborhood(
    network: PDMSNetwork, origin: str, ttl: int = DEFAULT_TTL
) -> ProbeResult:
    """Run a full probe from ``origin``: cycles and parallel paths within TTL."""
    validate_ttl(ttl)
    if not network.has_peer(origin):
        raise PDMSError(f"unknown peer {origin!r}")
    return ProbeResult(
        origin=origin,
        ttl=ttl,
        cycles=find_cycles_through(network, origin, ttl=ttl),
        parallel_paths=find_parallel_paths_from(network, origin, ttl=ttl),
    )


def find_all_cycles(
    network: PDMSNetwork, ttl: int = DEFAULT_TTL
) -> Tuple[MappingCycle, ...]:
    """All distinct mapping cycles in the network (deduplicated across peers).

    Delegates to a full-probe plan of :mod:`repro.pdms.discovery`
    (imported lazily — discovery composes this module's walkers); the
    canonical merge reproduces the historical per-peer sweep exactly.
    """
    from .discovery import plan_full_probe, run_plan

    plan = plan_full_probe(network, ttl=ttl, include_parallel_paths=False)
    cycles, _ = run_plan(plan).merged()
    return cycles


def find_all_parallel_paths(
    network: PDMSNetwork, ttl: int = DEFAULT_TTL
) -> Tuple[ParallelPaths, ...]:
    """All distinct pairs of parallel paths in the network."""
    from .discovery import (
        PATHS_FROM,
        ProbePlan,
        ProbeWorkUnit,
        TopologySnapshot,
        run_plan,
    )

    validate_ttl(ttl)
    snapshot = TopologySnapshot.of(network)
    plan = ProbePlan(
        snapshot=snapshot,
        work_units=tuple(
            ProbeWorkUnit(PATHS_FROM, name) for name in snapshot.peer_names
        ),
        ttl=ttl,
        include_parallel_paths=True,
    )
    _, pairs = run_plan(plan).merged()
    return pairs
