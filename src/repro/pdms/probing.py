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
enumerates one origin peer's view.  The cycles walker runs on the integer
adjacency a :class:`~repro.pdms.discovery.TopologySnapshot` lowers to (int
peer ids, a visited bytearray, a ttl-bounded path stack); the parallel-path
walker still walks the peers' mapping objects.  Whole-network enumeration
is a composition concern — :mod:`repro.pdms.discovery` builds frontiers of
per-origin work units over these walkers, walks each origin once per
snapshot, and runs them with :func:`~repro.pdms.discovery.run_plan`;
:func:`find_all_cycles` and :func:`find_all_parallel_paths` remain as thin
conveniences delegating to a full-probe plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..constants import DEFAULT_TTL
from ..exceptions import PDMSError, UnknownPeerError
from ..mapping.mapping import Mapping
from .network import PDMSNetwork

__all__ = [
    "MappingCycle",
    "ParallelPaths",
    "find_cycles_through",
    "find_parallel_paths_from",
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
    the peer's outgoing mappings, in depth-first order over the network's
    mapping insertion order.  Raises :class:`ValueError` for a non-positive
    ``ttl`` (``ttl == 1`` is valid but can discover no cycle, even from an
    unknown origin) and :class:`~repro.exceptions.UnknownPeerError` for an
    unknown origin.

    The walk runs on the integer adjacency of a
    :class:`~repro.pdms.discovery.TopologySnapshot` (a live network is
    lowered first): integer peer ids, one visited bytearray and one path
    stack no deeper than ``ttl``.  A :class:`MappingCycle` is built only
    when a cycle closes.  A depth-first search over simple paths from one
    origin never reaches the same mapping sequence twice, so no dedupe set
    is needed.
    """
    if validate_ttl(ttl) < 2:
        return ()
    from .discovery import TopologySnapshot

    ids, rows = TopologySnapshot.of(network).adjacency()
    if origin not in ids:
        raise UnknownPeerError(f"unknown peer {origin!r}")
    start = ids[origin]
    deepest = ttl - 1
    cycles: List[MappingCycle] = []
    path: List[Mapping] = []
    visited = bytearray(len(rows))
    visited[start] = 1

    def walk(current: int, depth: int) -> None:
        for target, mapping in rows[current]:
            if target == start:
                path.append(mapping)
                cycles.append(MappingCycle(origin, tuple(path)))
                path.pop()
            elif depth < deepest and not visited[target]:
                visited[target] = 1
                path.append(mapping)
                walk(target, depth + 1)
                path.pop()
                visited[target] = 0

    for target, first in rows[start]:
        if target == start:  # a self-loop is no cycle
            continue
        visited[target] = 1
        path.append(first)
        walk(target, 1)
        path.pop()
        visited[target] = 0
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
