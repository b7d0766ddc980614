"""Cycle and parallel-path discovery by TTL-bounded probing.

Peers discover the structures that generate feedback — mapping cycles and
parallel mapping paths — "either by proactively flooding their neighbourhood
with probe messages with a certain Time-To-Live (TTL) or by examining the
trace of routed queries" (§3.2.1).  This module implements the probing view:
starting from a peer, it enumerates the simple directed cycles through that
peer's outgoing mappings and the pairs of edge-disjoint parallel paths
departing from it, both bounded by a TTL (maximum number of mapping hops).

The returned structures hold :class:`~repro.mapping.mapping.Mapping`
objects in traversal order, ready to be fed to the feedback analysis; each
structure checks its chain once, when it is built.

This module holds only the *per-origin* walkers: each entry point
enumerates one origin peer's view of a
:class:`~repro.pdms.discovery.TopologySnapshot`, depth-first over the
integer adjacency the snapshot lowers to (int peer ids, one visited
bytearray, a ttl-bounded path stack).  Whole-network enumeration is a
composition concern — a snapshot walks each origin once, carries the walks
across versions, and lists the global view from them
(:meth:`~repro.pdms.discovery.TopologySnapshot.structures`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from ..constants import DEFAULT_TTL
from ..exceptions import MappingCompositionError, UnknownPeerError
from ..mapping.composition import validate_chain
from ..mapping.mapping import Mapping

__all__ = [
    "MappingCycle",
    "ParallelPaths",
    "find_cycles_through",
    "find_parallel_paths_from",
    "validate_ttl",
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
    """A directed cycle of mappings starting and ending at ``origin``.

    Building one checks the chain once (each mapping starts where the one
    before it ends, and the last ends where the first starts, at
    ``origin``) and raises
    :class:`~repro.exceptions.MappingCompositionError` otherwise, so the
    feedback evaluation need not check it again.
    """

    origin: str
    mappings: Tuple[Mapping, ...]

    def __post_init__(self) -> None:
        validate_chain(self.mappings)
        start, end = self.mappings[0].source, self.mappings[-1].target
        if start != self.origin or end != self.origin:
            raise MappingCompositionError(
                f"not a cycle through {self.origin!r}: starts at {start!r}, "
                f"ends at {end!r}"
            )

    # Cached: the evidence evaluation re-reads the names once per attribute
    # (frozen dataclasses keep a __dict__, which cached_property writes to).
    @cached_property
    def mapping_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.mappings)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " -> ".join(self.mapping_names)


@dataclass(frozen=True)
class ParallelPaths:
    """Two edge-disjoint directed mapping paths sharing source and target.

    Building one checks both chains once and that each runs from
    ``source`` to ``target``, raising
    :class:`~repro.exceptions.MappingCompositionError` otherwise.
    """

    source: str
    target: str
    first: Tuple[Mapping, ...]
    second: Tuple[Mapping, ...]

    def __post_init__(self) -> None:
        for path in (self.first, self.second):
            validate_chain(path)
            start, end = path[0].source, path[-1].target
            if start != self.source or end != self.target:
                raise MappingCompositionError(
                    f"parallel paths must run from {self.source!r} to "
                    f"{self.target!r}, got a path from {start!r} to {end!r}"
                )

    @property
    def mappings(self) -> Tuple[Mapping, ...]:
        """All mappings involved, first path then second path."""
        return self.first + self.second

    @cached_property
    def mapping_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.mappings)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        first = " -> ".join(m.name for m in self.first)
        second = " -> ".join(m.name for m in self.second)
        return f"{first} || {second}"


def _lowered(snapshot, origin: str) -> Tuple[int, List[List[Tuple[int, Mapping]]]]:
    """``origin``'s id and the out-edge rows of ``snapshot``'s integer
    adjacency; an unknown origin raises
    :class:`~repro.exceptions.UnknownPeerError`."""
    ids, rows = snapshot.adjacency()
    if origin not in ids:
        raise UnknownPeerError(f"unknown peer {origin!r}")
    return ids[origin], rows


def find_cycles_through(
    snapshot, origin: str, ttl: int = DEFAULT_TTL
) -> Tuple[MappingCycle, ...]:
    """Simple directed mapping cycles through ``origin`` of length ≤ ``ttl``
    in a :class:`~repro.pdms.discovery.TopologySnapshot`.

    A cycle is reported once, oriented to start at ``origin`` with one of
    the peer's outgoing mappings, in depth-first order over the snapshot's
    mapping insertion order.  Raises :class:`ValueError` for a non-positive
    ``ttl`` (``ttl == 1`` is valid but can discover no cycle, even from an
    unknown origin) and :class:`~repro.exceptions.UnknownPeerError` for an
    unknown origin.

    The walk runs on the snapshot's integer adjacency: integer peer ids,
    one visited bytearray and one path stack no deeper than ``ttl``.  A
    :class:`MappingCycle` is built only when a cycle closes.  A depth-first
    search over simple paths from one origin never reaches the same
    mapping sequence twice, so no dedupe set is needed.
    """
    if validate_ttl(ttl) < 2:
        return ()
    start, rows = _lowered(snapshot, origin)
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
    snapshot, origin: str, ttl: int = DEFAULT_TTL
) -> Tuple[ParallelPaths, ...]:
    """Pairs of edge-disjoint directed paths from ``origin`` to a common
    destination, each of length ≤ ``ttl``, in a
    :class:`~repro.pdms.discovery.TopologySnapshot`.

    Mirrors the paper's f⇒ feedback structures (§3.3).  Pairs whose two
    branches share a mapping are skipped: they would not provide
    independent evidence about the shared mapping.  Raises
    :class:`ValueError` for a non-positive ``ttl`` and
    :class:`~repro.exceptions.UnknownPeerError` for an unknown origin.

    The walk runs on the snapshot's integer adjacency, like
    :func:`find_cycles_through`: it lists every simple path from
    ``origin`` (no peer twice) depth-first over the mapping insertion
    order, grouped by destination in the order the walk first reaches
    each.  Per destination, path ``i`` pairs with every later path ``j``
    that shares no mapping object with it, as ``(first=i, second=j)``.  A
    depth-first walk lists each simple path once, so no pair repeats, and
    a :class:`ParallelPaths` is built only for a kept pair.
    """
    validate_ttl(ttl)
    start, rows = _lowered(snapshot, origin)
    arrivals: Dict[int, List[Tuple[Mapping, ...]]] = {}
    path: List[Mapping] = []
    visited = bytearray(len(rows))
    visited[start] = 1

    def walk(current: int, depth: int) -> None:
        for target, mapping in rows[current]:
            if visited[target]:
                continue
            path.append(mapping)
            arrivals.setdefault(target, []).append(tuple(path))
            if depth < ttl:
                visited[target] = 1
                walk(target, depth + 1)
                visited[target] = 0
            path.pop()

    walk(start, 1)
    names = snapshot.peer_names
    pairs: List[ParallelPaths] = []
    for target, paths in arrivals.items():
        destination = names[target]
        for i, first in enumerate(paths[:-1]):
            used = set(first)
            for second in paths[i + 1 :]:
                if used.isdisjoint(second):
                    pairs.append(ParallelPaths(origin, destination, first, second))
    return tuple(pairs)
