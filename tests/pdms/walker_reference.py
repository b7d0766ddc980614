"""The discovery oracles: the recursive object-graph walkers and the
canonical-key merge.

Production discovery walks a snapshot's integer adjacency
(:func:`repro.pdms.probing.find_cycles_through`,
:func:`repro.pdms.probing.find_parallel_paths_from`).  The reference
walkers are the object-graph walkers they replaced: they recurse over each
peer's outgoing mappings with tuple paths and canonical-key dedupe sets,
and are deliberately left slow and simple so the tests can pin the
production walkers against an independent enumeration, order included.
They take a network or a snapshot: anything with ``peer_names`` and
``mappings`` in insertion order.

Production lists the global view by ownership
(:meth:`repro.pdms.discovery.TopologySnapshot.structures`: each cycle from
the walk of the earliest peer on it).  The oracle for that is the
canonical-key merge it replaced: every peer's walks in peer order, each
structure kept at its first discovery.
"""

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.pdms.probing import MappingCycle, ParallelPaths, validate_ttl


def cycle_key(cycle: MappingCycle) -> Tuple[str, ...]:
    """Rotation-invariant key of a cycle: the least rotation of its mapping
    names, the same whichever peer on the cycle walked it."""
    names = cycle.mapping_names
    return min(names[i:] + names[:i] for i in range(len(names)))


def canonical_key(pair: ParallelPaths) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Order-invariant key of a pair of paths: its two name sequences,
    least first."""
    a = tuple(m.name for m in pair.first)
    b = tuple(m.name for m in pair.second)
    return (a, b) if a <= b else (b, a)


def _outgoing(network) -> Dict[str, List]:
    """Each peer's outgoing mappings, in mapping insertion order."""
    return _outgoing_of(tuple(network.peer_names), tuple(network.mappings))


@lru_cache(maxsize=8)
def _outgoing_of(peer_names, mappings) -> Dict[str, List]:
    outgoing: Dict[str, List] = {name: [] for name in peer_names}
    for mapping in mappings:
        outgoing[mapping.source].append(mapping)
    return outgoing


def reference_cycles_through(
    network, origin: str, ttl: int
) -> Tuple[MappingCycle, ...]:
    """Simple directed mapping cycles through ``origin`` of length ≤ ``ttl``,
    each oriented to start with one of the origin's outgoing mappings, in
    depth-first discovery order."""
    if validate_ttl(ttl) < 2:
        return ()
    outgoing = _outgoing(network)
    cycles: List[MappingCycle] = []
    seen = set()

    def walk(path, visited):
        current = path[-1].target
        for mapping in outgoing[current]:
            if mapping.target == origin:
                cycle = MappingCycle(origin=origin, mappings=path + (mapping,))
                key = cycle_key(cycle)
                if key not in seen:
                    seen.add(key)
                    cycles.append(cycle)
                continue
            if mapping.target in visited:
                continue
            if len(path) + 1 >= ttl:
                continue
            walk(path + (mapping,), visited + (mapping.target,))

    for first in outgoing[origin]:
        if first.target == origin:
            continue
        walk((first,), (origin, first.target))
    return tuple(cycles)


def reference_parallel_paths_from(
    network, origin: str, ttl: int
) -> Tuple[ParallelPaths, ...]:
    """Pairs of edge-disjoint directed paths of at most ``ttl`` mappings
    from ``origin`` to a common destination: every simple path, grouped by
    destination in first-discovery order, paired ``(i, j)`` for ``i < j``
    when the two share no mapping name, each pair kept at its first
    discovery."""
    validate_ttl(ttl)
    outgoing = _outgoing(network)

    def extend(path, visited):
        if len(path) >= ttl:
            return
        current = path[-1].target if path else origin
        for mapping in outgoing[current]:
            if mapping.target in visited:
                continue
            new_path = path + (mapping,)
            yield new_path
            yield from extend(new_path, visited + (mapping.target,))

    paths_by_destination: Dict[str, List[Tuple]] = {}
    for path in extend((), (origin,)):
        paths_by_destination.setdefault(path[-1].target, []).append(path)

    results: List[ParallelPaths] = []
    seen = set()
    for destination, paths in paths_by_destination.items():
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                first, second = paths[i], paths[j]
                if {m.name for m in first} & {m.name for m in second}:
                    continue
                pair = ParallelPaths(
                    source=origin, target=destination, first=first, second=second
                )
                key = canonical_key(pair)
                if key not in seen:
                    seen.add(key)
                    results.append(pair)
    return tuple(results)


def canonical_merge(
    network,
    ttl: int,
    include_parallel_paths: bool = True,
    cycles_of=reference_cycles_through,
    paths_of=reference_parallel_paths_from,
):
    """The global view by canonical-key dedupe: every peer's cycle walk in
    peer order, then (when ``include_parallel_paths``) every peer's
    parallel-path walk, keeping each structure's first discovery — its
    orientation included.  ``cycles_of`` / ``paths_of`` are the walks,
    called as ``walk(network, origin, ttl)``: the reference walkers by
    default, or a snapshot's memoised ones to compare objects."""
    cycles, paths = [], []
    seen_cycles, seen_paths = set(), set()
    for name in network.peer_names:
        for cycle in cycles_of(network, name, ttl):
            key = cycle_key(cycle)
            if key not in seen_cycles:
                seen_cycles.add(key)
                cycles.append(cycle)
    if include_parallel_paths:
        for name in network.peer_names:
            for pair in paths_of(network, name, ttl):
                key = canonical_key(pair)
                if key not in seen_paths:
                    seen_paths.add(key)
                    paths.append(pair)
    return tuple(cycles), tuple(paths)


def assert_owned(snapshot, ttl: int, include_parallel_paths: bool = True):
    """Pin ``snapshot.structures`` against the canonical-key merge of the
    reference walks on the same snapshot: the same structures — origin or
    endpoints, the very mapping objects in the same order — in the same
    list order.  Returns the owned lists."""
    owned = snapshot.structures(ttl, include_parallel_paths)
    cycles, paths = canonical_merge(snapshot, ttl, include_parallel_paths)
    assert [(c.origin, c.mappings) for c in owned[0]] == [
        (c.origin, c.mappings) for c in cycles
    ]
    assert [(p.source, p.target, p.first, p.second) for p in owned[1]] == [
        (p.source, p.target, p.first, p.second) for p in paths
    ]
    return owned
