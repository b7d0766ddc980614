"""The discovery oracles: the recursive cycles walker and the
canonical-key merge.

Production discovery walks a snapshot's integer adjacency
(:func:`repro.pdms.probing.find_cycles_through`).  The reference walker is
the object-graph walker it replaced: it recurses over
``network.peer(name).outgoing_mappings`` with tuple paths and a
canonical-key dedupe set, and is deliberately left slow and simple so the
tests can pin the production walker against an independent enumeration,
order included.

Production lists the global view by ownership
(:meth:`repro.pdms.discovery.TopologySnapshot.structures`: each cycle from
the walk of the earliest peer on it).  The oracle for that is the
canonical-key merge it replaced: every peer's walks in peer order, each
structure kept at its first discovery.
"""

from typing import List, Tuple

from repro.pdms.probing import MappingCycle, find_parallel_paths_from, validate_ttl


def cycle_key(cycle: MappingCycle) -> Tuple[str, ...]:
    """Rotation-invariant key of a cycle: the least rotation of its mapping
    names, the same whichever peer on the cycle walked it."""
    names = cycle.mapping_names
    return min(names[i:] + names[:i] for i in range(len(names)))


def reference_cycles_through(
    network, origin: str, ttl: int
) -> Tuple[MappingCycle, ...]:
    """Simple directed mapping cycles through ``origin`` of length ≤ ``ttl``,
    each oriented to start with one of the origin's outgoing mappings, in
    depth-first discovery order."""
    if validate_ttl(ttl) < 2:
        return ()
    cycles: List[MappingCycle] = []
    seen = set()

    def walk(path, visited):
        current = path[-1].target
        for mapping in network.peer(current).outgoing_mappings:
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

    for first in network.peer(origin).outgoing_mappings:
        if first.target == origin:
            continue
        walk((first,), (origin, first.target))
    return tuple(cycles)


def canonical_merge(
    network,
    ttl: int,
    include_parallel_paths: bool = True,
    cycles_of=reference_cycles_through,
    paths_of=find_parallel_paths_from,
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
                key = pair.canonical_key()
                if key not in seen_paths:
                    seen_paths.add(key)
                    paths.append(pair)
    return tuple(cycles), tuple(paths)


def assert_owned(snapshot, ttl: int, include_parallel_paths: bool = True):
    """Pin ``snapshot.structures`` against both merges: the very objects
    the merge of the snapshot's own walks keeps, in the same order, and
    the same structures — origin, mapping order and list order — as the
    merge of the reference walks.  Returns the owned lists."""
    owned = snapshot.structures(ttl, include_parallel_paths)
    merged = canonical_merge(
        snapshot,
        ttl,
        include_parallel_paths,
        cycles_of=type(snapshot).cycles_through,
        paths_of=type(snapshot).parallel_paths_from,
    )
    for got, expected in zip(owned, merged):
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))
    reference = canonical_merge(snapshot, ttl, include_parallel_paths)
    assert [(c.origin, c.mapping_names) for c in owned[0]] == [
        (c.origin, c.mapping_names) for c in reference[0]
    ]
    assert [p.mapping_names for p in owned[1]] == [
        p.mapping_names for p in reference[1]
    ]
    return owned
