"""The recursive cycles walker, kept as the test oracle.

Production discovery walks a snapshot's integer adjacency
(:func:`repro.pdms.probing.find_cycles_through`).  This is the object-graph
walker it replaced: it recurses over ``network.peer(name).outgoing_mappings``
with tuple paths and a canonical-key dedupe set, and is deliberately left
slow and simple so the tests can pin the production walker against an
independent enumeration, order included.
"""

from typing import List, Tuple

from repro.pdms.probing import MappingCycle, validate_ttl


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
