"""Topology generators for synthetic PDMS networks.

The paper motivates its cycle analysis with the topology of real semantic
overlay networks: high clustering, scale-free degree distributions, and an
exponentially growing number of loops (§3.2.1).  The generators here build
mapping graphs with those characteristics — simple cycles for the
controlled experiments, Erdős–Rényi and Barabási–Albert graphs for the
larger simulations — and wire correct identity mappings along every edge.
Error injection is applied afterwards by the scenario builder.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import networkx as nx

from ..exceptions import GenerationError
from ..mapping.mapping import Mapping
from ..pdms.network import PDMSNetwork
from ..pdms.peer import Peer
from ..schema.schema import Schema
from .schemas import generate_schema_family

__all__ = [
    "identity_mapping",
    "cycle_network",
    "random_network",
    "scale_free_network",
    "network_from_graph",
]


def identity_mapping(source: Schema, target: Schema, label: str = "") -> Mapping:
    """Correct mapping linking identically named attributes of two schemas."""
    shared = [name for name in source.attribute_names if target.has_attribute(name)]
    if not shared:
        raise GenerationError(
            f"schemas {source.name!r} and {target.name!r} share no attribute"
        )
    return Mapping.from_pairs(
        source.name,
        target.name,
        {name: name for name in shared},
        label=label,
        is_correct=True,
        provenance="generator",
    )


def _build_peers(
    count: int, attribute_count: int, seed: int, name_prefix: str = "p"
) -> List[Peer]:
    schemas, _ = generate_schema_family(
        count, attribute_count=attribute_count, seed=seed, name_prefix=name_prefix
    )
    return [Peer(schema.name, schema) for schema in schemas]


def cycle_network(
    peer_count: int,
    attribute_count: int = 10,
    directed: bool = True,
    seed: int = 0,
    name: str = "cycle",
) -> PDMSNetwork:
    """A single directed cycle p1 → p2 → … → pn → p1 of correct mappings."""
    if peer_count < 2:
        raise GenerationError(f"a cycle needs at least 2 peers, got {peer_count}")
    network = PDMSNetwork(name=name, directed=directed)
    peers = _build_peers(peer_count, attribute_count, seed)
    for peer in peers:
        network.add_peer(peer)
    for index, peer in enumerate(peers):
        successor = peers[(index + 1) % peer_count]
        network.add_mapping(
            identity_mapping(peer.schema, successor.schema), bidirectional=False
        )
    return network


def network_from_graph(
    graph: nx.Graph | nx.DiGraph,
    attribute_count: int = 10,
    seed: int = 0,
    name: str = "pdms",
    directed: bool = True,
) -> PDMSNetwork:
    """Build a PDMS whose mapping graph mirrors ``graph``.

    Node labels become peer names (prefixed with ``p`` when they are bare
    integers); every edge becomes a correct identity mapping.  Undirected
    input graphs produce one mapping per direction when ``directed`` is
    ``True``, or a bidirectional registration otherwise.
    """
    nodes = list(graph.nodes())
    if not nodes:
        raise GenerationError("cannot build a network from an empty graph")
    schemas, _ = generate_schema_family(
        len(nodes), attribute_count=attribute_count, seed=seed
    )
    names = {
        node: (f"p{node}" if isinstance(node, int) else str(node)) for node in nodes
    }
    schema_by_node: Dict[object, Schema] = {}
    network = PDMSNetwork(name=name, directed=directed)
    for node, schema in zip(nodes, schemas):
        renamed = schema.rename(names[node])
        schema_by_node[node] = renamed
        network.add_peer(Peer(renamed.name, renamed))
    seen_pairs: set[Tuple[str, str]] = set()
    for edge in graph.edges():
        source, target = edge[0], edge[1]
        if source == target:
            continue
        key = (names[source], names[target])
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        network.add_mapping(
            identity_mapping(schema_by_node[source], schema_by_node[target]),
            bidirectional=False,
        )
        if not graph.is_directed():
            reverse_key = (names[target], names[source])
            if reverse_key not in seen_pairs:
                seen_pairs.add(reverse_key)
                network.add_mapping(
                    identity_mapping(schema_by_node[target], schema_by_node[source]),
                    bidirectional=False,
                )
    return network


def random_network(
    peer_count: int,
    edge_probability: float = 0.3,
    attribute_count: int = 10,
    seed: int = 0,
    name: str = "erdos-renyi",
) -> PDMSNetwork:
    """Erdős–Rényi style PDMS: each ordered pair is linked with probability
    ``edge_probability``, then the graph is patched to be weakly connected."""
    if peer_count < 2:
        raise GenerationError(f"need at least 2 peers, got {peer_count}")
    if not 0.0 <= edge_probability <= 1.0:
        raise GenerationError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    graph = nx.gnp_random_graph(peer_count, edge_probability, seed=seed, directed=True)
    # Ensure weak connectivity so that queries / probes can reach everybody.
    components = list(nx.weakly_connected_components(graph))
    for first, second in zip(components, components[1:]):
        graph.add_edge(rng.choice(sorted(first)), rng.choice(sorted(second)))
    return network_from_graph(
        graph, attribute_count=attribute_count, seed=seed, name=name
    )


def scale_free_network(
    peer_count: int,
    attachment: int = 2,
    attribute_count: int = 10,
    seed: int = 0,
    name: str = "scale-free",
) -> PDMSNetwork:
    """Barabási–Albert style PDMS with the high clustering the paper reports
    for real semantic overlay networks."""
    if peer_count < 3:
        raise GenerationError(f"need at least 3 peers, got {peer_count}")
    attachment = min(attachment, peer_count - 1)
    graph = nx.barabasi_albert_graph(peer_count, attachment, seed=seed)
    return network_from_graph(
        graph, attribute_count=attribute_count, seed=seed, name=name
    )
