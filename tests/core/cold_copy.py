"""A cold copy of a network: the fresh side of the live-versus-fresh tests.

A network shares one snapshot per topology version and carries its walks
into the next version's, so a fresh side built on the live network would
read the live side's walks and could not catch a carry bug.  The copy is a
new network replayed from ``PeerAdded`` per peer, then ``MappingAdded`` per
mapping, in the live network's peer and mapping order: the same peers,
mapping objects and per-peer outgoing order, with a snapshot of its own.
Its ``version`` counts only those events.
"""

from repro.pdms.events import MappingAdded, PeerAdded
from repro.pdms.network import PDMSNetwork


def cold_copy(network: PDMSNetwork) -> PDMSNetwork:
    """``network``'s current peers and mappings, replayed into a new one."""
    events = [PeerAdded(name=peer.name, schema=peer.schema) for peer in network.peers]
    events += [MappingAdded(mapping=mapping) for mapping in network.mappings]
    return PDMSNetwork.from_events(events, name=network.name, directed=network.directed)
