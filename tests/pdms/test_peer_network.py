"""Unit tests for peers and the PDMS network container."""

import pytest

from repro.exceptions import PDMSError, UnknownPeerError
from repro.mapping.mapping import Mapping
from repro.pdms.events import MappingAdded, MappingRemoved, PeerAdded
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.schema.schema import Schema
from walker_reference import canonical_key, cycle_key


def schema(name):
    return Schema(name, ["Creator", "Title"])


@pytest.fixture
def network():
    net = PDMSNetwork("test", directed=True)
    for name in ("p1", "p2", "p3"):
        net.add_peer(Peer(name, schema(name)))
    return net


class TestPeer:
    def test_requires_name(self):
        with pytest.raises(PDMSError):
            Peer("", schema("s"))

    def test_outgoing_mapping_must_depart_from_peer(self):
        peer = Peer("p1", schema("p1"))
        with pytest.raises(PDMSError):
            peer.add_outgoing_mapping(Mapping.from_pairs("p2", "p3", {"Creator": "Creator"}))

    def test_duplicate_outgoing_mapping_rejected(self):
        peer = Peer("p1", schema("p1"))
        mapping = Mapping.from_pairs("p1", "p2", {"Creator": "Creator"})
        peer.add_outgoing_mapping(mapping)
        with pytest.raises(PDMSError):
            peer.add_outgoing_mapping(Mapping.from_pairs("p1", "p2", {"Title": "Title"}))

    def test_parallel_outgoing_mappings_keep_insertion_order(self):
        peer = Peer("p1", schema("p1"))
        peer.add_outgoing_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        peer.add_outgoing_mapping(
            Mapping.from_pairs("p1", "p2", {"Title": "Title"}, label="alt")
        )
        peer.add_outgoing_mapping(Mapping.from_pairs("p1", "p3", {"Creator": "Creator"}))
        assert [m.name for m in peer.outgoing_mappings] == [
            "p1->p2",
            "p1->p2#alt",
            "p1->p3",
        ]

    def test_insert_records(self):
        peer = Peer("p1", schema("p1"), records=[{"Creator": "Monet"}])
        assert peer.record_count == 1
        peer.insert({"Creator": "Degas"})
        assert peer.record_count == 2


class TestPDMSNetwork:
    def test_add_peer_from_schema(self):
        net = PDMSNetwork()
        peer = net.add_peer(schema("p1"))
        assert isinstance(peer, Peer)
        assert net.has_peer("p1")

    def test_duplicate_peer_rejected(self, network):
        with pytest.raises(PDMSError):
            network.add_peer(Peer("p1", schema("p1")))

    def test_unknown_peer_lookup_raises(self, network):
        with pytest.raises(UnknownPeerError):
            network.peer("zz")

    def test_add_mapping_registers_on_owner(self, network):
        mapping = Mapping.from_pairs("p1", "p2", {"Creator": "Creator"})
        network.add_mapping(mapping)
        assert network.has_mapping("p1->p2")
        assert network.peer("p1").outgoing_mappings == (mapping,)

    def test_add_mapping_unknown_endpoint_rejected(self, network):
        with pytest.raises(UnknownPeerError):
            network.add_mapping(Mapping.from_pairs("p1", "p9", {"Creator": "Creator"}))
        with pytest.raises(UnknownPeerError):
            network.add_mapping(Mapping.from_pairs("p9", "p1", {"Creator": "Creator"}))

    def test_duplicate_mapping_rejected(self, network):
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        with pytest.raises(PDMSError):
            network.add_mapping(Mapping.from_pairs("p1", "p2", {"Title": "Title"}))

    def test_undirected_network_registers_reverse(self):
        net = PDMSNetwork(directed=False)
        net.add_peer(Peer("a", schema("a")))
        net.add_peer(Peer("b", schema("b")))
        net.add_mapping(Mapping.from_pairs("a", "b", {"Creator": "Creator"}))
        assert net.has_mapping("a->b")
        assert net.has_mapping("b->a")

    def test_directed_network_does_not_reverse_by_default(self, network):
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        assert not network.has_mapping("p2->p1")

    def test_mappings_between(self, network):
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        network.add_mapping(
            Mapping.from_pairs("p1", "p2", {"Title": "Title"}, label="alt")
        )
        assert len(network.mappings_between("p1", "p2")) == 2
        assert network.mappings_between("p2", "p1") == ()

    def test_to_networkx(self, network):
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        graph = network.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 1

    def test_attribute_universe(self, network):
        assert network.attribute_universe() == ("Creator", "Title")

    def test_out_degree(self, network):
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        assert network.out_degree("p1") == 1
        assert network.out_degree("p2") == 0

    def test_clustering_coefficient_triangle(self, network):
        for source, target in (("p1", "p2"), ("p2", "p3"), ("p3", "p1")):
            network.add_mapping(Mapping.from_pairs(source, target, {"Creator": "Creator"}))
        assert network.clustering_coefficient() == pytest.approx(1.0)

    def test_len_and_iter(self, network):
        assert len(network) == 3
        assert {peer.name for peer in network} == {"p1", "p2", "p3"}


class TestMutationLog:
    def test_events_since_reports_peer_and_mapping_changes(self, network):
        start = network.version
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        network.add_peer(Peer("p4", schema("p4")))
        network.remove_mapping("p1->p2")
        entries = network.events_since(start)
        added, joined, removed = (event for _, event in entries)
        assert (type(added), added.mapping.name) == (MappingAdded, "p1->p2")
        assert (type(joined), joined.name) == (PeerAdded, "p4")
        assert (type(removed), removed.name) == (MappingRemoved, "p1->p2")
        # Versions in the log are strictly increasing past the start.
        versions = [version for version, _ in entries]
        assert versions == sorted(versions)
        assert all(version > start for version in versions)

    def test_events_since_current_version_is_empty(self, network):
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        assert network.events_since(network.version) == ()

    def test_bidirectional_add_logs_both_directions(self):
        net = PDMSNetwork("undirected", directed=False)
        net.add_peer(Peer("a", schema("a")))
        net.add_peer(Peer("b", schema("b")))
        start = net.version
        net.add_mapping(Mapping.from_pairs("a", "b", {"Creator": "Creator"}))
        events = [(type(e), e.mapping.name) for _, e in net.events_since(start)]
        assert events == [(MappingAdded, "a->b"), (MappingAdded, "b->a")]

    def test_truncated_log_reports_none(self, network):
        start = network.version
        limit = PDMSNetwork.MUTATION_LOG_LIMIT
        for index in range(limit + 10):
            network.add_mapping(
                Mapping.from_pairs(
                    "p1", "p2", {"Creator": "Creator"}, label=f"m{index}"
                )
            )
            network.remove_mapping(f"p1->p2#m{index}")
        assert network.events_since(start) is None
        # Recent history is still reachable.
        assert network.events_since(network.version) == ()

    def test_deque_truncation_preserves_floor_semantics(self, network):
        """Regression for the bounded log's O(1) rewrite: the deque must
        keep exactly the newest LIMIT events and report every version at
        or below the truncation floor as unanswerable."""
        limit = PDMSNetwork.MUTATION_LOG_LIMIT
        assert not network.log_truncated
        total = limit + 25
        for index in range(total):
            network.add_mapping(
                Mapping.from_pairs(
                    "p1", "p2", {"Creator": "Creator"}, label=f"m{index}"
                )
            )
        assert network.log_truncated
        assert len(network.event_log()) == limit
        floor = network.version - limit
        # Below the floor the history is gone; at the floor the full
        # retained tail is served, contiguously versioned.
        assert network.events_since(floor - 1) is None
        tail = network.events_since(floor)
        assert tail is not None and len(tail) == limit
        versions = [version for version, _ in tail]
        assert versions == list(range(floor + 1, network.version + 1))
        # Every retained event is an addition from the overflow loop.
        assert all(isinstance(event, MappingAdded) for _, event in tail)


class TestRemovePeer:
    def test_remove_peer_drops_incident_mappings(self, network):
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        network.add_mapping(Mapping.from_pairs("p2", "p3", {"Creator": "Creator"}))
        network.add_mapping(Mapping.from_pairs("p1", "p3", {"Creator": "Creator"}))
        removed = network.remove_peer("p2")
        assert isinstance(removed, Peer)
        assert removed.name == "p2"
        assert not network.has_peer("p2")
        assert network.mapping_names == ("p1->p3",)
        # The survivor's outgoing index no longer references the peer.
        assert [m.name for m in network.peer("p1").outgoing_mappings] == ["p1->p3"]

    def test_remove_unknown_peer_raises(self, network):
        with pytest.raises(UnknownPeerError):
            network.remove_peer("zz")

    def test_remove_peer_bumps_version_per_mutation(self, network):
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        network.add_mapping(Mapping.from_pairs("p2", "p3", {"Creator": "Creator"}))
        before = network.version
        network.remove_peer("p2")
        # Two cascaded mapping removals plus the peer removal itself.
        assert network.version == before + 3

    def test_churn_parity_with_a_fresh_network(self, network):
        """Adding a peer with mappings and removing it again leaves the
        network indistinguishable from one that never saw the churn."""
        network.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))
        network.add_peer(Peer("p4", schema("p4")))
        network.add_mapping(Mapping.from_pairs("p2", "p4", {"Creator": "Creator"}))
        network.add_mapping(Mapping.from_pairs("p4", "p1", {"Creator": "Creator"}))
        network.remove_peer("p4")

        fresh = PDMSNetwork("test", directed=True)
        for name in ("p1", "p2", "p3"):
            fresh.add_peer(Peer(name, schema(name)))
        fresh.add_mapping(Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}))

        assert network.peer_names == fresh.peer_names
        assert network.mapping_names == fresh.mapping_names
        for name in ("p1", "p2", "p3"):
            assert [m.name for m in network.peer(name).outgoing_mappings] == [
                m.name for m in fresh.peer(name).outgoing_mappings
            ]

    def test_churned_structure_caches_match_a_fresh_network(self):
        """After churn, both structure caches serve exactly the structures
        a cache over a never-churned network serves."""
        from repro.core.analysis import StructureCache

        def ring(net):
            for source, target in (("p1", "p2"), ("p2", "p3"), ("p3", "p1")):
                net.add_mapping(
                    Mapping.from_pairs(source, target, {"Creator": "Creator"})
                )

        churned = PDMSNetwork("churned", directed=True)
        for name in ("p1", "p2", "p3"):
            churned.add_peer(Peer(name, schema(name)))
        ring(churned)
        cache = StructureCache(churned, ttl=4)
        neighborhood = StructureCache(churned, ttl=4)
        cache.structures()
        neighborhood.structures_for("p1")
        churned.add_peer(Peer("p4", schema("p4")))
        churned.add_mapping(Mapping.from_pairs("p3", "p4", {"Creator": "Creator"}))
        churned.add_mapping(Mapping.from_pairs("p4", "p1", {"Creator": "Creator"}))
        churned.remove_peer("p4")

        fresh = PDMSNetwork("fresh", directed=True)
        for name in ("p1", "p2", "p3"):
            fresh.add_peer(Peer(name, schema(name)))
        ring(fresh)

        cycles, paths = cache.structures()
        fresh_cycles, fresh_paths = StructureCache(fresh, ttl=4).structures()
        assert [cycle_key(c) for c in cycles] == [
            cycle_key(c) for c in fresh_cycles
        ]
        assert [canonical_key(p) for p in paths] == [
            canonical_key(p) for p in fresh_paths
        ]
        local = neighborhood.structures_for("p1")
        fresh_local = StructureCache(fresh, ttl=4).structures_for("p1")
        assert [cycle_key(c) for c in local[0]] == [
            cycle_key(c) for c in fresh_local[0]
        ]

    def test_remove_peer_drops_only_its_own_walks(self):
        """The next snapshot drops the removed peer's walks and carries
        every other origin's: both caches refresh without a cold probe
        and without walking again."""
        from repro.core.analysis import StructureCache

        net = PDMSNetwork("test", directed=True)
        for name in ("p1", "p2", "p3", "p4"):
            net.add_peer(Peer(name, schema(name)))
        for source, target in (("p1", "p2"), ("p2", "p3"), ("p3", "p1")):
            net.add_mapping(
                Mapping.from_pairs(source, target, {"Creator": "Creator"})
            )
        cache = StructureCache(net, ttl=4)
        neighborhood = StructureCache(net, ttl=4)
        cache.structures()
        neighborhood.structures_for("p1")
        walks = cache.statistics.work_units
        net.remove_peer("p4")
        cycles, _ = cache.structures()
        neighborhood.structures_for("p1")
        assert cache.statistics.probes == 1
        assert cache.statistics.partial_refreshes == 1
        assert neighborhood.statistics.probes == 1
        assert neighborhood.statistics.partial_refreshes == 1
        assert cache.statistics.work_units == walks
        assert neighborhood.statistics.work_units == 0
        assert [c.mapping_names for c in cycles] == [
            ("p1->p2", "p2->p3", "p3->p1")
        ]
