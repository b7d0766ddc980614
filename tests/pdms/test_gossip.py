"""Tests for the gossip journal's causal delivery and the multi-node harness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import PDMSError, UnknownPeerError
from repro.generators.paper import intro_example_network
from repro.mapping.mapping import Mapping
from repro.pdms.clock import VectorClock
from repro.pdms.events import (
    GossipJournal,
    MappingAdded,
    MappingRemoved,
    PeerAdded,
    PeerRemoved,
)
from repro.pdms.gossip import GossipHarness, PeerNode, SeededTransport
from repro.pdms.network import PDMSNetwork
from repro.schema.schema import Schema


def intro_events():
    """The intro network as (peer events by origin, mapping events by origin)."""
    network = intro_example_network(with_records=False)
    peer_events = {
        peer.name: PeerAdded(name=peer.name, schema=peer.schema)
        for peer in network.peers
    }
    mapping_events = {}
    for mapping in network.mappings:
        mapping_events.setdefault(mapping.source, []).append(
            MappingAdded(mapping=mapping)
        )
    return network, peer_events, mapping_events


def shape(network):
    """Everything replay must reproduce: peer order, mapping order, each
    peer's outgoing order, and the version."""
    return (
        network.peer_names,
        network.mapping_names,
        tuple(
            (peer.name, tuple(m.name for m in peer.outgoing_mappings))
            for peer in network.peers
        ),
        network.version,
    )


def replayed_shape(node):
    return shape(PDMSNetwork.from_events(node.journal.canonical_events()))


class TestJournalCausalDelivery:
    def test_append_delivers_locally(self):
        journal = GossipJournal("a")
        entry = journal.append(PeerRemoved(name="x"))
        assert journal.entries() == (entry,)
        assert journal.clock.counter("a") == 1
        assert journal.pending_count == 0

    def test_out_of_order_same_origin_is_buffered(self):
        source = GossipJournal("a")
        first = source.append(PeerRemoved(name="x"))
        second = source.append(PeerRemoved(name="y"))
        sink = GossipJournal("b")
        assert sink.receive(second) == ()
        assert sink.pending_count == 1
        assert sink.deliveries_buffered == 1
        # The missing predecessor unlocks the buffered entry.
        assert sink.receive(first) == (first, second)
        assert sink.pending_count == 0
        assert sink.canonical_entries() == (first, second)

    def test_cross_origin_causality_is_respected(self):
        a = GossipJournal("a")
        cause = a.append(PeerRemoved(name="x"))
        b = GossipJournal("b")
        b.receive(cause)
        effect = b.append(PeerRemoved(name="y"))
        assert effect.clock.counter("a") == 1
        # A third replica seeing the effect first must wait for the cause.
        c = GossipJournal("c")
        assert c.receive(effect) == ()
        assert c.pending_count == 1
        assert c.receive(cause) == (cause, effect)

    def test_duplicates_are_dropped(self):
        source = GossipJournal("a")
        entry = source.append(PeerRemoved(name="x"))
        sink = GossipJournal("b")
        sink.receive(entry)
        assert sink.receive(entry) == ()
        assert sink.duplicates_dropped == 1
        assert len(sink.entries()) == 1

    def test_buffered_duplicate_is_dropped_too(self):
        source = GossipJournal("a")
        source.append(PeerRemoved(name="x"))
        second = source.append(PeerRemoved(name="y"))
        sink = GossipJournal("b")
        sink.receive(second)
        assert sink.receive(second) == ()
        assert sink.duplicates_dropped == 1

    def test_canonical_order_is_arrival_independent(self):
        source = GossipJournal("a")
        entries = [source.append(PeerRemoved(name=f"x{i}")) for i in range(4)]
        forward, backward = GossipJournal("f"), GossipJournal("b")
        for entry in entries:
            forward.receive(entry)
        for entry in reversed(entries):
            backward.receive(entry)
        assert forward.canonical_entries() == backward.canonical_entries()
        assert forward.canonical_events() == tuple(e.event for e in entries)

    def test_delta_for_skips_what_the_target_knows(self):
        source = GossipJournal("a")
        first = source.append(PeerRemoved(name="x"))
        second = source.append(PeerRemoved(name="y"))
        sink = GossipJournal("b")
        sink.receive(first)
        assert source.delta_for(sink.clock) == (second,)
        assert source.delta_for(source.clock) == ()

    def test_delta_for_ships_per_origin_suffixes_in_canonical_order(self):
        a, b, hub = GossipJournal("a"), GossipJournal("b"), GossipJournal("hub")
        a_entries = [a.append(PeerRemoved(name=f"a{i}")) for i in range(3)]
        b_entries = [b.append(PeerRemoved(name=f"b{i}")) for i in range(2)]
        for entry in b_entries + a_entries:
            hub.receive(entry)
        known = VectorClock.of({"a": 1, "b": 1})
        assert hub.delta_for(known) == (a_entries[1], b_entries[1], a_entries[2])
        assert hub.delta_for(hub.clock.merge(known)) == ()
        # A clock ahead of the journal on some origins misses nothing.
        assert hub.delta_for(VectorClock.of({"a": 9, "b": 9, "c": 4})) == ()

    def test_owner_must_be_non_empty(self):
        with pytest.raises(PDMSError):
            GossipJournal("")


class TestSeededTransport:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(PDMSError):
            SeededTransport(drop_probability=1.0)
        with pytest.raises(PDMSError):
            SeededTransport(duplicate_probability=1.5)

    def test_same_seed_same_disturbances(self):
        source = GossipJournal("a")
        entries = [source.append(PeerRemoved(name=f"x{i}")) for i in range(20)]

        def run(seed):
            transport = SeededTransport(
                seed=seed, drop_probability=0.3, duplicate_probability=0.3
            )
            for entry in entries:
                transport.send("b", entry)
            return transport.deliver(), transport.dropped, transport.duplicated

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestPeerNode:
    def test_assess_before_own_peer_event_raises(self):
        node = PeerNode("p1")
        with pytest.raises(UnknownPeerError):
            node.assess_local("Creator")

    def test_in_order_growth_extends_the_replica_in_place(self):
        network, peer_events, mapping_events = intro_events()
        node = PeerNode("p1")
        node.originate(peer_events["p1"])
        replica = node.local_network()
        assert node.local_network() is replica
        node.originate(peer_events["p2"])
        for event in mapping_events["p1"]:
            if event.mapping.target == "p2":
                node.originate(event)
        assert node.local_network() is replica
        assert shape(replica) == replayed_shape(node)

    def test_out_of_order_concurrent_delivery_rebuilds(self):
        _, peer_events, _ = intro_events()
        early, late = GossipJournal("a"), GossipJournal("b")
        # Concurrent stamps with equal clock totals: origin "a" sorts first.
        first = early.append(peer_events["p1"])
        second = late.append(peer_events["p2"])
        assert first.sort_key() < second.sort_key()
        node = PeerNode("c")
        node.receive(second)
        replica = node.local_network()
        node.receive(first)
        rebuilt = node.local_network()
        assert rebuilt is not replica
        assert rebuilt.peer_names == ("p1", "p2")
        assert shape(rebuilt) == replayed_shape(node)


class TestGossipHarness:
    def test_validation(self):
        with pytest.raises(PDMSError):
            GossipHarness([])
        with pytest.raises(PDMSError):
            GossipHarness([PeerNode("a"), PeerNode("a")])
        with pytest.raises(PDMSError):
            GossipHarness([PeerNode("a")], fanout=0)
        with pytest.raises(UnknownPeerError):
            GossipHarness([PeerNode("a")]).node("zz")

    def test_nonconvergence_raises(self):
        harness = GossipHarness.of_names(["a", "b"])
        harness.originate("a", PeerRemoved(name="x"))
        with pytest.raises(PDMSError):
            harness.run_until_converged(max_rounds=0)

    @pytest.mark.parametrize(
        "drop,duplicate,reorder",
        [
            (0.0, 0.0, False),  # perfect channel
            (0.0, 0.0, True),  # reordering only
            (0.3, 0.0, True),  # heavy loss
            (0.0, 0.5, True),  # heavy duplication
            (0.2, 0.2, True),  # everything at once
        ],
    )
    @pytest.mark.parametrize("seed", [1, 99])
    def test_delivery_matrix_converges_to_identical_replicas(
        self, drop, duplicate, reorder, seed
    ):
        network, peer_events, mapping_events = intro_events()
        transport = SeededTransport(
            seed=seed,
            drop_probability=drop,
            duplicate_probability=duplicate,
            reorder=reorder,
        )
        harness = GossipHarness.of_names(
            network.peer_names, transport=transport, fanout=2, seed=seed
        )
        for name, event in peer_events.items():
            harness.originate(name, event)
        for name, events in mapping_events.items():
            for event in events:
                harness.originate(name, event)
        harness.run_until_converged(max_rounds=256)
        assert harness.converged()
        canonical = harness.nodes[0].journal.canonical_events()
        for node in harness.nodes:
            assert node.journal.canonical_events() == canonical
            assert node.journal.pending_count == 0
            replica = node.local_network()
            # The replica replays in canonical (clock-total) order, so the
            # sets match the template even when the insertion order differs.
            assert sorted(replica.peer_names) == sorted(network.peer_names)
            assert sorted(replica.mapping_names) == sorted(network.mapping_names)

    def test_converged_views_equal_the_oracle_exactly(self):
        network, peer_events, mapping_events = intro_events()
        transport = SeededTransport(
            seed=5, drop_probability=0.2, duplicate_probability=0.2
        )
        harness = GossipHarness.of_names(
            network.peer_names, transport=transport, fanout=2, seed=5
        )
        for name, event in peer_events.items():
            harness.originate(name, event)
        harness.run_until_converged()
        for name, events in mapping_events.items():
            for event in events:
                harness.originate(name, event)
        harness.run_until_converged()
        assert sorted(harness.oracle_network().mapping_names) == sorted(
            network.mapping_names
        )
        local = harness.local_views("Creator")
        oracle = harness.oracle_views("Creator")
        assert local == oracle  # exact float equality, not approximate

    def test_same_seed_reproduces_the_run(self):
        def run(seed):
            network, peer_events, mapping_events = intro_events()
            transport = SeededTransport(seed=seed, drop_probability=0.2)
            harness = GossipHarness.of_names(
                network.peer_names, transport=transport, fanout=2, seed=seed
            )
            for name, event in peer_events.items():
                harness.originate(name, event)
            rounds = harness.run_until_converged()
            return rounds, transport.sent, transport.dropped

        assert run(11) == run(11)

    def test_broadcast_reaches_every_node(self):
        network, peer_events, _ = intro_events()
        harness = GossipHarness.of_names(network.peer_names, seed=3)
        harness.broadcast("p1", peer_events.values())
        for node in harness.nodes:
            assert node.local_network().peer_names == network.peer_names

    def test_every_leg_crosses_the_transport(self):
        network, peer_events, _ = intro_events()
        transport = SeededTransport(seed=4)
        harness = GossipHarness.of_names(
            network.peer_names, transport=transport, fanout=2, seed=4
        )
        harness.originate("p1", peer_events["p1"])
        assert harness.run_round() > 0
        # Two digests per partnership (opening and reply) plus one
        # message per entry shipped; nothing is read out of band.
        partnerships = len(harness.nodes) * 2
        assert transport.sent == transport.delivered
        assert transport.sent > 2 * partnerships
        harness.run_until_converged()
        sent = transport.sent
        assert harness.run_round() == 0
        # A converged round exchanges digests only: the deltas are empty.
        assert transport.sent - sent == 2 * partnerships


# ---------------------------------------------------------------------------
# property: replicas grown between rounds always equal a full replay
# ---------------------------------------------------------------------------

NODE_NAMES = ("n0", "n1", "n2", "n3")

#: (op, node, i, j) tuples interpreted against the acting node's own
#: replica.  Node ``X`` only adds and removes its own peers ``X.k`` and
#: mappings whose source it owns; mapping targets are its own peers or
#: the permanent node peers.  Concurrent events therefore touch disjoint
#: topology, so every causal interleaving of them is applicable.
steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["add_peer", "remove_peer", "add_mapping", "remove_mapping", "round"]
        ),
        st.integers(min_value=0, max_value=len(NODE_NAMES) - 1),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=30,
)


def _schema(name):
    return Schema(name, ["Creator", "Title"])


def _originate(harness, node, op, i, j, fresh):
    view = node.local_network()
    own = [name for name in view.peer_names if name.startswith(f"{node.name}.")]
    if op == "add_peer":
        name = f"{node.name}.{next(fresh)}"
        harness.originate(node.name, PeerAdded(name=name, schema=_schema(name)))
    elif op == "remove_peer" and own:
        harness.originate(node.name, PeerRemoved(name=own[i % len(own)]))
    elif op == "add_mapping":
        sources = [node.name] + own
        targets = [name for name in view.peer_names if name in NODE_NAMES] + own
        source, target = sources[i % len(sources)], targets[j % len(targets)]
        if source != target and not view.mappings_between(source, target):
            corrupt = (i + j) % 3 == 0
            pairs = (
                {"Creator": "Title", "Title": "Creator"}
                if corrupt
                else {"Creator": "Creator", "Title": "Title"}
            )
            mapping = Mapping.from_pairs(
                source, target, pairs, is_correct=not corrupt
            )
            harness.originate(node.name, MappingAdded(mapping=mapping))
    elif op == "remove_mapping":
        owned = [
            m.name
            for m in view.mappings
            if m.source == node.name or m.source in own
        ]
        if owned:
            removed = MappingRemoved(name=owned[i % len(owned)])
            harness.originate(node.name, removed)


@given(
    script=steps,
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.sampled_from([0.0, 0.2]),
    duplicate=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=100, deadline=None)
def test_replicas_grown_between_rounds_equal_a_full_replay(
    script, seed, drop, duplicate
):
    transport = SeededTransport(
        seed=seed, drop_probability=drop, duplicate_probability=duplicate
    )
    harness = GossipHarness.of_names(
        NODE_NAMES, transport=transport, fanout=1, seed=seed, ttl=4
    )
    for name in NODE_NAMES:
        harness.originate(name, PeerAdded(name=name, schema=_schema(name)))
    fresh = iter(range(1, 1_000))
    for op, index, i, j in script:
        if op == "round":
            harness.run_round()
            for node in harness.nodes:
                assert shape(node.local_network()) == replayed_shape(node)
        else:
            _originate(harness, harness.nodes[index], op, i, j, fresh)
    harness.run_until_converged(max_rounds=256)
    for node in harness.nodes:
        assert shape(node.local_network()) == replayed_shape(node)
        assert shape(node.local_network()) == shape(harness.oracle_network())
    assert harness.local_views("Creator") == harness.oracle_views("Creator")
