"""Unit and property tests for the typed topology event log."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import StructureCache
from repro.exceptions import PDMSError
from repro.mapping.mapping import Mapping
from repro.pdms.clock import VectorClock
from repro.pdms.events import (
    ClockDigest,
    CorrespondenceChanged,
    GossipJournal,
    JournalEntry,
    MappingAdded,
    MappingRemoved,
    PeerAdded,
    PeerRemoved,
    TopologyEvent,
    apply,
)
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.schema.schema import Schema
from walker_reference import cycle_key


def schema(name):
    return Schema(name, ["Creator", "Title"])


def identity(source, target, label=""):
    return Mapping.from_pairs(
        source, target, {"Creator": "Creator", "Title": "Title"}, label=label
    )


@pytest.fixture
def network():
    net = PDMSNetwork("test", directed=True)
    for name in ("p1", "p2", "p3"):
        net.add_peer(Peer(name, schema(name)))
    return net


class TestApply:
    def test_peer_added(self, network):
        peer = apply(network, PeerAdded(name="p4", schema=schema("p4")))
        assert isinstance(peer, Peer)
        assert network.has_peer("p4")

    def test_peer_removed(self, network):
        apply(network, PeerRemoved(name="p3"))
        assert not network.has_peer("p3")

    def test_mapping_added_is_directional(self, network):
        apply(network, MappingAdded(mapping=identity("p1", "p2")))
        assert network.has_mapping("p1->p2")
        assert not network.has_mapping("p2->p1")

    def test_mapping_removed(self, network):
        network.add_mapping(identity("p1", "p2"))
        apply(network, MappingRemoved(name="p1->p2"))
        assert not network.has_mapping("p1->p2")

    def test_correspondence_changed_swaps_in_place(self, network):
        network.add_mapping(identity("p1", "p2"))
        network.add_mapping(identity("p1", "p3"))
        old = network.mapping("p1->p2")
        replacement = Mapping.from_pairs("p1", "p2", {"Creator": "Title"})
        assert apply(network, CorrespondenceChanged(mapping=replacement)) is old
        assert network.mapping("p1->p2") is replacement
        assert network.mapping_names == ("p1->p2", "p1->p3")
        assert network.peer("p1").outgoing_mappings == (
            replacement,
            network.mapping("p1->p3"),
        )
        # Copy-on-write: the replaced object is untouched.
        assert old.apply("Creator") == "Creator"
        assert old.maps_attribute("Title")

    def test_correspondence_changed_needs_a_registered_name(self, network):
        with pytest.raises(PDMSError):
            apply(network, CorrespondenceChanged(mapping=identity("p1", "p2")))

    def test_correspondence_changed_needs_a_new_object(self, network):
        mapping = network.add_mapping(identity("p1", "p2"))
        version = network.version
        with pytest.raises(PDMSError):
            network.change_correspondences(mapping)
        assert network.version == version

    def test_unknown_event_rejected(self, network):
        with pytest.raises(PDMSError):
            apply(network, TopologyEvent())

    def test_malformed_event_raises_the_mutator_error(self, network):
        with pytest.raises(PDMSError):
            apply(network, PeerAdded(name="p1", schema=schema("p1")))


class TestEventLog:
    def test_mutators_record_typed_events(self, network):
        start = network.version
        network.add_mapping(identity("p1", "p2"))
        network.add_peer(Peer("p4", schema("p4")))
        network.change_correspondences(identity("p1", "p2"))
        network.remove_mapping("p1->p2")
        network.remove_peer("p4")
        events = [event for _, event in network.events_since(start)]
        assert [type(e) for e in events] == [
            MappingAdded,
            PeerAdded,
            CorrespondenceChanged,
            MappingRemoved,
            PeerRemoved,
        ]
        assert network.version == start + 5

    def test_remove_peer_cascades_incident_mappings_first(self, network):
        network.add_mapping(identity("p1", "p2"))
        network.add_mapping(identity("p2", "p3"))
        start = network.version
        network.remove_peer("p2")
        events = [event for _, event in network.events_since(start)]
        assert events == [
            MappingRemoved(name="p1->p2"),
            MappingRemoved(name="p2->p3"),
            PeerRemoved(name="p2"),
        ]

    def test_from_events_replays_exactly(self, network):
        network.add_mapping(identity("p1", "p2"))
        network.add_mapping(identity("p2", "p3"))
        network.remove_mapping("p1->p2")
        network.add_peer(Peer("p4", schema("p4")))
        network.remove_peer("p3")
        replayed = PDMSNetwork.from_events(network.event_log(), name="test")
        assert replayed.peer_names == network.peer_names
        assert replayed.mapping_names == network.mapping_names
        assert replayed.version == network.version

    def test_from_events_replays_correspondence_changes(self, network):
        network.add_mapping(identity("p1", "p2"))
        network.add_mapping(identity("p1", "p3"))
        network.add_mapping(identity("p2", "p3"))
        network.change_correspondences(
            Mapping.from_pairs("p1", "p2", {"Creator": "Title"}, is_correct=False)
        )
        network.change_correspondences(
            Mapping.from_pairs("p2", "p3", {"Title": "Title"})
        )
        replayed = PDMSNetwork.from_events(network.event_log(), name="test")
        assert replayed.version == network.version
        assert replayed.mapping_names == network.mapping_names
        for name in network.mapping_names:
            assert (
                replayed.mapping(name).correspondences
                == network.mapping(name).correspondences
            )
        assert [m.name for m in replayed.peer("p1").outgoing_mappings] == [
            "p1->p2",
            "p1->p3",
        ]
        assert replayed.mapping("p1->p2").apply("Creator") == "Title"
        assert not replayed.mapping("p2->p3").maps_attribute("Creator")


class TestWireTypes:
    def test_events_pickle_round_trip(self):
        mapping = identity("p1", "p2")
        for event in (
            PeerAdded(name="p1", schema=schema("p1")),
            PeerRemoved(name="p1"),
            MappingAdded(mapping=mapping),
            MappingRemoved(name="p1->p2"),
            CorrespondenceChanged(mapping=mapping),
        ):
            clone = pickle.loads(pickle.dumps(event))
            assert type(clone) is type(event)
            assert clone.kind == event.kind
            assert clone.subject == event.subject

    def test_journal_entry_pickle_round_trip(self):
        journal = GossipJournal("a")
        entry = journal.append(PeerRemoved(name="p9"))
        clone = pickle.loads(pickle.dumps(entry))
        assert isinstance(clone, JournalEntry)
        assert clone.key == entry.key
        assert clone.clock == entry.clock

    def test_journal_entry_with_a_correspondence_change_pickles(self):
        journal = GossipJournal("a")
        replacement = Mapping.from_pairs("p1", "p2", {"Creator": "Title"})
        entry = journal.append(CorrespondenceChanged(mapping=replacement))
        clone = pickle.loads(pickle.dumps(entry))
        assert clone.key == entry.key
        assert isinstance(clone.event, CorrespondenceChanged)
        assert clone.event.subject == "p1->p2"
        assert clone.event.mapping.correspondences == replacement.correspondences

    def test_clock_digest_pickle_round_trip(self):
        journal = GossipJournal("a")
        journal.append(PeerRemoved(name="p9"))
        digest = ClockDigest(sender="a", clock=journal.clock)
        clone = pickle.loads(pickle.dumps(digest))
        assert clone == digest
        assert journal.delta_for(clone.clock) == ()

    def test_journal_entry_validates_seq_against_clock(self):
        with pytest.raises(PDMSError):
            JournalEntry(
                origin="a",
                seq=2,
                clock=VectorClock.of({"a": 1}),
                event=PeerRemoved(name="p9"),
            )


# ---------------------------------------------------------------------------
# property: any mutation sequence replays bit-identically
# ---------------------------------------------------------------------------

#: (op, i, j) triples interpreted modulo the current topology — invalid
#: draws degrade to no-ops, so every generated sequence is applicable.
operations = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "add_peer",
                "add_mapping",
                "remove_mapping",
                "remove_peer",
                "change_correspondences",
            ]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=30,
)


def _run_operations(network, ops):
    """Interpret the generated script; returns the mutation count applied."""
    applied = 0
    next_peer = 1
    for op, i, j in ops:
        peers = network.peer_names
        if op == "add_peer":
            name = f"q{next_peer}"
            next_peer += 1
            network.add_peer(Peer(name, schema(name)))
            applied += 1
        elif op == "add_mapping" and len(peers) >= 2:
            source = peers[i % len(peers)]
            target = peers[j % len(peers)]
            if source != target and not network.mappings_between(source, target):
                network.add_mapping(identity(source, target))
                applied += 1
        elif op == "remove_mapping" and network.mapping_names:
            names = network.mapping_names
            network.remove_mapping(names[i % len(names)])
            applied += 1
        elif op == "remove_peer" and peers:
            network.remove_peer(peers[i % len(peers)])
            applied += 1
        elif op == "change_correspondences" and network.mapping_names:
            names = network.mapping_names
            mapping = network.mapping(names[i % len(names)])
            dropped = ("Creator", "Title")[j % 2]
            network.change_correspondences(
                Mapping(
                    mapping.source,
                    mapping.target,
                    [c for c in mapping if c.source_attribute != dropped],
                    label=mapping.label,
                )
            )
            applied += 1
    return applied


@given(operations)
@settings(max_examples=50, deadline=None)
def test_any_mutation_sequence_replays_bit_identically(ops):
    network = PDMSNetwork("subject", directed=True)
    _run_operations(network, ops)
    replayed = PDMSNetwork.from_events(network.event_log(), name="subject")
    assert replayed.peer_names == network.peer_names
    assert replayed.mapping_names == network.mapping_names
    assert replayed.version == network.version
    for name in network.mapping_names:
        original = network.mapping(name)
        clone = replayed.mapping(name)
        assert clone.source == original.source
        assert clone.target == original.target
        assert clone.correspondences == original.correspondences


@given(operations)
@settings(max_examples=15, deadline=None)
def test_replayed_network_yields_identical_structure_cache(ops):
    network = PDMSNetwork("subject", directed=True)
    _run_operations(network, ops)
    replayed = PDMSNetwork.from_events(network.event_log(), name="subject")
    original_cycles, original_paths = StructureCache(
        network, ttl=4
    ).structures()
    replayed_cycles, replayed_paths = StructureCache(
        replayed, ttl=4
    ).structures()
    assert [cycle_key(c) for c in replayed_cycles] == [
        cycle_key(c) for c in original_cycles
    ]
    assert [p.canonical_key() for p in replayed_paths] == [
        p.canonical_key() for p in original_paths
    ]
