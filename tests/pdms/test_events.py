"""Unit and property tests for the typed topology events and their replay."""

import pickle
from dataclasses import fields

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
from walker_reference import canonical_key, cycle_key


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


def shape(network):
    """What a replay must reproduce: peer order, mapping order and objects'
    correspondences, each peer's outgoing order, and the version."""
    return (
        network.peer_names,
        tuple((m.name, m.correspondences) for m in network.mappings),
        tuple(
            (peer.name, tuple(m.name for m in peer.outgoing_mappings))
            for peer in network.peers
        ),
        network.version,
    )


def apply_all(network, script):
    """Apply each event of ``script`` to ``network`` through ``apply``."""
    for event in script:
        apply(network, event)


def joined(network):
    """A ``PeerAdded`` per peer of ``network``, in order."""
    return [PeerAdded(name=p.name, schema=p.schema) for p in network.peers]


class TestReplay:
    def test_from_events_replays_exactly(self, network):
        script = [
            MappingAdded(mapping=identity("p1", "p2")),
            MappingAdded(mapping=identity("p2", "p3")),
            MappingRemoved(name="p1->p2"),
            PeerAdded(name="p4", schema=schema("p4")),
            PeerRemoved(name="p3"),
        ]
        start = network.version
        replayed = PDMSNetwork.from_events(joined(network) + script, name="test")
        apply_all(network, script)
        assert network.peer_names == ("p1", "p2", "p4")
        assert network.mapping_names == ()
        # One version per event, and one per mapping a departure cascades.
        assert network.version == start + 6
        assert shape(replayed) == shape(network)

    def test_from_events_replays_correspondence_changes(self, network):
        script = [
            MappingAdded(mapping=identity("p1", "p2")),
            MappingAdded(mapping=identity("p1", "p3")),
            MappingAdded(mapping=identity("p2", "p3")),
            CorrespondenceChanged(
                mapping=Mapping.from_pairs(
                    "p1", "p2", {"Creator": "Title"}, is_correct=False
                )
            ),
            CorrespondenceChanged(
                mapping=Mapping.from_pairs("p2", "p3", {"Title": "Title"})
            ),
        ]
        replayed = PDMSNetwork.from_events(joined(network) + script, name="test")
        apply_all(network, script)
        assert shape(replayed) == shape(network)
        assert [m.name for m in replayed.peer("p1").outgoing_mappings] == [
            "p1->p2",
            "p1->p3",
        ]
        assert replayed.mapping("p1->p2").apply("Creator") == "Title"
        assert not replayed.mapping("p2->p3").maps_attribute("Creator")

    def test_peer_removed_equals_its_explicit_cascade(self, network):
        network.add_mapping(identity("p1", "p2"))
        network.add_mapping(identity("p2", "p3"))
        network.add_mapping(identity("p1", "p3"))
        start = network.version
        explicit = PDMSNetwork.from_events(
            joined(network)
            + [MappingAdded(mapping=m) for m in network.mappings]
            + [
                MappingRemoved(name="p1->p2"),
                MappingRemoved(name="p2->p3"),
                PeerRemoved(name="p2"),
            ],
            name="test",
        )
        apply(network, PeerRemoved(name="p2"))
        assert network.peer_names == ("p1", "p3")
        assert network.mapping_names == ("p1->p3",)
        assert network.version == start + 3
        assert shape(explicit) == shape(network)


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
            # The same fields; a schema or mapping arrives as a copy of
            # the same name.
            for field in fields(event):
                value, copied = getattr(event, field.name), getattr(clone, field.name)
                assert getattr(copied, "name", copied) == getattr(value, "name", value)

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
        assert clone.event.mapping.name == "p1->p2"
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
# property: any event script replays bit-identically
# ---------------------------------------------------------------------------

#: (op, i, j) triples interpreted modulo the current topology — invalid
#: draws degrade to no-ops, so every generated script is applicable.
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


def _script(ops):
    """Interpret the generated ops as typed events, each applied through
    ``apply`` as it is drawn; return the network and the event script."""
    network = PDMSNetwork("subject", directed=True)
    script = []
    next_peer = 1
    for op, i, j in ops:
        peers = network.peer_names
        names = network.mapping_names
        event = None
        if op == "add_peer":
            name = f"q{next_peer}"
            next_peer += 1
            event = PeerAdded(name=name, schema=schema(name))
        elif op == "add_mapping" and len(peers) >= 2:
            source = peers[i % len(peers)]
            target = peers[j % len(peers)]
            if source != target and not network.mappings_between(source, target):
                event = MappingAdded(mapping=identity(source, target))
        elif op == "remove_mapping" and names:
            event = MappingRemoved(name=names[i % len(names)])
        elif op == "remove_peer" and peers:
            event = PeerRemoved(name=peers[i % len(peers)])
        elif op == "change_correspondences" and names:
            mapping = network.mapping(names[i % len(names)])
            dropped = ("Creator", "Title")[j % 2]
            event = CorrespondenceChanged(
                mapping=Mapping(
                    mapping.source,
                    mapping.target,
                    [c for c in mapping if c.source_attribute != dropped],
                    label=mapping.label,
                )
            )
        if event is not None:
            apply(network, event)
            script.append(event)
    return network, script


@given(operations)
@settings(max_examples=50, deadline=None)
def test_any_mutation_sequence_replays_bit_identically(ops):
    network, script = _script(ops)
    replayed = PDMSNetwork.from_events(script, name="subject")
    assert shape(replayed) == shape(network)


@given(operations)
@settings(max_examples=15, deadline=None)
def test_replayed_network_yields_identical_structure_cache(ops):
    """A cache read after every event of a script — its walks carried from
    snapshot to snapshot — ends where a cold replay of the script starts."""
    _, script = _script(ops)
    live = PDMSNetwork("subject", directed=True)
    cache = StructureCache(live, ttl=4)
    for event in script:
        apply(live, event)
        cache.structures()
    replayed = PDMSNetwork.from_events(script, name="subject")
    assert replayed.version == live.version
    original_cycles, original_paths = cache.structures()
    replayed_cycles, replayed_paths = StructureCache(
        replayed, ttl=4
    ).structures()
    assert [cycle_key(c) for c in replayed_cycles] == [
        cycle_key(c) for c in original_cycles
    ]
    assert [canonical_key(p) for p in replayed_paths] == [
        canonical_key(p) for p in original_paths
    ]
