"""Unit tests for the shared discovery core.

The :mod:`repro.pdms.discovery` snapshot is the single enumeration engine
behind the structure cache: these tests pin its contract — snapshots
pickle (without their integer lowering or remembered walks), both walkers
on a snapshot's integer adjacency are *order*-identical to the recursive
object-graph walkers kept in ``walker_reference.py``, a network's next
snapshot carries exactly the walks its events leave unchanged, and the
global view listed by ownership
(:meth:`~repro.pdms.discovery.TopologySnapshot.structures`) holds the very
structures, in the very order, of the canonical-key merge of the reference
walks kept there.
"""

import pickle
from dataclasses import dataclass

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation.experiments import gossip_workload_network
from repro.exceptions import UnknownPeerError
from repro.generators.paper import intro_example_network
from repro.generators.topologies import network_from_graph, scale_free_network
from repro.mapping.mapping import Mapping
from repro.pdms.discovery import TopologySnapshot
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.pdms.probing import find_cycles_through, find_parallel_paths_from
from repro.schema.schema import Schema
from walker_reference import (
    assert_owned,
    reference_cycles_through,
    reference_parallel_paths_from,
)


@pytest.fixture(scope="module")
def intro_network():
    return intro_example_network(with_records=False)


@pytest.fixture(scope="module")
def sparse_network():
    return scale_free_network(24, seed=7)


def _names(structures):
    return [s.mapping_names for s in structures]


class TestTopologySnapshot:
    def test_snapshot_pickle_round_trip(self, sparse_network):
        snapshot = sparse_network.snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.peer_names == snapshot.peer_names
        assert [m.name for m in clone.mappings] == [
            m.name for m in snapshot.mappings
        ]
        # The clone is a fully functional probe substrate.
        cycles, paths = clone.structures(4, True)
        ref_cycles, ref_paths = snapshot.structures(4, True)
        assert _names(cycles) == _names(ref_cycles)
        assert _names(paths) == _names(ref_paths)

    def test_snapshot_of_is_idempotent(self, intro_network):
        snapshot = TopologySnapshot.of(intro_network)
        assert TopologySnapshot.of(snapshot) is snapshot


@dataclass(frozen=True)
class _SelfLoop:
    """A mapping-shaped self-loop.  ``Mapping`` rejects equal endpoints, but
    a snapshot takes any mapping-shaped edge, and a walker must skip it."""

    name: str
    source: str
    target: str


@st.composite
def _topologies(draw):
    """A directed or undirected network of at most 40 peers with parallel
    mappings, as a live network plus a snapshot of it with self-loops
    spliced into the mapping order."""
    peer_count = draw(st.integers(min_value=1, max_value=40))
    directed = draw(st.booleans())
    network = PDMSNetwork(directed=directed)
    for index in range(peer_count):
        network.add_peer(Peer(f"p{index}", Schema.from_names(f"p{index}", ["A"])))
    peer = st.integers(min_value=0, max_value=peer_count - 1)
    labels = st.sampled_from(["", "b"])
    edges = draw(st.lists(st.tuples(peer, peer, labels), max_size=2 * peer_count))
    for source, target, label in edges:
        if source == target:
            continue
        mapping = Mapping.from_pairs(
            f"p{source}", f"p{target}", {"A": "A"}, label=label
        )
        if not network.has_mapping(mapping.name):
            network.add_mapping(mapping)
    mappings = list(network.mappings)
    loops = draw(st.lists(st.tuples(peer, st.integers(min_value=0)), max_size=5))
    for number, (index, position) in enumerate(loops):
        loop = _SelfLoop(f"p{index}-loop{number}", f"p{index}", f"p{index}")
        mappings.insert(position % (len(mappings) + 1), loop)
    snapshot = TopologySnapshot(network.peer_names, mappings, directed=directed)
    return network, snapshot


def _walked(cycles):
    return [(cycle.origin, cycle.mapping_names) for cycle in cycles]


class TestCyclesWalker:
    @given(topology=_topologies(), ttl=st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_order_identical_to_reference(self, topology, ttl):
        network, snapshot = topology
        for source in (TopologySnapshot.of(network), snapshot):
            for origin in source.peer_names:
                assert _walked(find_cycles_through(source, origin, ttl)) == _walked(
                    reference_cycles_through(source, origin, ttl)
                ), (origin, ttl)

    def test_errors(self, intro_network):
        snapshot = TopologySnapshot.of(intro_network)
        with pytest.raises(ValueError, match="positive hop count"):
            find_cycles_through(snapshot, "p1", ttl=0)
        assert find_cycles_through(snapshot, "zz", ttl=1) == ()
        with pytest.raises(UnknownPeerError):
            find_cycles_through(snapshot, "zz", ttl=2)
        with pytest.raises(UnknownPeerError):
            find_cycles_through(intro_network.snapshot(), "zz", ttl=4)

    def test_snapshot_walks_each_origin_once(self, intro_network):
        snapshot = TopologySnapshot.of(intro_network)
        first = snapshot.cycles_through("p2", 4)
        assert snapshot.cycles_through("p2", 4) is first
        cold = TopologySnapshot.of(intro_network)
        assert _walked(first) == _walked(find_cycles_through(cold, "p2", 4))
        # The lowering and the walks never travel: a walked snapshot
        # pickles exactly like a cold one.
        assert pickle.dumps(snapshot) == pickle.dumps(cold)


def _pairs(pairs):
    return [(pair.source, pair.target, pair.first, pair.second) for pair in pairs]


def _assert_paths_match_reference(snapshot, ttl):
    """Every origin's row walk lists the reference walk's pairs: the same
    endpoints and the very mapping objects, in the same order."""
    for origin in snapshot.peer_names:
        assert _pairs(find_parallel_paths_from(snapshot, origin, ttl)) == _pairs(
            reference_parallel_paths_from(snapshot, origin, ttl)
        ), (origin, ttl)


class TestParallelPathsWalker:
    """The row walker against the object-graph walker it replaced, on every
    network :class:`TestOwnership` reads and on the gossip workload."""

    @given(topology=_topologies(), ttl=st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_multigraphs(self, topology, ttl):
        network, snapshot = topology
        _assert_paths_match_reference(snapshot, ttl)
        _assert_paths_match_reference(TopologySnapshot.of(network), ttl)

    @pytest.mark.parametrize("ttl", [2, 3, 4, 5, 6])
    def test_intro_network(self, intro_network, ttl):
        _assert_paths_match_reference(TopologySnapshot.of(intro_network), ttl)

    @pytest.mark.parametrize("ttl", [3, 4, 5])
    def test_sparse_scale_free(self, sparse_network, ttl):
        _assert_paths_match_reference(TopologySnapshot.of(sparse_network), ttl)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scale_free_at_ttl_four(self, seed):
        network = scale_free_network(24, seed=seed)
        _assert_paths_match_reference(TopologySnapshot.of(network), 4)

    @pytest.mark.parametrize("ttl", [2, 3, 4, 5])
    def test_undirected(self, ttl):
        graph = nx.barabasi_albert_graph(20, 2, seed=1)
        network = network_from_graph(graph, directed=False)
        _assert_paths_match_reference(TopologySnapshot.of(network), ttl)

    @pytest.mark.parametrize("ttl, pairs", [(5, 0), (12, 6)])
    def test_gossip_workload(self, ttl, pairs):
        # The gossip32-churn workload probes at ttl 5, where the chord
        # ring's backward chords close cycles but no pair of paths.
        snapshot = TopologySnapshot.of(gossip_workload_network(32))
        _assert_paths_match_reference(snapshot, ttl)
        found = [snapshot.parallel_paths_from(o, ttl) for o in snapshot.peer_names]
        assert sum(map(len, found)) == pairs

    def test_parallel_mappings_pair_at_ttl_one(self):
        network = _network("ab", ["ab"])
        network.add_mapping(Mapping.from_pairs("a", "b", {"A": "A"}, label="x"))
        snapshot = TopologySnapshot.of(network)
        [pair] = find_parallel_paths_from(snapshot, "a", 1)
        assert pair.mapping_names == ("a->b", "a->b#x")
        _assert_paths_match_reference(snapshot, 1)


class TestSharedSnapshot:
    def test_one_snapshot_per_version(self):
        network = intro_example_network(with_records=False)
        snapshot = network.snapshot()
        assert network.snapshot() is snapshot
        assert TopologySnapshot.of(network) is not snapshot
        mapping = network.remove_mapping("p2->p4")
        assert network.snapshot() is not snapshot
        assert network.snapshot().version == network.version
        network.add_mapping(mapping)
        current = network.snapshot()
        network.invalidate_snapshot()
        assert network.snapshot() is not current


def _network(peers, edges):
    """A directed network of ``peers`` with one mapping per ``(source,
    target)`` pair in ``edges``, named ``"source->target"``."""
    network = PDMSNetwork(directed=True)
    for name in peers:
        network.add_peer(Peer(name, Schema.from_names(name, ["A"])))
    for source, target in edges:
        network.add_mapping(Mapping.from_pairs(source, target, {"A": "A"}))
    return network


def _read_all(snapshot, ttl, walk=TopologySnapshot.cycles_through):
    return {origin: walk(snapshot, origin, ttl) for origin in snapshot.peer_names}


class TestSuccessorRules:
    """Which walks a network's next snapshot carries and which it re-runs.

    Every test reads the successor's walks against a cold snapshot's; the
    ``walks`` counts and ``is`` checks pin that the untouched origins'
    walks were carried, not re-run."""

    def test_walks_count_each_origin_once_per_ttl(self, intro_network):
        snapshot = TopologySnapshot.of(intro_network)
        assert (snapshot.walks, snapshot.inherited) == (0, frozenset())
        cycles = snapshot.cycles_through("p2", 4)
        assert snapshot.cycles_through("p2", 4) is cycles
        paths = snapshot.parallel_paths_from("p2", 4)
        assert snapshot.parallel_paths_from("p2", 4) is paths
        assert snapshot.walks == 2
        snapshot.cycles_through("p2", 3)
        assert snapshot.walks == 3

    def test_a_removed_mapping_rewalks_the_origins_whose_cycles_held_it(self):
        network = _network("abcd", ["ab", "ba", "bc", "cd", "dc"])
        before = _read_all(network.snapshot(), 3)
        network.remove_mapping("a->b")
        snapshot = network.snapshot()
        assert snapshot.inherited == frozenset("abcd")
        for origin in "cd":
            assert snapshot.cycles_through(origin, 3) is before[origin]
        assert snapshot.walks == 0
        assert _read_all(snapshot, 3) == _read_all(TopologySnapshot.of(network), 3)
        assert snapshot.walks == 2  # a and b

    def test_an_added_mapping_rewalks_the_origins_on_its_new_cycles(self):
        network = _network("abcde", ["ab", "bc", "de", "ed"])
        before = _read_all(network.snapshot(), 3)
        network.add_mapping(Mapping.from_pairs("c", "a", {"A": "A"}))
        snapshot = network.snapshot()
        for origin in "de":
            assert snapshot.cycles_through(origin, 3) is before[origin]
        # Settling the addition walked its source, c, once.
        assert snapshot.walks == 1
        assert _read_all(snapshot, 3) == _read_all(TopologySnapshot.of(network), 3)
        assert snapshot.walks == 3  # c, then a and b
        assert [c.mapping_names for c in snapshot.cycles_through("a", 3)] == [
            ("a->b", "b->c", "c->a")
        ]

    def test_a_mapping_added_and_removed_again_carries_every_cycle(self):
        network = _network("abc", ["ab", "ba", "bc"])
        before = _read_all(network.snapshot(), 3)
        network.remove_mapping(
            network.add_mapping(Mapping.from_pairs("c", "a", {"A": "A"})).name
        )
        snapshot = network.snapshot()
        assert _read_all(snapshot, 3) == before
        assert all(snapshot.cycles_through(o, 3) is before[o] for o in "abc")
        assert snapshot.walks == 0

    def test_parallel_paths_carry_beyond_ttl_minus_one_reverse_hops(self):
        walk = TopologySnapshot.parallel_paths_from
        network = _network(["x", "y1", "y2", "z", "w"], [])
        for source, target in [("x", "y1"), ("x", "y2"), ("y1", "z"), ("y2", "z")]:
            network.add_mapping(Mapping.from_pairs(source, target, {"A": "A"}))
        first = network.snapshot()
        before = {ttl: _read_all(first, ttl, walk) for ttl in (2, 3)}
        assert len(before[2]["x"]) == 1
        network.add_mapping(Mapping.from_pairs("z", "w", {"A": "A"}))
        snapshot = network.snapshot()
        # x is two reverse hops from z, the changed source: beyond ttl - 1
        # at ttl 2, within it at ttl 3.
        assert snapshot.parallel_paths_from("x", 2) is before[2]["x"]
        assert snapshot.walks == 0
        snapshot.parallel_paths_from("x", 3)
        assert snapshot.walks == 1
        cold = TopologySnapshot.of(network)
        for ttl in (2, 3):
            assert _read_all(snapshot, ttl, walk) == _read_all(cold, ttl, walk)
        # Re-walked at ttl 2: z, y1, y2; at ttl 3: x, z, y1, y2.
        assert snapshot.walks == 7

    def test_a_changed_mapping_rewalks_the_origins_whose_cycles_hold_it(self):
        network = _network("abcd", ["ab", "ba", "bc", "cd", "dc"])
        before = _read_all(network.snapshot(), 3)
        old = network.change_correspondences(Mapping("a", "b"))
        snapshot = network.snapshot()
        assert snapshot.inherited == frozenset("abcd")
        for origin in "cd":
            assert snapshot.cycles_through(origin, 3) is before[origin]
        assert snapshot.walks == 0
        assert _read_all(snapshot, 3) == _read_all(TopologySnapshot.of(network), 3)
        assert snapshot.walks == 2  # a and b
        for origin in "ab":
            [cycle] = snapshot.cycles_through(origin, 3)
            assert network.mapping("a->b") in cycle.mappings
            assert old not in cycle.mappings

    def test_a_changed_mapping_rewalks_parallel_paths_within_ttl_minus_one(self):
        walk = TopologySnapshot.parallel_paths_from
        network = _network(["w", "x", "y1", "y2", "z"], [])
        for source, target in [
            ("w", "x"), ("x", "y1"), ("x", "y2"), ("y1", "z"), ("y2", "z")
        ]:
            network.add_mapping(Mapping.from_pairs(source, target, {"A": "A"}))
        before = _read_all(network.snapshot(), 2, walk)
        assert len(before["x"]) == 1
        network.change_correspondences(Mapping("y1", "z"))
        snapshot = network.snapshot()
        # y1 is the changed source and x one reverse hop from it: within
        # ttl - 1 at ttl 2; w is two hops away.
        for origin in ("w", "y2", "z"):
            assert walk(snapshot, origin, 2) is before[origin]
        assert snapshot.walks == 0
        cold = TopologySnapshot.of(network)
        assert _read_all(snapshot, 2, walk) == _read_all(cold, 2, walk)
        assert snapshot.walks == 2  # x and y1
        [pair] = walk(snapshot, "x", 2)
        assert network.mapping("y1->z") in pair.mappings

    def test_a_removed_peer_drops_its_walks_and_rejoins_cold(self):
        network = _network("abc", ["ab", "ba", "bc", "cb"])
        before = _read_all(network.snapshot(), 3)
        network.add_peer(network.remove_peer("c"))
        snapshot = network.snapshot()
        assert snapshot.inherited == frozenset("ab")
        assert snapshot.cycles_through("a", 3) is before["a"]
        assert snapshot.walks == 0
        assert _read_all(snapshot, 3) == _read_all(TopologySnapshot.of(network), 3)
        assert snapshot.walks == 2  # b (its cycle held b->c), then c cold
        assert snapshot.cycles_through("c", 3) == ()

    def test_a_pickled_successor_arrives_cold(self):
        network = _network("abc", ["ab", "ba", "bc"])
        _read_all(network.snapshot(), 3)
        network.add_mapping(Mapping.from_pairs("c", "a", {"A": "A"}))
        snapshot = network.snapshot()
        assert snapshot.inherited
        cold = TopologySnapshot.of(network)
        assert pickle.dumps(snapshot) == pickle.dumps(cold)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert (clone.inherited, clone.walks) == (frozenset(), 0)
        for origin in cold.peer_names:
            assert _walked(clone.cycles_through(origin, 3)) == _walked(
                cold.cycles_through(origin, 3)
            )
        assert clone.walks == 3


class TestOwnership:
    """The global view lists each structure from its owner's walk: the
    same structures, in the same order, as the canonical-key merge of every
    peer's reference walks (``walker_reference.assert_owned``)."""

    @pytest.mark.parametrize("ttl", [3, 4, 5])
    def test_sparse_scale_free(self, sparse_network, ttl):
        cycles, paths = assert_owned(TopologySnapshot.of(sparse_network), ttl)
        assert cycles and paths

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scale_free_at_ttl_four(self, seed):
        assert_owned(TopologySnapshot.of(scale_free_network(24, seed=seed)), 4)

    @pytest.mark.parametrize("ttl", [2, 3, 4, 5])
    def test_undirected(self, ttl):
        graph = nx.barabasi_albert_graph(20, 2, seed=1)
        network = network_from_graph(graph, directed=False)
        # Each undirected cycle is two directed ones, both owned by the
        # same peer and listed in the order its walk met them.
        cycles, paths = assert_owned(TopologySnapshot.of(network), ttl, False)
        assert cycles and paths == ()

    @pytest.mark.parametrize("ttl", [2, 3, 4, 5, 6])
    def test_intro_network(self, intro_network, ttl):
        cycles, _ = assert_owned(TopologySnapshot.of(intro_network), ttl)
        # Owned by p1, the first peer: the cycles through it, from its walk.
        assert {c.origin for c in cycles} == {"p1"}

    @given(topology=_topologies(), ttl=st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_multigraphs(self, topology, ttl):
        network, snapshot = topology
        assert_owned(snapshot, ttl)
        assert_owned(TopologySnapshot.of(network), ttl)

    def test_a_rejoined_peer_hands_its_cycles_on(self):
        network = _network("abc", ["ab", "ba", "bc", "cb"])
        before, _ = network.snapshot().structures(3, False)
        assert [c.origin for c in before] == ["a", "b"]
        network.add_peer(network.remove_peer("a"))
        for source, target in ("ab", "ba"):
            network.add_mapping(Mapping.from_pairs(source, target, {"A": "A"}))
        cycles, _ = assert_owned(network.snapshot(), 3, False)
        assert [(c.origin, c.mapping_names) for c in cycles] == [
            ("b", ("b->c", "c->b")),
            ("b", ("b->a", "a->b")),
        ]


class TestGlobalView:
    def test_paths_can_be_excluded(self, intro_network):
        snapshot = TopologySnapshot.of(intro_network)
        cycles, paths = snapshot.structures(4, False)
        assert paths == ()
        assert snapshot.walks == len(intro_network.peer_names)
        assert snapshot.structures(4, True)[0] == cycles

    def test_non_positive_ttl_rejected(self, intro_network):
        snapshot = TopologySnapshot.of(intro_network)
        for ttl in (0, -1):
            with pytest.raises(ValueError, match="positive hop count"):
                snapshot.structures(ttl, True)
        assert snapshot.walks == 0
