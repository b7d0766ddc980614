"""Unit tests for the shared probe-plan discovery core.

The :mod:`repro.pdms.discovery` frontier is the single enumeration engine
behind the structure cache: these tests pin its contract — snapshots and
plans pickle (without their integer lowering or remembered walks), the
cycles walker on a snapshot's integer adjacency is *order*-identical to
the recursive object-graph walker kept in ``walker_reference.py``, a
network's next snapshot carries exactly the walks its events leave
unchanged, and :func:`~repro.pdms.discovery.run_plan` is order-identical
to per-peer sweeps of that reference.
"""

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import UnknownPeerError
from repro.generators.paper import intro_example_network
from repro.generators.topologies import scale_free_network
from repro.mapping.mapping import Mapping
from repro.pdms.discovery import (
    CYCLES_THROUGH,
    PATHS_FROM,
    TopologySnapshot,
    plan_full_probe,
    plan_neighborhood_probe,
    run_plan,
)
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.pdms.probing import find_cycles_through, find_parallel_paths_from
from repro.schema.schema import Schema
from walker_reference import reference_cycles_through


@pytest.fixture(scope="module")
def intro_network():
    return intro_example_network(with_records=False)


@pytest.fixture(scope="module")
def sparse_network():
    return scale_free_network(24, seed=7)


def _names(structures):
    return [s.mapping_names for s in structures]


def _walker_reference(network, ttl):
    """The pre-frontier sequential enumeration: per-peer walkers (the
    recursive reference for cycles), deduped by canonical key in peer
    order."""
    cycles, paths = [], []
    seen_cycles, seen_paths = set(), set()
    for name in network.peer_names:
        for cycle in reference_cycles_through(network, name, ttl):
            key = cycle.canonical_key()
            if key not in seen_cycles:
                seen_cycles.add(key)
                cycles.append(cycle)
    for name in network.peer_names:
        for pair in find_parallel_paths_from(network, name, ttl=ttl):
            key = pair.canonical_key()
            if key not in seen_paths:
                seen_paths.add(key)
                paths.append(pair)
    return cycles, paths


class TestTopologySnapshot:
    def test_snapshot_pickle_round_trip(self, sparse_network):
        snapshot = sparse_network.snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.peer_names == snapshot.peer_names
        assert [m.name for m in clone.mappings] == [
            m.name for m in snapshot.mappings
        ]
        # The clone is a fully functional probe substrate.
        plan = plan_full_probe(clone, ttl=4)
        cycles, paths = run_plan(plan).merged()
        reference = plan_full_probe(snapshot, ttl=4)
        ref_cycles, ref_paths = run_plan(reference).merged()
        assert _names(cycles) == _names(ref_cycles)
        assert _names(paths) == _names(ref_paths)

    def test_snapshot_of_is_idempotent(self, intro_network):
        snapshot = TopologySnapshot.of(intro_network)
        assert TopologySnapshot.of(snapshot) is snapshot

    def test_plan_pickles(self, intro_network):
        plan = plan_full_probe(intro_network, ttl=4)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.work_units == plan.work_units
        assert clone.ttl == plan.ttl


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
        for source in (network, snapshot):
            for origin in source.peer_names:
                assert _walked(find_cycles_through(source, origin, ttl)) == _walked(
                    reference_cycles_through(source, origin, ttl)
                ), (origin, ttl)

    def test_errors(self, intro_network):
        with pytest.raises(ValueError, match="positive hop count"):
            find_cycles_through(intro_network, "p1", ttl=0)
        assert find_cycles_through(intro_network, "zz", ttl=1) == ()
        with pytest.raises(UnknownPeerError):
            find_cycles_through(intro_network, "zz", ttl=2)
        with pytest.raises(UnknownPeerError):
            find_cycles_through(intro_network.snapshot(), "zz", ttl=4)

    def test_snapshot_walks_each_origin_once(self, intro_network):
        snapshot = TopologySnapshot.of(intro_network)
        first = snapshot.cycles_through("p2", 4)
        assert snapshot.cycles_through("p2", 4) is first
        assert _walked(first) == _walked(find_cycles_through(intro_network, "p2", 4))
        # The lowering and the walks never travel: a walked snapshot
        # pickles exactly like a cold one.
        cold = TopologySnapshot.of(intro_network)
        assert pickle.dumps(snapshot) == pickle.dumps(cold)


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


class TestSerialExecutor:
    @pytest.mark.parametrize("ttl", [3, 4, 5])
    def test_order_identical_to_walkers(self, sparse_network, ttl):
        plan = plan_full_probe(sparse_network, ttl=ttl)
        cycles, paths = run_plan(plan).merged()
        ref_cycles, ref_paths = _walker_reference(sparse_network, ttl)
        assert _names(cycles) == _names(ref_cycles)
        assert _names(paths) == _names(ref_paths)


class TestPlans:
    def test_full_probe_frontier_shape(self, intro_network):
        plan = plan_full_probe(intro_network, ttl=4)
        kinds = [unit.kind for unit in plan.work_units]
        peers = list(intro_network.peer_names)
        assert kinds == [CYCLES_THROUGH] * len(peers) + [PATHS_FROM] * len(peers)

    def test_paths_can_be_excluded(self, intro_network):
        plan = plan_full_probe(intro_network, ttl=4, include_parallel_paths=False)
        assert all(unit.kind == CYCLES_THROUGH for unit in plan.work_units)
        _, paths = run_plan(plan).merged()
        assert paths == ()

    def test_neighborhood_probe_rejects_unknown_peer(self, intro_network):
        with pytest.raises(UnknownPeerError):
            plan_neighborhood_probe(intro_network, ("p1", "zz"), ttl=4)

    def test_non_positive_ttl_rejected(self, intro_network):
        with pytest.raises(ValueError, match="positive hop count"):
            plan_full_probe(intro_network, ttl=0)
