"""Unit tests for the shared probe-plan discovery core.

The :mod:`repro.pdms.discovery` frontier is the single enumeration engine
behind both structure caches: these tests pin its contract — snapshots and
plans pickle (without their integer lowering or remembered walks), the
cycles walker on a snapshot's integer adjacency is *order*-identical to
the recursive object-graph walker kept in ``walker_reference.py``, and
:func:`~repro.pdms.discovery.run_plan` is order-identical to per-peer
sweeps of that reference.
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
    plan_mapping_delta,
    plan_neighborhood_probe,
    run_plan,
)
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.pdms.probing import (
    find_cycles_through,
    find_parallel_paths_from,
    find_parallel_paths_through,
)
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

    def test_mapping_delta_via_filter(self, intro_network):
        # The delta plan for one added mapping only yields structures that
        # actually traverse it.
        plan = plan_mapping_delta(intro_network, "p1->p2", ttl=4)
        cycles, paths = run_plan(plan).merged()
        assert cycles
        for cycle in cycles:
            assert "p1->p2" in cycle.mapping_names
        reference = find_parallel_paths_through(intro_network, "p1->p2", ttl=4)
        assert {p.canonical_key() for p in paths} == {
            p.canonical_key() for p in reference
        }

    def test_non_positive_ttl_rejected(self, intro_network):
        with pytest.raises(ValueError, match="positive hop count"):
            plan_full_probe(intro_network, ttl=0)
