"""Unit tests for the shared probe-plan discovery core.

The :mod:`repro.pdms.discovery` frontier is the single enumeration engine
behind both structure caches: these tests pin its contract — snapshots and
plans pickle, and :func:`~repro.pdms.discovery.run_plan` is
*order*-identical to the historical recursive walkers.
"""

import pickle

import pytest

from repro.exceptions import UnknownPeerError
from repro.generators.paper import intro_example_network
from repro.generators.topologies import scale_free_network
from repro.pdms.discovery import (
    CYCLES_THROUGH,
    PATHS_FROM,
    TopologySnapshot,
    plan_full_probe,
    plan_mapping_delta,
    plan_neighborhood_probe,
    run_plan,
)
from repro.pdms.probing import (
    find_cycles_through,
    find_parallel_paths_from,
    find_parallel_paths_through,
)


@pytest.fixture(scope="module")
def intro_network():
    return intro_example_network(with_records=False)


@pytest.fixture(scope="module")
def sparse_network():
    return scale_free_network(24, seed=7)


def _names(structures):
    return [s.mapping_names for s in structures]


def _walker_reference(network, ttl):
    """The pre-frontier sequential enumeration: per-peer walkers, deduped
    by canonical key in peer order."""
    cycles, paths = [], []
    seen_cycles, seen_paths = set(), set()
    for name in network.peer_names:
        for cycle in find_cycles_through(network, name, ttl=ttl):
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
