"""Unit tests for cycle and parallel-path discovery."""

import pytest

from repro.exceptions import PDMSError
from repro.generators.paper import intro_example_network
from repro.generators.topologies import cycle_network
from repro.pdms.discovery import TopologySnapshot
from repro.pdms.probing import find_cycles_through, find_parallel_paths_from
from walker_reference import cycle_key


@pytest.fixture(scope="module")
def intro_network():
    return intro_example_network(with_records=False)


def chain_network(peer_count):
    """The chain p1 → p2 → … → pn: a ring without its closing mapping."""
    network = cycle_network(peer_count)
    network.remove_mapping(f"p{peer_count}->p1")
    return network


class TestCycleDiscovery:
    def test_simple_cycle_found(self):
        network = cycle_network(4)
        cycles = find_cycles_through(network, "p1", ttl=5)
        assert len(cycles) == 1
        assert cycles[0].length == 4
        assert cycles[0].origin == "p1"

    def test_ttl_limits_cycle_length(self):
        network = cycle_network(6)
        assert find_cycles_through(network, "p1", ttl=5) == ()
        assert len(find_cycles_through(network, "p1", ttl=6)) == 1

    def test_chain_has_no_cycles(self):
        network = chain_network(5)
        assert find_cycles_through(network, "p1", ttl=10) == ()

    def test_intro_network_cycles_through_p2(self, intro_network):
        cycles = find_cycles_through(intro_network, "p2", ttl=4)
        keys = {cycle.mapping_names for cycle in cycles}
        # The two cycles of §4.5 (oriented from p2) plus the 2-cycle via p1.
        assert ("p2->p3", "p3->p4", "p4->p1", "p1->p2") in keys
        assert ("p2->p4", "p4->p1", "p1->p2") in keys
        assert ("p2->p1", "p1->p2") in keys

    def test_cycles_deduplicated_across_origins(self, intro_network):
        cycles, _ = TopologySnapshot.of(intro_network).structures(4, False)
        keys = [cycle_key(cycle) for cycle in cycles]
        assert len(keys) == len(set(keys))

    def test_canonical_key_rotation_invariant(self, intro_network):
        from_p2 = {
            cycle_key(c)
            for c in find_cycles_through(intro_network, "p2", ttl=4)
            if c.length == 4
        }
        from_p1 = {
            cycle_key(c)
            for c in find_cycles_through(intro_network, "p1", ttl=4)
            if c.length == 4
        }
        assert from_p2 == from_p1


class TestParallelPathDiscovery:
    def test_intro_network_parallel_paths_from_p2(self, intro_network):
        pairs = find_parallel_paths_from(intro_network, "p2", ttl=3)
        keys = {pair.canonical_key() for pair in pairs}
        # m24 parallel to m23 -> m34 (the f3 feedback of §4.5).
        assert ((("p2->p3", "p3->p4")), ("p2->p4",)) in keys or (
            ("p2->p4",),
            ("p2->p3", "p3->p4"),
        ) in keys

    def test_paths_are_edge_disjoint(self, intro_network):
        _, pairs = TopologySnapshot.of(intro_network).structures(3, True)
        assert pairs
        for pair in pairs:
            first_names = {m.name for m in pair.first}
            second_names = {m.name for m in pair.second}
            assert not (first_names & second_names)

    def test_chain_has_no_parallel_paths(self):
        network = chain_network(5)
        assert find_parallel_paths_from(network, "p1", ttl=5) == ()


class TestUnknownOrigin:
    def test_walkers_reject_an_unknown_origin(self, intro_network):
        with pytest.raises(PDMSError):
            find_cycles_through(intro_network, "zz")
        with pytest.raises(PDMSError):
            find_parallel_paths_from(intro_network, "zz")


class TestTtlValidation:
    """Non-positive TTLs are caller bugs, rejected consistently everywhere."""

    @pytest.mark.parametrize("ttl", [0, -1, -6])
    def test_probing_entry_points_reject_non_positive_ttl(self, ttl, intro_network):
        with pytest.raises(ValueError, match="positive hop count"):
            find_cycles_through(intro_network, "p1", ttl=ttl)
        with pytest.raises(ValueError, match="positive hop count"):
            find_parallel_paths_from(intro_network, "p1", ttl=ttl)
        with pytest.raises(ValueError, match="positive hop count"):
            TopologySnapshot.of(intro_network).structures(ttl, True)

    def test_ttl_one_is_a_valid_probe_without_cycles(self, intro_network):
        # One hop cannot close a cycle, but it is a well-defined probe —
        # not an error, and no longer a silent historical special case.
        from repro.core.analysis import StructureCache

        assert find_cycles_through(intro_network, "p1", ttl=1) == ()
        assert TopologySnapshot.of(intro_network).structures(1, False) == ((), ())
        assert StructureCache(intro_network, ttl=1).structures_for("p1")[0] == ()

    def test_structure_caches_reject_non_positive_ttl(self, intro_network):
        from repro.core.analysis import StructureCache

        with pytest.raises(ValueError, match="positive hop count"):
            StructureCache(intro_network, ttl=0)
        with pytest.raises(ValueError, match="positive hop count"):
            StructureCache(intro_network, ttl=-2)
        from repro.core.quality import MappingQualityAssessor

        with pytest.raises(ValueError, match="positive hop count"):
            MappingQualityAssessor(intro_network, ttl=0)

    def test_default_ttl_is_shared(self):
        import inspect

        from repro.constants import DEFAULT_TTL
        from repro.core.analysis import (
            StructureCache,
            analyze_network,
        )
        from repro.core.quality import MappingQualityAssessor

        assert DEFAULT_TTL == 6
        for callable_ in (
            find_cycles_through,
            find_parallel_paths_from,
            analyze_network,
            MappingQualityAssessor,
            StructureCache,
        ):
            signature = inspect.signature(callable_)
            assert signature.parameters["ttl"].default == DEFAULT_TTL, callable_
