"""Each peer's §4.5 local view of the introductory network.

A peer probes from itself (``neighborhood_cache.structures_for``) and judges
only its own outgoing mappings (``assess_local``).  Its structures also span
mappings other peers own — the remote variables of the paper's Figure 6
local factor graph — and its verdicts are the loopy-BP fixed points of the
factor graph those structures alone build.
"""

import pytest

from repro.core.analysis import structure_feedbacks
from repro.core.embedded import EmbeddedOptions
from repro.core.feedback import mapping_owner, variable_name_for
from repro.core.pdms_factor_graph import build_factor_graph
from repro.core.quality import MappingQualityAssessor
from repro.exceptions import UnknownPeerError
from repro.factorgraph.sum_product import run_sum_product
from repro.generators.paper import intro_example_network

PEERS = ("p1", "p2", "p3", "p4")
DELTA = 0.1
TTL = 4

#: As in ``test_differential``: both engines stop below 1e-11 per round and
#: meet only at the fixed point, which 1e-8 resolves.
STOP_TOLERANCE = 1e-11
FIXED_POINT_TOLERANCE = 1e-8


@pytest.fixture(scope="module")
def network():
    return intro_example_network(with_records=False)


@pytest.fixture(scope="module")
def assessor(network):
    return MappingQualityAssessor(network, delta=DELTA, ttl=TTL)


def _structures(assessor, peer):
    cycles, parallel_paths = assessor.neighborhood_cache.structures_for(peer)
    return (*cycles, *parallel_paths)


class TestStructuresFor:
    @pytest.mark.parametrize("peer", PEERS)
    def test_every_cycle_leaves_and_returns_to_the_peer(self, assessor, peer):
        cycles, _ = assessor.neighborhood_cache.structures_for(peer)
        assert cycles
        for cycle in cycles:
            assert cycle.origin == peer
            assert cycle.mappings[0].source == peer
            assert cycle.mappings[-1].target == peer

    def test_only_the_branching_peer_finds_parallel_paths(self, assessor):
        # p2 is the only peer with more than one outgoing mapping.
        found = {
            peer: assessor.neighborhood_cache.structures_for(peer)[1] for peer in PEERS
        }
        assert {peer: len(paths) for peer, paths in found.items()} == {
            "p1": 0,
            "p2": 3,
            "p3": 0,
            "p4": 0,
        }
        assert all(paths.source == "p2" for paths in found["p2"])

    def test_structures_span_mappings_other_peers_own(self, assessor):
        owners = {
            mapping_owner(name)
            for structure in _structures(assessor, "p2")
            for name in structure.mapping_names
        }
        assert owners == {"p1", "p2", "p3", "p4"}

    def test_structures_holding_the_faulty_mapping(self, assessor):
        holding = {
            structure.mapping_names
            for structure in _structures(assessor, "p2")
            if "p2->p4" in structure.mapping_names
        }
        assert holding == {
            ("p2->p4", "p4->p1", "p1->p2"),
            ("p2->p1", "p2->p4", "p4->p1"),
            ("p2->p3", "p3->p4", "p2->p4"),
        }

    def test_unknown_origin_rejected(self, assessor):
        with pytest.raises(UnknownPeerError):
            assessor.neighborhood_cache.structures_for("p9")


class TestAssessLocal:
    @pytest.mark.parametrize("peer", PEERS)
    def test_judges_exactly_the_peers_outgoing_mappings(self, network, assessor, peer):
        own = {mapping.name for mapping in network.peer(peer).outgoing_mappings}
        assert set(assessor.assess_local(peer, "Creator")) == own

    def test_only_the_faulty_mapping_is_flagged(self, assessor):
        verdicts = {
            name: posterior < 0.5
            for peer in PEERS
            for name, posterior in assessor.assess_local(peer, "Creator").items()
        }
        assert {name for name, flagged in verdicts.items() if flagged} == {"p2->p4"}
        assert len(verdicts) == 6

    @pytest.mark.parametrize("peer", PEERS)
    def test_matches_loopy_bp_on_the_peers_own_structures(self, network, peer):
        converged = MappingQualityAssessor(
            network,
            delta=DELTA,
            ttl=TTL,
            options=EmbeddedOptions(max_rounds=500, tolerance=STOP_TOLERANCE),
        )
        cycles, parallel_paths = converged.neighborhood_cache.structures_for(peer)
        graph = build_factor_graph(
            structure_feedbacks(cycles, parallel_paths, "Creator"),
            priors=0.5,
            delta=DELTA,
            attribute="Creator",
        )
        reference = run_sum_product(
            graph.graph, max_iterations=2000, tolerance=STOP_TOLERANCE
        )
        assert reference.converged
        local = converged.assess_local(peer, "Creator")
        assert local
        for name, posterior in local.items():
            expected = reference.probability_correct(variable_name_for(name, "Creator"))
            assert posterior == pytest.approx(expected, abs=FIXED_POINT_TOLERANCE)

    def test_unknown_origin_rejected(self, assessor):
        with pytest.raises(UnknownPeerError):
            assessor.assess_local("p9", "Creator")
