"""Unit tests for network evidence gathering."""

import pytest

from repro.core.analysis import (
    StructureCache,
    StructureCacheStatistics,
    analyze_network,
    structure_feedbacks,
)
from repro.core.feedback import FeedbackKind
from repro.exceptions import UnknownPeerError
from repro.generators.paper import intro_example_network
from repro.generators.topologies import cycle_network
from repro.pdms.discovery import TopologySnapshot


@pytest.fixture(scope="module")
def intro_network():
    return intro_example_network(with_records=False)


def count(evidence, kind):
    return sum(1 for feedback in evidence.feedbacks if feedback.kind is kind)


def _cut_out_of_band(network, name):
    """Delete a mapping behind the network's back: the version counter
    never sees it, which is what ``invalidate()`` is for."""
    mapping = network._mappings.pop(name)
    del network.peer(mapping.source)._outgoing[name]


class TestAnalyzeNetwork:
    def test_intro_network_has_positive_and_negative_evidence(self, intro_network):
        evidence = analyze_network(intro_network, "Creator", ttl=4)
        assert count(evidence, FeedbackKind.POSITIVE) > 0
        assert count(evidence, FeedbackKind.NEGATIVE) > 0
        assert evidence.attribute == "Creator"

    def test_negative_evidence_involves_the_faulty_mapping(self, intro_network):
        evidence = analyze_network(intro_network, "Creator", ttl=4)
        for feedback in evidence.feedbacks:
            if feedback.kind is FeedbackKind.NEGATIVE:
                assert "p2->p4" in feedback.mapping_names

    def test_correct_attribute_has_no_negative_evidence(self, intro_network):
        evidence = analyze_network(intro_network, "Title", ttl=4)
        assert count(evidence, FeedbackKind.NEGATIVE) == 0
        assert count(evidence, FeedbackKind.POSITIVE) > 0

    def test_correct_cycle_network_all_positive(self):
        network = cycle_network(4)
        evidence = analyze_network(network, network.attribute_universe()[0], ttl=5)
        assert count(evidence, FeedbackKind.NEGATIVE) == 0
        assert count(evidence, FeedbackKind.POSITIVE) == 1

    def test_chain_network_has_no_evidence(self):
        network = cycle_network(4)
        network.remove_mapping("p4->p1")
        evidence = analyze_network(network, network.attribute_universe()[0], ttl=5)
        assert evidence.feedbacks == ()

    def test_unmappable_rule(self):
        network = intro_example_network(with_records=False)
        # Drop p3->p4's Creator correspondence (test-only surgery).
        del network.mapping("p3->p4")._by_source["Creator"]
        evidence = analyze_network(network, "Creator", ttl=4)
        assert "p3->p4" in evidence.unmappable

    def test_informative_feedback_covers_the_mappings(self, intro_network):
        evidence = analyze_network(intro_network, "Title", ttl=4)
        assert any(
            "p2->p3" in feedback.mapping_names
            for feedback in evidence.informative_feedbacks
        )

    def test_parallel_paths_only_for_directed_networks(self, intro_network):
        with_parallel = analyze_network(
            intro_network, "Title", ttl=4, include_parallel_paths=True
        )
        without_parallel = analyze_network(
            intro_network, "Title", ttl=4, include_parallel_paths=False
        )
        assert len(with_parallel.feedbacks) > len(without_parallel.feedbacks)


class TestStructureCache:
    def _fresh_network(self):
        return intro_example_network(with_records=False)

    def test_evidence_matches_analyze_network(self):
        network = self._fresh_network()
        cache = StructureCache(network, ttl=4)
        for attribute in ("Creator", "Title"):
            cached = cache.evidence_for(attribute)
            direct = analyze_network(network, attribute, ttl=4)
            assert cached.attribute == direct.attribute
            assert cached.unmappable == direct.unmappable
            assert len(cached.feedbacks) == len(direct.feedbacks)
            for a, b in zip(cached.feedbacks, direct.feedbacks):
                assert a.identifier == b.identifier
                assert a.kind == b.kind
                assert a.mapping_names == b.mapping_names

    def test_probes_once_across_attributes(self):
        network = self._fresh_network()
        cache = StructureCache(network, ttl=4)
        for attribute in ("Creator", "Title", "Subject", "Creator"):
            cache.evidence_for(attribute)
        assert cache.statistics.probes == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.hits == 3

    def test_evidence_is_memoised_per_key_and_attribute(self):
        network = self._fresh_network()
        cache = StructureCache(network, ttl=4)
        creator = cache.evidence_for("Creator")
        local = cache.structures_for("p2")
        assert cache.evidence_for("Creator") is creator
        assert cache.structures_for("p2") is local
        assert cache.evidence_for("Title") is not creator
        assert FeedbackKind.NEGATIVE in {f.kind for f in creator.feedbacks}

        # The versioned repair of p2->p4 is a new key: evaluated afresh.
        faulty = network.mapping("p2->p4")
        network.change_correspondences(
            faulty.with_correspondence(
                faulty.correspondence_for("Creator").with_target(
                    "Creator", is_correct=True
                )
            )
        )
        repaired = cache.evidence_for("Creator")
        assert repaired is not creator
        assert cache.evidence_for("Creator") is repaired
        assert FeedbackKind.NEGATIVE not in {f.kind for f in repaired.feedbacks}
        assert [(f.identifier, f.kind) for f in repaired.feedbacks] == [
            (f.identifier, f.kind)
            for f in analyze_network(network, "Creator", ttl=4).feedbacks
        ]
        cache.invalidate()
        assert cache.evidence_for("Creator") is not repaired

    def test_topology_mutation_triggers_refresh(self):
        from repro.mapping.correspondence import Correspondence
        from repro.mapping.mapping import Mapping
        from repro.pdms.peer import Peer
        from repro.schema.schema import Schema

        network = self._fresh_network()
        cache = StructureCache(network, ttl=4)
        before = cache.evidence_for("Creator")
        network.add_peer(Peer("p9", Schema.from_names("p9", ["Creator"])))
        network.add_mapping(
            Mapping(
                "p2",
                "p9",
                [Correspondence("Creator", "Creator")],
            ),
            bidirectional=False,
        )
        after = cache.evidence_for("Creator")
        # The new version is looked up again, from walks carried over from
        # the previous snapshot: no second cold probe.
        assert cache.statistics.misses == 2
        assert cache.statistics.probes == 1
        assert cache.statistics.partial_refreshes == 1
        # The new dangling mapping creates no cycle, so the evidence set is
        # structurally unchanged.
        assert len(after.feedbacks) == len(before.feedbacks)
        fresh = analyze_network(network, "Creator", ttl=4)
        assert [f.mapping_names for f in after.feedbacks] == [
            f.mapping_names for f in fresh.feedbacks
        ]

    def test_removed_mapping_refreshes_incrementally(self):
        """A removal is served by filtering the cached structures — no full
        re-enumeration — and still yields the exact fresh-probe set."""
        network = self._fresh_network()
        cache = StructureCache(network, ttl=4)
        before = cache.evidence_for("Creator")
        assert before.feedbacks
        network.remove_mapping("p2->p4")
        after = cache.evidence_for("Creator")
        assert cache.statistics.probes == 1
        assert cache.statistics.partial_refreshes == 1
        assert len(after.feedbacks) < len(before.feedbacks)
        fresh = analyze_network(network, "Creator", ttl=4)
        assert {f.mapping_names for f in after.feedbacks} == {
            f.mapping_names for f in fresh.feedbacks
        }

    def test_added_mapping_refreshes_incrementally_for_cycles(self):
        from repro.mapping.mapping import Mapping

        network = self._fresh_network()
        cache = StructureCache(network, ttl=4, include_parallel_paths=False)
        cache.evidence_for("Creator")
        # A reverse mapping p4->p2 closes new cycles through the new edge.
        network.add_mapping(
            Mapping.from_pairs("p4", "p2", {"Creator": "Creator"}),
            bidirectional=False,
        )
        after = cache.evidence_for("Creator")
        assert cache.statistics.probes == 1
        assert cache.statistics.partial_refreshes == 1
        fresh = analyze_network(
            network, "Creator", ttl=4, include_parallel_paths=False
        )
        # Carried and re-walked alike, each cycle comes from its owner's
        # walk: the very list, orientation included, of a fresh probe.
        assert after.cycles == fresh.cycles

    def test_added_mapping_refreshes_incrementally_for_parallel_paths(self):
        from repro.mapping.mapping import Mapping

        network = self._fresh_network()
        cache = StructureCache(network, ttl=4, include_parallel_paths=True)
        cache.evidence_for("Creator")
        network.add_mapping(
            Mapping.from_pairs("p4", "p2", {"Creator": "Creator"}),
            bidirectional=False,
        )
        after = cache.evidence_for("Creator")
        assert cache.statistics.probes == 1
        assert cache.statistics.partial_refreshes == 1
        fresh = analyze_network(
            network, "Creator", ttl=4, include_parallel_paths=True
        )
        assert after.cycles == fresh.cycles
        assert after.parallel_paths == fresh.parallel_paths

    def test_mutation_churn_is_served_incrementally(self):
        """A burst of adds and removals with parallel paths enabled is
        absorbed by incremental grafting/filtering: every refresh matches a
        fresh probe and partial refreshes dominate full re-probes."""
        from repro.mapping.mapping import Mapping

        network = self._fresh_network()
        cache = StructureCache(network, ttl=4, include_parallel_paths=True)
        cache.evidence_for("Creator")

        def check():
            after = cache.evidence_for("Creator")
            fresh = analyze_network(
                network, "Creator", ttl=4, include_parallel_paths=True
            )
            assert after.cycles == fresh.cycles
            assert after.parallel_paths == fresh.parallel_paths

        network.add_mapping(
            Mapping.from_pairs("p4", "p2", {"Creator": "Creator"}),
            bidirectional=False,
        )
        check()
        network.add_mapping(
            Mapping.from_pairs("p3", "p1", {"Creator": "Creator"}),
            bidirectional=False,
        )
        check()
        network.remove_mapping("p2->p4")
        check()
        network.remove_mapping("p4->p2")
        check()
        assert cache.statistics.probes == 1
        assert cache.statistics.partial_refreshes == 4

    def test_added_peer_walks_cold_and_carries_the_rest(self):
        from repro.pdms.peer import Peer
        from repro.schema.schema import Schema

        network = self._fresh_network()
        cache = StructureCache(network, ttl=4)
        cache.evidence_for("Creator")
        # Cycles and parallel paths of every peer: two walks each.
        assert cache.statistics.work_units == 2 * len(network.peer_names)
        network.add_peer(Peer("p9", Schema.from_names("p9", ["Creator"])))
        cache.evidence_for("Creator")
        assert cache.statistics.probes == 1
        assert cache.statistics.partial_refreshes == 1
        # Only the new peer is walked: every other origin's walks carry.
        assert cache.statistics.work_units == 2 * len(network.peer_names)

    def test_interleaved_mutations_replay_in_order(self):
        from repro.mapping.mapping import Mapping

        network = self._fresh_network()
        cache = StructureCache(network, ttl=4, include_parallel_paths=False)
        cache.evidence_for("Creator")
        network.remove_mapping("p2->p4")
        network.add_mapping(
            Mapping.from_pairs("p4", "p2", {"Creator": "Creator"}),
            bidirectional=False,
        )
        after = cache.evidence_for("Creator")
        assert cache.statistics.partial_refreshes == 1
        fresh = analyze_network(
            network, "Creator", ttl=4, include_parallel_paths=False
        )
        assert after.cycles == fresh.cycles

    def test_invalidate_forces_reprobe(self):
        network = self._fresh_network()
        cache = StructureCache(network, ttl=4)
        cache.evidence_for("Creator")
        cache.invalidate()
        cache.evidence_for("Creator")
        assert cache.statistics.probes == 2

    def test_invalidate_after_surgery_sees_the_current_topology(self):
        """Regression: invalidate() used to re-probe the snapshot of the
        unchanged version, so out-of-band surgery stayed invisible."""
        network = self._fresh_network()
        cache = StructureCache(network, ttl=4)
        local = StructureCache(network, ttl=4)
        cycles, _ = cache.structures()
        assert sum("p1->p2" in c.mapping_names for c in cycles) == 3
        assert any("p1->p2" in c.mapping_names for c in local.structures_for("p1")[0])

        _cut_out_of_band(network, "p1->p2")
        cache.invalidate()
        local.invalidate()
        cycles, paths = cache.structures()
        assert not any("p1->p2" in s.mapping_names for s in cycles + paths)
        expected, _ = TopologySnapshot.of(network).structures(4, True)
        assert [c.mapping_names for c in cycles] == [
            c.mapping_names for c in expected
        ]
        for origin in network.peer_names:
            l_cycles, l_paths = local.structures_for(origin)
            assert not any("p1->p2" in s.mapping_names for s in l_cycles + l_paths)

    def test_warm_rejects_an_unknown_origin_before_walking(self):
        # At ttl 1 no walk would notice: one hop closes no cycle, and no
        # parallel paths are read.
        network = self._fresh_network()
        cache = StructureCache(network, ttl=1, include_parallel_paths=False)
        with pytest.raises(UnknownPeerError):
            cache.warm(("p1", "zz"))
        assert cache.statistics == StructureCacheStatistics()
        assert network.snapshot().walks == 0
        with pytest.raises(UnknownPeerError):
            cache.structures_for("zz")
        assert cache.statistics == StructureCacheStatistics()

    def test_network_version_counter(self):
        from repro.pdms.peer import Peer
        from repro.schema.schema import Schema

        network = self._fresh_network()
        version = network.version
        network.add_peer(Peer("p9", Schema.from_names("p9", ["Creator"])))
        assert network.version == version + 1
        network.remove_mapping("p2->p4")
        assert network.version == version + 2


class TestLocalEvidence:
    """An origin's local view, evaluated as the assessor's per-origin
    blocks evaluate it."""

    def test_neighborhood_view_is_subset_of_global_view(self, intro_network):
        cycles, paths = StructureCache(intro_network, ttl=4).structures_for("p2")
        local = structure_feedbacks(cycles, paths, "Title")
        global_view = analyze_network(intro_network, "Title", ttl=4)
        assert len(local) <= len(global_view.feedbacks)
        for cycle in cycles:
            assert cycle.origin == "p2"

    def test_neighborhood_detects_the_fault_from_p2(self, intro_network):
        cache = StructureCache(intro_network, ttl=4)
        local = structure_feedbacks(*cache.structures_for("p2"), "Creator")
        assert FeedbackKind.NEGATIVE in {feedback.kind for feedback in local}
