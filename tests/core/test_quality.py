"""Unit tests for the mapping quality assessor (the user-facing pipeline)."""

import pytest

from repro.core.analysis import analyze_network
from repro.core.beliefs import PriorBeliefStore
from repro.core.embedded import EmbeddedMessagePassing
from repro.core.quality import MappingQualityAssessor
from repro.exceptions import ReproError
from repro.generators.paper import intro_example_network
from repro.pdms.query import Query, substring_predicate
from repro.pdms.routing import RoutingPolicy


@pytest.fixture(scope="module")
def assessor():
    network = intro_example_network(with_records=True)
    assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
    assessor.assess_attribute("Creator")
    return assessor


class TestAssessment:
    def test_faulty_mapping_gets_low_probability(self, assessor):
        assert assessor.probability("p2->p4", "Creator") < 0.5
        assert assessor.probability("p2->p3", "Creator") > 0.5

    def test_is_erroneous_decision(self, assessor):
        assert assessor.is_erroneous("p2->p4", "Creator", theta=0.5)
        assert not assessor.is_erroneous("p2->p3", "Creator", theta=0.5)

    def test_invalid_theta_rejected(self, assessor):
        with pytest.raises(ReproError):
            assessor.is_erroneous("p2->p4", "Creator", theta=1.5)

    def test_flagged_mappings(self, assessor):
        assert assessor.flagged_mappings("Creator", theta=0.5) == ("p2->p4",)

    def test_assessment_is_cached(self, assessor):
        first = assessor.assessment("Creator")
        second = assessor.assessment("Creator")
        assert first is second

    def test_attribute_without_negative_evidence_all_above_threshold(self, assessor):
        assessment = assessor.assess_attribute("Title")
        assert all(value > 0.5 for value in assessment.posteriors.values())
        assert assessor.flagged_mappings("Title", theta=0.5) == ()

    def test_probability_accepts_mapping_objects(self, assessor):
        mapping = assessor.network.mapping("p2->p4")
        assert assessor.probability(mapping, "Creator") < 0.5

    def test_probability_falls_back_to_prior_without_evidence(self):
        from repro.mapping.mapping import Mapping
        from repro.pdms.peer import Peer
        from repro.schema.schema import Schema

        network = intro_example_network(with_records=False)
        # Add a dangling peer reachable only through one mapping: that
        # mapping participates in no cycle or parallel path, so it has no
        # evidence and must keep its prior.
        network.add_peer(Peer("p5", Schema.from_names("p5", ["Creator", "Title"])))
        network.add_mapping(
            Mapping.from_pairs("p3", "p5", {"Creator": "Creator", "Title": "Title"}),
            bidirectional=False,
        )
        priors = PriorBeliefStore(default_prior=0.8)
        assessor = MappingQualityAssessor(network, priors=priors, delta=0.1, ttl=4)
        assessor.assess_attribute("Creator")
        assert assessor.probability("p3->p5", "Creator") == pytest.approx(0.8)

    def test_assess_all_attributes_covers_schema_universe(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=3)
        assessments = assessor.assess_attributes(["Creator", "Title"])
        assert set(assessments) == {"Creator", "Title"}

    def test_derived_delta_from_schema_size(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=None, ttl=3)
        assert assessor._delta_for("Creator") == pytest.approx(0.1)


class TestStructureCacheWiring:
    def test_assess_all_attributes_probes_once(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        assessments = assessor.assess_all_attributes()
        assert len(assessments) >= 2
        assert assessor.structure_cache.statistics.probes == 1

    def test_em_rounds_do_not_reprobe(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        for _ in range(3):
            assessor.assess_all_attributes()
            assessor.update_priors()
        assert assessor.structure_cache.statistics.probes == 1

    def test_cache_matches_uncached_pipeline(self):
        network = intro_example_network(with_records=False)
        cached = MappingQualityAssessor(network, delta=0.1, ttl=4)
        for attribute in network.attribute_universe():
            a = cached.assess_attribute(attribute)
            evidence = analyze_network(network, attribute, ttl=4)
            informative = evidence.informative_feedbacks
            expected = (
                EmbeddedMessagePassing(informative, delta=0.1).run().posteriors
                if informative
                else {}
            )
            assert a.posteriors == expected
            assert a.unmappable == evidence.unmappable

    def test_topology_mutation_refreshes_automatically(self):
        from repro.mapping.correspondence import Correspondence
        from repro.mapping.mapping import Mapping
        from repro.pdms.peer import Peer
        from repro.schema.schema import Schema

        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        assessor.assess_attribute("Creator")
        network.add_peer(Peer("p9", Schema.from_names("p9", ["Creator"])))
        network.add_mapping(
            Mapping("p4", "p9", [Correspondence("Creator", "Creator")]),
            bidirectional=False,
        )
        after = assessor.assess_attribute("Creator")
        # A new version is looked up again, from walks the network's next
        # snapshot carried over: no second cold probe.
        assert assessor.structure_cache.statistics.misses == 2
        assert assessor.structure_cache.statistics.probes == 1
        assert assessor.structure_cache.statistics.partial_refreshes == 1
        assert after.posteriors == MappingQualityAssessor(
            network, delta=0.1, ttl=4
        ).assess_attribute("Creator").posteriors

    def test_invalidate_clears_assessments_and_cache(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        first = assessor.assess_attribute("Creator")
        assert assessor.assessment("Creator") is first
        assessor.invalidate()
        second = assessor.assessment("Creator")
        assert second is not first
        assert assessor.structure_cache.statistics.probes == 2

    def test_invalidate_after_surgery_sees_the_current_topology(self):
        """Regression: invalidate() used to re-probe the snapshot of the
        unchanged version, so a mapping deleted behind the network's back
        kept feeding evidence."""
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        before = assessor.assess_attribute("Creator").evidence.cycles
        assert sum("p1->p2" in c.mapping_names for c in before) == 3
        assessor.assess_local_all("Creator")

        mapping = network._mappings.pop("p1->p2")
        del network.peer(mapping.source)._outgoing["p1->p2"]
        assessor.invalidate()
        evidence = assessor.assess_attribute("Creator").evidence
        assert not any(
            "p1->p2" in s.mapping_names
            for s in evidence.cycles + evidence.parallel_paths
        )
        for origin in network.peer_names:
            cycles, paths = assessor.neighborhood_cache.structures_for(origin)
            assert not any("p1->p2" in s.mapping_names for s in cycles + paths)


class TestDeterministicSeeding:
    def test_lossy_assessment_is_deterministic_by_default(self):
        """Regression: seed=None used to override the transport's seeded
        fallback, making default lossy assessments nondeterministic."""
        posteriors = []
        for _ in range(2):
            network = intro_example_network(with_records=False)
            assessor = MappingQualityAssessor(
                network, delta=0.1, ttl=4, send_probability=0.5
            )
            posteriors.append(assessor.assess_attribute("Creator").posteriors)
        assert posteriors[0] == posteriors[1]

    def test_lossy_assess_local_is_deterministic_by_default(self):
        results = []
        for _ in range(2):
            network = intro_example_network(with_records=False)
            assessor = MappingQualityAssessor(
                network, delta=0.1, ttl=4, send_probability=0.5
            )
            results.append(assessor.assess_local("p2", "Creator"))
        assert results[0] == results[1]

    def test_explicit_seed_still_honoured(self):
        network = intro_example_network(with_records=False)
        a = MappingQualityAssessor(
            network, delta=0.1, ttl=4, send_probability=0.5, seed=1
        ).assess_attribute("Creator")
        b = MappingQualityAssessor(
            network, delta=0.1, ttl=4, send_probability=0.5, seed=1
        ).assess_attribute("Creator")
        assert a.posteriors == b.posteriors


class TestRoutingIntegration:
    def test_router_blocks_faulty_mapping(self, assessor):
        router = assessor.router(policy=RoutingPolicy(default_threshold=0.5))
        query = Query.select_project(
            "p2",
            project=["Creator"],
            where={"Subject": substring_predicate("river")},
        )
        trace = router.route(query)
        assert "p2->p4" in {hop.mapping_name for hop in trace.blocked_hops}
        assert set(trace.visited_peers) == {"p1", "p2", "p3", "p4"}

    def test_oracle_signature(self, assessor):
        oracle = assessor.as_oracle()
        mapping = assessor.network.mapping("p2->p3")
        assert 0.0 <= oracle(mapping, "Creator") <= 1.0


def _pointed(network, mapping_name, attribute, target, is_correct):
    """A copy of the registered mapping whose ``attribute`` correspondence
    points at ``target``: every structure stays, only its evidence
    changes."""
    mapping = network.mapping(mapping_name)
    return mapping.with_correspondence(
        mapping.correspondence_for(attribute).with_target(
            target, is_correct=is_correct
        )
    )


class TestCorrespondenceChurn:
    """§4.4: a PDMS keeps evolving, and re-assessment follows the evidence.

    Every edit goes through the versioned ``change_correspondences``: no
    ``invalidate()``, and the memoised evidence must still follow it."""

    def test_corrupting_a_correspondence_lowers_its_posterior(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=4, include_parallel_paths=False
        )
        assert assessor.assess_attribute("Creator").posteriors["p3->p4"] > 0.5
        network.change_correspondences(
            _pointed(network, "p3->p4", "Creator", "Title", is_correct=False)
        )
        assert network.mapping("p3->p4").apply("Creator") == "Title"
        assert assessor.assess_attribute("Creator").posteriors["p3->p4"] < 0.5

    def test_repairing_the_faulty_mapping_restores_its_posterior(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=4, include_parallel_paths=False
        )
        assert assessor.assess_attribute("Creator").posteriors["p2->p4"] < 0.5
        network.change_correspondences(
            _pointed(network, "p2->p4", "Creator", "Creator", is_correct=True)
        )
        assert network.mapping("p2->p4").apply("Creator") == "Creator"
        assert assessor.assess_attribute("Creator").posteriors["p2->p4"] > 0.5


    def test_reads_after_a_repair_answer_from_the_repaired_topology(self):
        """The global view's reads re-assess on their own after a versioned
        edit, as the local view's always have: no assess call follows the
        repair."""
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        assessor.assess_attribute("Creator")
        assert assessor.flagged_mappings("Creator") == ("p2->p4",)
        network.change_correspondences(
            _pointed(network, "p2->p4", "Creator", "Creator", is_correct=True)
        )
        repaired = network.mapping("p2->p4")
        fresh = MappingQualityAssessor(network, delta=0.1, ttl=4)
        posterior = fresh.assess_attribute("Creator").posteriors["p2->p4"]

        assert assessor.probability("p2->p4", "Creator") == posterior > 0.5
        assert assessor.flagged_mappings("Creator") == ()
        oracle = assessor.router().quality_oracle
        assert oracle(repaired, "Creator") == posterior
        assert assessor.local_probability(repaired, "Creator") > 0.5
        query = Query.select_project(
            "p2", project=["Creator"], where={"Subject": substring_predicate("river")}
        )
        trace = assessor.router(RoutingPolicy(default_threshold=0.5)).route(query)
        assert "p2->p4" in {hop.mapping_name for hop in trace.forwarded_hops}
        updated = assessor.update_priors()
        assert updated[("p2->p4", "Creator")] == posterior
        assert assessor.priors.prior("p2->p4", "Creator") == posterior
        assert assessor.structure_cache.statistics.probes == 1


class TestPriorUpdates:
    def test_update_priors_folds_posteriors(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        assessor.assess_attribute("Creator")
        updated = assessor.update_priors(["Creator"])
        assert updated[("p2->p4", "Creator")] < 0.5
        assert assessor.priors.prior("p2->p4", "Creator") < 0.5
        # Updated priors feed the next assessment round.
        second = assessor.assess_attribute("Creator")
        assert second.posteriors["p2->p4"] < 0.5

    def test_a_repeated_attribute_is_folded_once(self):
        """One EM step folds each posterior once, however often its
        attribute is named: a second fold would skew the running average."""
        network = intro_example_network(with_records=False)
        once = MappingQualityAssessor(network, delta=0.1, ttl=4)
        twice = MappingQualityAssessor(network, delta=0.1, ttl=4)
        expected = once.update_priors(["Creator"])
        updated = twice.update_priors(["Creator", "Creator"])
        assert updated == expected
        for mapping_name, attribute in expected:
            assert twice.priors.evidence_count(mapping_name, attribute) == 1
            assert twice.priors.prior(mapping_name, attribute) == once.priors.prior(
                mapping_name, attribute
            )
