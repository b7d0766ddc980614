"""Tests for belief maintenance under mapping-network churn."""

import pytest

from repro.core.beliefs import PriorBeliefStore
from repro.core.evolution import CorrespondenceChanged, EvolvingPDMS
from repro.exceptions import PDMSError
from repro.generators.paper import INTRO_ATTRIBUTE, intro_example_network
from repro.mapping.mapping import Mapping
from repro.pdms.events import MappingAdded, MappingRemoved, PeerRemoved


@pytest.fixture
def evolving():
    network = intro_example_network(with_records=False)
    return EvolvingPDMS(network, delta=0.1, ttl=4, include_parallel_paths=False)


class TestEventApplication:
    def test_corrupting_a_correspondence_lowers_its_belief(self, evolving):
        # p3->p4 starts correct; corrupt its Creator correspondence.
        event = CorrespondenceChanged(
            mapping_name="p3->p4",
            attribute=INTRO_ATTRIBUTE,
            new_target="Title",
            is_correct=False,
        )
        round_record = evolving.apply_event(event)
        assert round_record.assessed_attributes == (INTRO_ATTRIBUTE,)
        assert evolving.network.mapping("p3->p4").apply(INTRO_ATTRIBUTE) == "Title"
        assert evolving.current_belief("p3->p4", INTRO_ATTRIBUTE) < 0.5

    def test_repairing_the_faulty_mapping_restores_belief(self, evolving):
        repair = CorrespondenceChanged(
            mapping_name="p2->p4",
            attribute=INTRO_ATTRIBUTE,
            new_target=INTRO_ATTRIBUTE,
            is_correct=True,
        )
        round_record = evolving.apply_event(repair)
        assert evolving.network.mapping("p2->p4").apply(INTRO_ATTRIBUTE) == INTRO_ATTRIBUTE
        # With the repair in place every cycle is consistent again.
        assert round_record.posteriors[("p2->p4", INTRO_ATTRIBUTE)] > 0.5
        assert evolving.current_belief("p2->p4", INTRO_ATTRIBUTE) > 0.5

    def test_removing_a_mapping_removes_it_from_the_network(self, evolving):
        evolving.apply_event(MappingRemoved(name="p2->p4"))
        assert not evolving.network.has_mapping("p2->p4")
        assert "p2->p4" not in [m.name for m in evolving.network.peer("p2").outgoing_mappings]

    def test_adding_a_mapping_triggers_assessment(self, evolving):
        new_mapping = Mapping.from_pairs(
            "p3", "p1", {concept: concept for concept in ("Creator", "Title")},
            is_correct=True,
        )
        round_record = evolving.apply_event(MappingAdded(mapping=new_mapping))
        assert evolving.network.has_mapping("p3->p1")
        assert set(round_record.assessed_attributes) == {"Creator", "Title"}

    def test_peer_churn_is_rejected(self, evolving):
        # Peer churn has no mapping-level equivalent; the network is left
        # untouched.
        with pytest.raises(PDMSError):
            evolving.apply_event(PeerRemoved(name="p4"))
        assert evolving.network.has_peer("p4")
        assert evolving.history == []

    def test_corrupt_event_requires_target(self):
        with pytest.raises(PDMSError):
            CorrespondenceChanged(
                mapping_name="p2->p3",
                attribute=INTRO_ATTRIBUTE,
                new_target="",
                is_correct=False,
            )


class TestBeliefAccumulation:
    def test_priors_accumulate_across_rounds(self, evolving):
        """Evidence gathered before a change keeps influencing the prior
        after it (the running average of §4.4)."""
        corrupt = CorrespondenceChanged(
            mapping_name="p2->p3",
            attribute=INTRO_ATTRIBUTE,
            new_target="Subject",
            is_correct=False,
        )
        repair = CorrespondenceChanged(
            mapping_name="p2->p3",
            attribute=INTRO_ATTRIBUTE,
            new_target=INTRO_ATTRIBUTE,
            is_correct=True,
        )
        evolving.apply_events([corrupt, repair])
        belief = evolving.current_belief("p2->p3", INTRO_ATTRIBUTE)
        # The repaired mapping is trusted again, but the earlier negative
        # round still tempers the prior (it is an average, not the latest
        # posterior).
        assert 0.4 < belief < 0.95
        assert len(evolving.history) == 2
        assert evolving.priors.evidence_count("p2->p3", INTRO_ATTRIBUTE) == 2

    def test_shared_prior_store_is_used(self):
        store = PriorBeliefStore()
        store.set_prior("p2->p4", INTRO_ATTRIBUTE, 0.3)
        network = intro_example_network(with_records=False)
        evolving = EvolvingPDMS(network, priors=store, delta=0.1, ttl=3)
        assert evolving.current_belief("p2->p4", INTRO_ATTRIBUTE) == pytest.approx(0.3)
