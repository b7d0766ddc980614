"""Unit tests for PDMS factor-graph construction."""

import pytest

from repro.core.beliefs import PriorBeliefStore
from repro.core.feedback import FeedbackKind, variable_name_for
from repro.core.pdms_factor_graph import build_factor_graph
from repro.core.analysis import analyze_network
from repro.exceptions import FeedbackError
from repro.factorgraph.exact import exact_marginals
from repro.generators.paper import (
    figure4_feedbacks,
    intro_example_feedbacks,
    intro_example_network,
    single_cycle_feedback,
)


class TestBuildFactorGraph:
    def test_structure_matches_paper_figure4(self):
        """Figure 4: five mapping variables, five prior factors, three
        feedback factors."""
        pfg = build_factor_graph(figure4_feedbacks(), priors=0.5, delta=0.1)
        assert len(pfg.graph.variables) == 5
        assert len(pfg.graph.factors) == 8
        assert set(pfg.mapping_names) == {
            "p1->p2",
            "p2->p3",
            "p3->p4",
            "p4->p1",
            "p2->p4",
        }

    def test_variable_names_are_fine_grained(self):
        pfg = build_factor_graph(figure4_feedbacks(), priors=0.5)
        assert pfg.graph.has_variable("m[p1->p2]@Creator")
        assert pfg.has_mapping("p2->p4")
        assert not pfg.has_mapping("p9->p9")

    def test_single_cycle_graph_is_tree(self):
        pfg = build_factor_graph([single_cycle_feedback(5)], priors=0.5)
        assert pfg.graph.is_tree()

    def test_figure4_graph_is_loopy(self):
        pfg = build_factor_graph(figure4_feedbacks(), priors=0.5)
        assert not pfg.graph.is_tree()

    def test_priors_from_dict(self):
        priors = {"p1->p2": 0.9}
        pfg = build_factor_graph(figure4_feedbacks(), priors=priors, delta=0.1)
        prior_factor = pfg.graph.factor("prior(m[p1->p2]@Creator)")
        assert prior_factor.table[0] == pytest.approx(0.9)
        default_factor = pfg.graph.factor("prior(m[p2->p3]@Creator)")
        assert default_factor.table[0] == pytest.approx(0.5)

    def test_priors_from_store(self):
        store = PriorBeliefStore()
        store.set_prior("p2->p4", "Creator", 0.2)
        pfg = build_factor_graph(figure4_feedbacks(), priors=store, delta=0.1)
        assert pfg.graph.factor("prior(m[p2->p4]@Creator)").table[0] == pytest.approx(0.2)

    def test_requires_informative_feedback(self):
        neutral = [
            f for f in intro_example_feedbacks() if f.kind is FeedbackKind.NEUTRAL
        ]
        with pytest.raises(FeedbackError):
            build_factor_graph(neutral, priors=0.5)

    def test_mixed_attributes_rejected(self):
        feedbacks = [single_cycle_feedback(3, attribute="A"), single_cycle_feedback(3, attribute="B")]
        with pytest.raises(FeedbackError):
            build_factor_graph(feedbacks)

    def test_invalid_delta_rejected(self):
        with pytest.raises(FeedbackError):
            build_factor_graph(figure4_feedbacks(), delta=2.0)


class TestSection45Numbers:
    """The worked example of §4.5: exact inference reproduces the paper's
    posteriors almost to the digit."""

    def test_exact_posteriors_match_paper(self):
        pfg = build_factor_graph(intro_example_feedbacks(), priors=0.5, delta=0.1)
        exact = exact_marginals(pfg.graph)
        p23 = float(exact[variable_name_for("p2->p3", "Creator")][0])
        p24 = float(exact[variable_name_for("p2->p4", "Creator")][0])
        # Paper: 0.59 and 0.3.
        assert p23 == pytest.approx(0.59, abs=0.01)
        assert p24 == pytest.approx(0.30, abs=0.02)

    def test_faulty_mapping_ranked_last(self):
        pfg = build_factor_graph(intro_example_feedbacks(), priors=0.5, delta=0.1)
        exact = exact_marginals(pfg.graph)
        posteriors = {
            name: float(exact[variable_name_for(name, "Creator")][0])
            for name in pfg.mapping_names
        }
        assert min(posteriors, key=posteriors.get) == "p2->p4"


class TestBuildFromEvidence:
    def test_evidence_pipeline(self):
        network = intro_example_network(with_records=False)
        evidence = analyze_network(network, "Creator", ttl=4)
        pfg = build_factor_graph(
            evidence.feedbacks, priors=0.5, delta=0.1, attribute=evidence.attribute
        )
        assert pfg.attribute == "Creator"
        assert "p2->p4" in pfg.mapping_names
        exact = exact_marginals(pfg.graph)
        p24 = float(exact[variable_name_for("p2->p4", "Creator")][0])
        p23 = float(exact[variable_name_for("p2->p3", "Creator")][0])
        assert p24 < 0.5 < p23
