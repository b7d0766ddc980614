"""Unit tests for the automatic aligner and the synthetic EON scenario."""

import pytest

from repro.alignment.aligner import OntologyAligner
from repro.alignment.eon import build_eon_network, eon_ground_truth, eon_ontologies
from repro.alignment.ontology import Concept, Ontology
from repro.exceptions import AlignmentError


@pytest.fixture(scope="module")
def eon():
    return build_eon_network()


class TestOntologyAligner:
    def test_align_identical_ontologies_is_perfect(self):
        first = Ontology("a", concepts=["Author", "Title", "Year"])
        second = Ontology("b", concepts=["Author", "Title", "Year"])
        truth = {("a", c): c for c in first.concept_names}
        truth.update({("b", c): c for c in second.concept_names})
        aligner = OntologyAligner(ground_truth=truth)
        result = aligner.align(first, second)
        assert result.correspondence_count == 3
        assert result.erroneous_count == 0
        assert result.error_rate == 0.0

    def test_align_self_rejected(self):
        ontology = Ontology("a", concepts=["Author"])
        with pytest.raises(AlignmentError):
            OntologyAligner().align(ontology, ontology)

    def test_threshold_filters_weak_matches(self):
        first = Ontology("a", concepts=["Zebra"])
        second = Ontology("b", concepts=["Title"])
        result = OntologyAligner(threshold=0.9).align(first, second)
        assert result.correspondence_count == 0
        assert result.unmatched_source_concepts == ("Zebra",)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(AlignmentError):
            OntologyAligner(threshold=0.0)

    def test_without_ground_truth_labels_are_unknown(self):
        first = Ontology("a", concepts=["Author"])
        second = Ontology("b", concepts=["Author"])
        result = OntologyAligner().align(first, second)
        assert result.mapping.correspondence_for("Author").is_correct is None

    def test_align_all_covers_requested_pairs(self):
        ontologies = [Ontology(n, concepts=["Author", "Title"]) for n in ("a", "b", "c")]
        results = OntologyAligner().align_all(ontologies, pairs=[("a", "b"), ("b", "c")])
        assert set(results) == {("a", "b"), ("b", "c")}

    def test_align_all_unknown_pair_rejected(self):
        ontologies = [Ontology("a", concepts=["X"]), Ontology("b", concepts=["X"])]
        with pytest.raises(AlignmentError):
            OntologyAligner().align_all(ontologies, pairs=[("a", "zz")])


class TestEONOntologies:
    def test_six_ontologies_of_about_thirty_concepts(self):
        ontologies = eon_ontologies()
        assert len(ontologies) == 6
        for ontology in ontologies:
            assert 25 <= len(ontology) <= 32

    def test_ground_truth_covers_every_concept(self):
        truth = eon_ground_truth()
        # The reference ontology names every canonical concept.
        canonical = {c for (ontology, _), c in truth.items() if ontology == "ref101"}
        assert len(canonical) == 30
        for ontology in eon_ontologies():
            for concept in ontology.concept_names:
                assert (ontology.name, concept) in truth
                assert truth[(ontology.name, concept)] in canonical

    def test_french_ontology_uses_french_labels(self):
        by_name = {o.name: o for o in eon_ontologies()}
        assert by_name["fr221"].has_concept("Auteur")
        assert by_name["fr221"].language == "fr"


class TestEONScenario:
    def test_scale_matches_paper_order_of_magnitude(self, eon):
        """Paper: 396 generated mappings, 86 erroneous.  The synthetic set
        lands in the same ballpark."""
        assert 30 == len(eon.alignments)
        assert 300 <= eon.correspondence_count <= 500
        assert 40 <= eon.erroneous_count <= 120
        assert 0.08 <= eon.error_rate <= 0.30

    def test_network_has_six_peers_and_thirty_mappings(self, eon):
        assert len(eon.network) == 6
        assert len(eon.network.mappings) == 30

    def test_ground_truth_consistent_with_mappings(self, eon):
        for mapping in eon.network.mappings:
            for correspondence in mapping.correspondences:
                key = (mapping.name, correspondence.source_attribute)
                assert key in eon.ground_truth
                assert eon.ground_truth[key] == (correspondence.is_correct is not False)

    def test_known_faux_ami_error_present(self, eon):
        """The French Editeur (= publisher) gets matched to the English
        Editor — the classic confusable the detector should later flag."""
        mapping = eon.network.mapping("ref101->fr221")
        assert mapping.apply("Editor") == "Editeur"
        assert eon.is_correct("ref101->fr221", "Editor") is False

    def test_is_correct_for_unknown_pair_is_none(self, eon):
        assert eon.is_correct("ref101->fr221", "NotAConcept") is None

    def test_network_contains_cycles_for_feedback(self, eon):
        from repro.pdms.probing import find_cycles_through

        cycles = find_cycles_through(eon.network.snapshot(), "ref101", ttl=3)
        assert len(cycles) >= 5
