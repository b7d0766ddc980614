"""Unit tests for the ontology model."""

import pytest

from repro.alignment.ontology import Concept, Ontology
from repro.exceptions import AlignmentError
from repro.schema.schema import DataModel


class TestConcept:
    def test_label_defaults_to_name(self):
        concept = Concept("Author")
        assert concept.label == "Author"

    def test_all_labels_include_synonyms(self):
        concept = Concept("Author", label="author", synonyms=("Creator", "Writer"))
        assert set(concept.all_labels) == {"Author", "author", "Creator", "Writer"}

    def test_empty_name_rejected(self):
        with pytest.raises(AlignmentError):
            Concept("")


class TestOntology:
    def test_concepts_from_strings(self):
        ontology = Ontology("bib", concepts=["Author", "Title"])
        assert ontology.concept_names == ("Author", "Title")
        assert len(ontology) == 2

    def test_duplicate_concepts_rejected(self):
        with pytest.raises(AlignmentError):
            Ontology("bib", concepts=["Author", "Author"])

    def test_has_concept_and_iteration(self):
        ontology = Ontology("bib", concepts=["Author", "Title"])
        assert ontology.has_concept("Author")
        assert not ontology.has_concept("Nope")
        assert [c.name for c in ontology] == ["Author", "Title"]

    def test_to_schema_produces_rdf_schema(self):
        ontology = Ontology("bib", concepts=["Author", "Title"])
        schema = ontology.to_schema()
        assert schema.name == "bib"
        assert schema.data_model is DataModel.RDF
        assert schema.attribute_names == ("Author", "Title")

    def test_empty_name_rejected(self):
        with pytest.raises(AlignmentError):
            Ontology("")
