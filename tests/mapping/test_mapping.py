"""Unit tests for repro.mapping.mapping."""

import pytest

from repro.exceptions import MappingError
from repro.mapping.correspondence import Correspondence
from repro.mapping.mapping import Mapping, MappingIdentifier


@pytest.fixture
def mapping():
    return Mapping.from_pairs(
        "p2", "p3", {"Creator": "Creator", "Title": "Name"}, is_correct=True
    )


class TestIdentity:
    def test_name_format(self, mapping):
        assert mapping.name == "p2->p3"
        assert mapping.source == "p2"
        assert mapping.target == "p3"

    def test_label_in_name(self):
        labelled = Mapping("p2", "p3", label="alt")
        assert labelled.name == "p2->p3#alt"

    @pytest.mark.parametrize("label, name", [("", "p2->p3"), ("alt", "p2->p3#alt")])
    def test_name_is_built_once(self, label, name):
        mapping = Mapping("p2", "p3", label=label)
        assert mapping.name is mapping.name
        assert mapping.name == str(mapping.identifier) == name
        assert mapping.with_correspondence(Correspondence("A", "B")).name == name

    def test_identifier_ordering(self):
        assert MappingIdentifier("a", "b") < MappingIdentifier("b", "a")

    def test_same_endpoints_rejected(self):
        with pytest.raises(MappingError):
            Mapping("p1", "p1")

    def test_empty_endpoints_rejected(self):
        with pytest.raises(MappingError):
            Mapping("", "p2")

    @pytest.mark.parametrize(
        "source, target",
        [("a", "b->c"), ("a->b", "c"), ("a", "b#x"), ("a#x", "b")],
    )
    def test_name_delimiters_in_endpoints_rejected(self, source, target):
        # ("a", "b->c") and ("a->b", "c") would share the name a->b->c, and
        # ("a", "b#x") the name of ("a", "b", label="x").
        with pytest.raises(MappingError, match="delimiters"):
            Mapping(source, target)


class TestCorrespondences:
    def test_apply_returns_target_attribute(self, mapping):
        assert mapping.apply("Creator") == "Creator"
        assert mapping.apply("Title") == "Name"

    def test_apply_missing_returns_none(self, mapping):
        assert mapping.apply("Subject") is None

    def test_maps_attribute(self, mapping):
        assert mapping.maps_attribute("Creator")
        assert not mapping.maps_attribute("Subject")

    def test_duplicate_source_attribute_rejected(self, mapping):
        with pytest.raises(MappingError):
            mapping.add(Correspondence("Creator", "Painter"))

    def test_len_and_iter(self, mapping):
        assert len(mapping) == 2
        assert {c.source_attribute for c in mapping} == {"Creator", "Title"}

    def test_correspondence_for(self, mapping):
        assert mapping.correspondence_for("Title").target_attribute == "Name"
        assert mapping.correspondence_for("Nope") is None

    def test_source_attributes(self, mapping):
        assert mapping.source_attributes == ("Creator", "Title")


class TestGroundTruthHelpers:
    def test_is_correct_for(self, mapping):
        assert mapping.is_correct_for("Creator") is True
        assert mapping.is_correct_for("Missing") is None

    def test_is_correct_for_reads_each_label(self):
        m = Mapping(
            "a",
            "b",
            correspondences=[
                Correspondence("X", "X", is_correct=True),
                Correspondence("Y", "Z", is_correct=False),
            ],
        )
        assert m.is_correct_for("X") is True
        assert m.is_correct_for("Y") is False


class TestReversal:
    def test_reversed_swaps_endpoints_and_correspondences(self, mapping):
        reversed_mapping = mapping.reversed()
        assert reversed_mapping.source == "p3"
        assert reversed_mapping.target == "p2"
        assert reversed_mapping.apply("Name") == "Title"

    def test_from_pairs_accepts_tuples(self):
        m = Mapping.from_pairs("a", "b", [("X", "Y")])
        assert m.apply("X") == "Y"
