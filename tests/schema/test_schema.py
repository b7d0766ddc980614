"""Unit tests for repro.schema.schema."""

import pytest

from repro.exceptions import SchemaError, UnknownAttributeError
from repro.schema.attribute import Attribute
from repro.schema.schema import DataModel, Schema


@pytest.fixture
def art_schema():
    return Schema("p2", attributes=["Creator", "Title", "Subject"])


class TestConstruction:
    def test_attributes_from_strings(self, art_schema):
        assert art_schema.attribute_names == ("Creator", "Title", "Subject")

    def test_attributes_from_objects(self):
        schema = Schema("s", attributes=[Attribute("A"), Attribute("B")])
        assert schema.attribute_names == ("A", "B")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema("s", attributes=["A", "A"])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Schema("")

    def test_default_data_model_is_xml(self, art_schema):
        assert art_schema.data_model is DataModel.XML

    def test_from_names_builder(self):
        schema = Schema.from_names("s", ["A", "B"], data_model=DataModel.RELATIONAL)
        assert schema.data_model is DataModel.RELATIONAL
        assert len(schema) == 2


class TestLookups:
    def test_attribute_lookup(self, art_schema):
        assert art_schema.attribute("Creator").name == "Creator"

    def test_unknown_attribute_raises(self, art_schema):
        with pytest.raises(UnknownAttributeError):
            art_schema.attribute("Nope")

    def test_contains_and_has_attribute(self, art_schema):
        assert "Creator" in art_schema
        assert art_schema.has_attribute("Title")
        assert "Nope" not in art_schema
        assert 42 not in art_schema

    def test_len_and_iter(self, art_schema):
        assert len(art_schema) == 3
        assert [a.name for a in art_schema] == ["Creator", "Title", "Subject"]


class TestEqualityAndCopies:
    def test_equality_by_value(self):
        assert Schema("s", ["A"]) == Schema("s", ["A"])
        assert Schema("s", ["A"]) != Schema("s", ["B"])
        assert Schema("s", ["A"]) != Schema("t", ["A"])

    def test_hashable(self):
        assert len({Schema("s", ["A"]), Schema("s", ["A"])}) == 1

    def test_rename_keeps_attributes(self, art_schema):
        renamed = art_schema.rename("p9")
        assert renamed.name == "p9"
        assert renamed.attribute_names == art_schema.attribute_names

    def test_add_attribute_after_construction(self, art_schema):
        art_schema.add_attribute("CreatedOn")
        assert art_schema.has_attribute("CreatedOn")
