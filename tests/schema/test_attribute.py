"""Unit tests for repro.schema.attribute."""

import pytest

from repro.exceptions import SchemaError
from repro.schema.attribute import Attribute, AttributeType, tokenize_identifier


class TestAttribute:
    def test_default_path_derived_from_name(self):
        assert Attribute("Creator").path == "/Creator"

    def test_explicit_path_kept(self):
        attribute = Attribute("Creator", path="/Photoshop_Image/Creator")
        assert attribute.path == "/Photoshop_Image/Creator"

    def test_path_must_start_with_slash(self):
        with pytest.raises(SchemaError):
            Attribute("Creator", path="Creator")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")
        with pytest.raises(SchemaError):
            Attribute("   ")

    def test_default_data_type_is_string(self):
        assert Attribute("Creator").data_type is AttributeType.STRING

    def test_attributes_are_frozen_value_objects(self):
        assert Attribute("Creator") == Attribute("Creator")
        with pytest.raises(AttributeError):
            Attribute("Creator").name = "Other"


class TestTokenizeIdentifier:
    @pytest.mark.parametrize(
        "identifier, expected",
        [
            ("createdOn", ("created", "on")),
            ("CreatedOn", ("created", "on")),
            ("display_name", ("display", "name")),
            ("display-name", ("display", "name")),
            ("Author.DisplayName", ("author", "display", "name")),
            ("ISBN", ("isbn",)),
            ("", ()),
            ("title", ("title",)),
            ("hasTitle2", ("has", "title2")),
        ],
    )
    def test_tokenization(self, identifier, expected):
        assert tokenize_identifier(identifier) == expected

    def test_tokens_are_lowercase(self):
        assert all(t == t.lower() for t in tokenize_identifier("PublisherAddress"))
