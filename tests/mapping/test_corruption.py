"""Unit tests for mapping error injection."""

import random

import pytest

from repro.exceptions import GenerationError
from repro.mapping.corruption import corrupt_correspondence, corrupt_mapping
from repro.mapping.correspondence import Correspondence
from repro.mapping.mapping import Mapping
from repro.schema.schema import Schema


@pytest.fixture
def target_schema():
    return Schema("p3", ["Creator", "Title", "Subject", "CreatedOn"])


@pytest.fixture
def mapping():
    return Mapping.from_pairs(
        "p2",
        "p3",
        {"Creator": "Creator", "Title": "Title", "Subject": "Subject"},
        is_correct=True,
    )


def wrong_attributes(mapping):
    """Source attributes whose correspondence is labelled incorrect."""
    return [c.source_attribute for c in mapping if c.is_correct is False]


class TestCorruptCorrespondence:
    def test_changes_target_and_label(self, target_schema):
        c = Correspondence("Creator", "Creator", is_correct=True)
        corrupted = corrupt_correspondence(c, target_schema, random.Random(0))
        assert corrupted.target_attribute != "Creator"
        assert corrupted.is_correct is False
        assert corrupted.source_attribute == "Creator"

    def test_requires_alternative_target(self):
        c = Correspondence("A", "OnlyOne")
        schema = Schema("t", ["OnlyOne"])
        with pytest.raises(GenerationError):
            corrupt_correspondence(c, schema, random.Random(0))


class TestCorruptMapping:
    def test_explicit_attribute_selection(self, mapping, target_schema):
        corrupted, report = corrupt_mapping(
            mapping, target_schema, attributes=["Creator"], rng=random.Random(1)
        )
        assert report.corrupted_attributes == ("Creator",)
        assert corrupted.is_correct_for("Creator") is False
        assert corrupted.is_correct_for("Title") is True
        # original untouched
        assert mapping.is_correct_for("Creator") is True

    def test_error_rate_zero_corrupts_nothing(self, mapping, target_schema):
        corrupted, report = corrupt_mapping(mapping, target_schema, error_rate=0.0)
        assert report.corrupted_attributes == ()
        assert wrong_attributes(corrupted) == []

    def test_error_rate_one_corrupts_everything(self, mapping, target_schema):
        corrupted, report = corrupt_mapping(
            mapping, target_schema, error_rate=1.0, rng=random.Random(2)
        )
        assert len(report.corrupted_attributes) == 3
        assert set(wrong_attributes(corrupted)) == {"Creator", "Title", "Subject"}

    def test_unknown_attribute_selection_rejected(self, mapping, target_schema):
        with pytest.raises(GenerationError):
            corrupt_mapping(mapping, target_schema, attributes=["Nope"])

    def test_both_modes_rejected(self, mapping, target_schema):
        with pytest.raises(GenerationError):
            corrupt_mapping(mapping, target_schema, error_rate=0.5, attributes=["Creator"])

    def test_bad_error_rate_rejected(self, mapping, target_schema):
        with pytest.raises(GenerationError):
            corrupt_mapping(mapping, target_schema, error_rate=1.5)

    def test_deterministic_given_seed(self, mapping, target_schema):
        first, _ = corrupt_mapping(mapping, target_schema, error_rate=0.5, rng=random.Random(42))
        second, _ = corrupt_mapping(mapping, target_schema, error_rate=0.5, rng=random.Random(42))
        assert [(c.source_attribute, c.target_attribute) for c in first] == [
            (c.source_attribute, c.target_attribute) for c in second
        ]

