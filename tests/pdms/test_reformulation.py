"""Unit tests for query reformulation through mappings."""

import pytest

from repro.exceptions import QueryError
from repro.mapping.mapping import Mapping
from repro.pdms.query import Query, substring_predicate
from repro.pdms.reformulation import reformulate


@pytest.fixture
def query():
    return Query.select_project(
        "p2",
        project=["Creator"],
        where={"Subject": substring_predicate("river")},
    )


class TestReformulate:
    def test_translates_attributes(self, query):
        mapping = Mapping.from_pairs(
            "p2", "p3", {"Creator": "Author", "Subject": "Topic"}
        )
        result = reformulate(query, mapping)
        assert result.lost == ()
        assert result.query.schema_name == "p3"
        assert result.query.attributes == ("Author", "Topic")
        assert result.translated == {"Creator": "Author", "Subject": "Topic"}

    def test_keeps_query_id(self, query):
        mapping = Mapping.from_pairs("p2", "p3", {"Creator": "Author", "Subject": "Topic"})
        assert reformulate(query, mapping).query.query_id == query.query_id

    def test_drops_untranslatable_operations(self, query):
        mapping = Mapping.from_pairs("p2", "p3", {"Creator": "Author"})
        result = reformulate(query, mapping)
        assert result.lost == ("Subject",)
        assert result.query.attributes == ("Author",)

    def test_returns_none_query_when_nothing_translates(self, query):
        mapping = Mapping.from_pairs("p2", "p3", {"Title": "Title"})
        result = reformulate(query, mapping)
        assert result.query is None
        assert set(result.lost) == {"Creator", "Subject"}

    def test_schema_mismatch_rejected(self, query):
        mapping = Mapping.from_pairs("p9", "p3", {"Creator": "Author"})
        with pytest.raises(QueryError):
            reformulate(query, mapping)

