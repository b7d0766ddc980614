"""Unit tests for repro.pdms.query."""

import pytest

from repro.exceptions import QueryError
from repro.pdms.query import Operation, OperationKind, Query, substring_predicate


class TestOperation:
    def test_projection(self):
        op = Operation(OperationKind.PROJECTION, "Creator")
        assert op.kind is OperationKind.PROJECTION
        assert op.predicate is None

    def test_selection_requires_predicate(self):
        with pytest.raises(QueryError):
            Operation(OperationKind.SELECTION, "Creator")

    def test_projection_must_not_carry_predicate(self):
        with pytest.raises(QueryError):
            Operation(OperationKind.PROJECTION, "Creator", predicate=lambda v: True)

    def test_empty_attribute_rejected(self):
        with pytest.raises(QueryError):
            Operation(OperationKind.PROJECTION, "")

    def test_renamed_keeps_kind_and_predicate(self):
        op = Operation(OperationKind.SELECTION, "Creator", predicate=lambda v: True)
        renamed = op.renamed("Author")
        assert renamed.attribute == "Author"
        assert renamed.kind is OperationKind.SELECTION
        assert renamed.predicate is op.predicate


class TestSubstringPredicate:
    def test_case_insensitive_match(self):
        predicate = substring_predicate("river")
        assert predicate("Starry night over the River Rhone")
        assert not predicate("Sunflowers")

    def test_non_string_values_coerced(self):
        assert substring_predicate("18")(1888)


class TestQuery:
    def test_requires_operations(self):
        with pytest.raises(QueryError):
            Query(schema_name="p2", operations=())

    def test_requires_schema(self):
        with pytest.raises(QueryError):
            Query(schema_name="", operations=(Operation(OperationKind.PROJECTION, "A"),))

    def test_attributes_deduplicated_in_order(self):
        query = Query.select_project(
            "p2", project=["Creator", "Title"], where={"Creator": lambda v: True}
        )
        assert query.attributes == ("Creator", "Title")

    def test_select_project_builder(self):
        query = Query.select_project(
            "p2",
            project=["Creator"],
            where={"Subject": substring_predicate("river")},
            where_descriptions={"Subject": "LIKE '%river%'"},
        )
        projection, selection = query.operations
        assert projection.kind is OperationKind.PROJECTION
        assert selection.kind is OperationKind.SELECTION
        assert selection.predicate_description == "LIKE '%river%'"

    def test_query_ids_are_unique(self):
        first = Query.select_project("p2", project=["A"])
        second = Query.select_project("p2", project=["A"])
        assert first.query_id != second.query_id

    def test_with_operations_preserves_id(self):
        query = Query.select_project("p2", project=["A"])
        rewritten = query.with_operations(
            [Operation(OperationKind.PROJECTION, "B")], schema_name="p3"
        )
        assert rewritten.query_id == query.query_id
        assert rewritten.schema_name == "p3"
        assert rewritten.attributes == ("B",)
