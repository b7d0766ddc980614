"""Unit tests for repro.schema.instances."""

import pytest

from repro.exceptions import UnknownAttributeError
from repro.schema.instances import InstanceStore, Record
from repro.schema.schema import Schema


@pytest.fixture
def store():
    schema = Schema("art", attributes=["Creator", "Title", "Subject"])
    store = InstanceStore(schema)
    store.insert({"Creator": "Monet", "Title": "Morning", "Subject": "river Seine"})
    store.insert({"Creator": "Turner", "Title": "Rain", "Subject": "speed"})
    store.insert({"Creator": "Hokusai", "Subject": "the great wave"})
    return store


class TestInsertion:
    def test_insert_validates_attributes(self, store):
        with pytest.raises(UnknownAttributeError):
            store.insert({"Painter": "X"})

    def test_insert_many_returns_count(self):
        schema = Schema("s", ["A"])
        store = InstanceStore(schema)
        assert store.insert_many([{"A": 1}, {"A": 2}]) == 2
        assert len(store) == 2

    def test_insert_record_object(self, store):
        record = Record(schema_name="other", values={"Creator": "Degas"})
        stored = store.insert(record)
        assert stored.schema_name == "art"
        assert stored.get("Creator") == "Degas"

    def test_len_and_iter(self, store):
        assert len(store) == 3
        assert len(list(store)) == 3


class TestQueryPrimitives:
    def test_project(self, store):
        projected = store.project(["Creator"])
        assert all(set(record.values) <= {"Creator"} for record in projected)
        assert len(projected) == 3

    def test_project_unknown_attribute_raises(self, store):
        with pytest.raises(UnknownAttributeError):
            store.project(["Painter"])

    def test_scan_returns_all(self, store):
        assert len(store.scan()) == 3


class TestRecord:
    def test_get_missing_returns_none(self):
        record = Record("s", {"A": 1})
        assert record.get("B") is None

    def test_project(self):
        record = Record("s", {"A": 1, "B": 2})
        assert record.project(["A"]).values == {"A": 1}

