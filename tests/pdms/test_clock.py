"""Unit tests for the dynamic vector clock."""

import pickle

import pytest

from repro.exceptions import PDMSError
from repro.pdms.clock import VectorClock


class TestConstruction:
    def test_empty_clock(self):
        clock = VectorClock()
        assert clock.entries == ()
        assert clock.counter("anyone") == 0
        assert clock.total() == 0
        assert clock.peer_names == ()

    def test_of_normalises_to_canonical_order(self):
        clock = VectorClock.of({"b": 2, "a": 1})
        assert clock.entries == (("a", 1), ("b", 2))
        assert clock == VectorClock.of({"a": 1, "b": 2})

    def test_of_drops_zero_counters(self):
        assert VectorClock.of({"a": 0}) == VectorClock()

    def test_rejects_negative_counters(self):
        with pytest.raises(PDMSError):
            VectorClock.of({"a": -1})

    def test_rejects_unsorted_raw_entries(self):
        with pytest.raises(PDMSError):
            VectorClock(entries=(("b", 1), ("a", 1)))


class TestIncrementAndMerge:
    def test_increment_grows_dynamically(self):
        clock = VectorClock().increment("a")
        assert clock.counter("a") == 1
        clock = clock.increment("b").increment("a")
        assert clock.as_dict() == {"a": 2, "b": 1}
        assert clock.total() == 3

    def test_increment_is_pure(self):
        base = VectorClock.of({"a": 1})
        base.increment("a")
        assert base.counter("a") == 1

    def test_merge_takes_componentwise_max(self):
        left = VectorClock.of({"a": 3, "b": 1})
        right = VectorClock.of({"b": 2, "c": 5})
        merged = left.merge(right)
        assert merged.as_dict() == {"a": 3, "b": 2, "c": 5}
        assert merged == right.merge(left)

    def test_merge_with_empty_is_identity(self):
        clock = VectorClock.of({"a": 2})
        assert clock.merge(VectorClock()) == clock
        assert VectorClock().merge(clock) == clock


class TestOrdering:
    def test_dominates_is_reflexive(self):
        clock = VectorClock.of({"a": 1, "b": 2})
        assert clock.dominates(clock)

    def test_dominates_strict_happens_before(self):
        earlier = VectorClock.of({"a": 1})
        later = earlier.increment("a").increment("b")
        assert later.dominates(earlier)
        assert not earlier.dominates(later)

    def test_concurrent_clocks(self):
        left = VectorClock.of({"a": 1})
        right = VectorClock.of({"b": 1})
        assert left.concurrent_with(right)
        assert right.concurrent_with(left)
        assert not left.concurrent_with(left)

    def test_cause_has_strictly_smaller_total(self):
        # The Lamport-sum linearization property the canonical gossip
        # order relies on: an effect's clock sums strictly above its
        # cause's.
        cause = VectorClock.of({"a": 2, "b": 1})
        effect = cause.increment("c")
        assert effect.total() > cause.total()


class TestWire:
    def test_pickle_round_trip(self):
        clock = VectorClock.of({"a": 3, "b": 1})
        assert pickle.loads(pickle.dumps(clock)) == clock

    def test_unpickled_clock_answers_reads_identically(self):
        clock = VectorClock.of({"a": 3, "b": 1, "c": 7})
        clone = pickle.loads(pickle.dumps(clock))
        for peer in ("a", "b", "c", "unknown"):
            assert clone.counter(peer) == clock.counter(peer)
        assert clone.total() == clock.total() == 11
        assert clone.as_dict() == clock.as_dict()
        assert hash(clone) == hash(clock)

    def test_hashable(self):
        assert len({VectorClock.of({"a": 1}), VectorClock.of({"a": 1})}) == 1
