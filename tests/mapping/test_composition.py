"""Unit tests for mapping composition and round-trip outcomes."""

import pytest

from repro.exceptions import MappingCompositionError
from repro.mapping.composition import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    parallel_paths_outcome,
    round_trip_outcome,
    validate_chain,
)
from repro.mapping.mapping import Mapping


def identity(source, target, attributes=("Creator", "Title")):
    return Mapping.from_pairs(source, target, {a: a for a in attributes})


@pytest.fixture
def correct_cycle():
    return [identity("p1", "p2"), identity("p2", "p3"), identity("p3", "p1")]


@pytest.fixture
def faulty_cycle():
    faulty = Mapping.from_pairs("p2", "p3", {"Creator": "Title", "Title": "Title"})
    return [identity("p1", "p2"), faulty, identity("p3", "p1")]


class TestValidateChain:
    def test_valid_chain_passes(self, correct_cycle):
        validate_chain(correct_cycle)

    def test_broken_chain_rejected(self):
        with pytest.raises(MappingCompositionError):
            validate_chain([identity("p1", "p2"), identity("p3", "p4")])

    def test_empty_chain_rejected(self):
        with pytest.raises(MappingCompositionError):
            validate_chain([])


class TestRoundTripOutcome:
    def test_positive_for_correct_cycle(self, correct_cycle):
        assert round_trip_outcome(correct_cycle, "Creator") == POSITIVE

    def test_negative_for_faulty_cycle(self, faulty_cycle):
        assert round_trip_outcome(faulty_cycle, "Creator") == NEGATIVE

    def test_neutral_when_attribute_lost(self):
        partial = Mapping.from_pairs("p2", "p3", {"Title": "Title"})
        cycle = [identity("p1", "p2"), partial, identity("p3", "p1")]
        assert round_trip_outcome(cycle, "Creator") == NEUTRAL

    def test_compensating_errors_look_positive(self):
        """Two errors that cancel out produce (misleading) positive feedback —
        the Δ case of the paper's CPT."""
        swap_a = Mapping.from_pairs("p1", "p2", {"Creator": "Title", "Title": "Creator"})
        swap_b = Mapping.from_pairs("p2", "p3", {"Creator": "Title", "Title": "Creator"})
        cycle = [swap_a, swap_b, identity("p3", "p1")]
        assert round_trip_outcome(cycle, "Creator") == POSITIVE

    def test_non_cycle_rejected(self):
        with pytest.raises(MappingCompositionError):
            round_trip_outcome([identity("p1", "p2"), identity("p2", "p3")], "Creator")

    def test_broken_chain_rejected(self):
        chain = [identity("p1", "p2"), identity("p3", "p1")]
        with pytest.raises(MappingCompositionError, match="chain is broken"):
            round_trip_outcome(chain, "Creator")

    def test_empty_chain_rejected(self):
        with pytest.raises(MappingCompositionError, match="empty chain"):
            round_trip_outcome([], "Creator")


class TestParallelPathsOutcome:
    def test_positive_when_images_agree(self):
        first = [identity("p1", "p2"), identity("p2", "p4")]
        second = [identity("p1", "p4")]
        assert parallel_paths_outcome(first, second, "Creator") == POSITIVE

    def test_negative_when_images_differ(self):
        first = [identity("p1", "p2"), Mapping.from_pairs("p2", "p4", {"Creator": "Title", "Title": "Title"})]
        second = [identity("p1", "p4")]
        assert parallel_paths_outcome(first, second, "Creator") == NEGATIVE

    def test_neutral_when_one_path_loses_attribute(self):
        first = [Mapping.from_pairs("p1", "p4", {"Title": "Title"})]
        second = [identity("p1", "p4")]
        assert parallel_paths_outcome(first, second, "Creator") == NEUTRAL

    def test_mismatched_sources_rejected(self):
        with pytest.raises(MappingCompositionError):
            parallel_paths_outcome([identity("p1", "p4")], [identity("p2", "p4")], "Creator")

    def test_mismatched_destinations_rejected(self):
        with pytest.raises(MappingCompositionError):
            parallel_paths_outcome([identity("p1", "p4")], [identity("p1", "p3")], "Creator")

    @pytest.mark.parametrize("broken_first", [True, False])
    def test_broken_path_rejected(self, broken_first):
        broken = [identity("p1", "p2"), identity("p3", "p4")]
        intact = [identity("p1", "p4")]
        paths = (broken, intact) if broken_first else (intact, broken)
        with pytest.raises(MappingCompositionError, match="chain is broken"):
            parallel_paths_outcome(*paths, "Creator")

