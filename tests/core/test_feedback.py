"""Unit tests for the feedback model and its factor encoding."""

import itertools

import numpy as np
import pytest

from repro.core.feedback import (
    Feedback,
    FeedbackKind,
    StructureKind,
    compensation_probability,
    feedback_factor,
    feedback_from_cycle,
    feedback_from_parallel_paths,
    mapping_owner,
    positive_feedback_probability,
    variable_name_for,
)
from repro.exceptions import FeedbackError, PDMSError
from repro.factorgraph.variables import CORRECT, INCORRECT, BinaryVariable
from repro.mapping.mapping import Mapping
from repro.pdms.probing import MappingCycle, ParallelPaths


def make_feedback(kind=FeedbackKind.POSITIVE, names=("p1->p2", "p2->p3", "p3->p1")):
    return Feedback(
        identifier="f1",
        kind=kind,
        structure=StructureKind.CYCLE,
        mapping_names=names,
        attribute="Creator",
    )


class TestCompensationProbability:
    def test_eleven_attributes_gives_one_tenth(self):
        assert compensation_probability(11) == pytest.approx(0.1)

    def test_two_attributes_gives_one(self):
        assert compensation_probability(2) == pytest.approx(1.0)

    def test_fewer_than_two_rejected(self):
        with pytest.raises(FeedbackError):
            compensation_probability(1)


class TestPositiveFeedbackProbability:
    def test_paper_cpt(self):
        assert positive_feedback_probability(0, 0.1) == 1.0
        assert positive_feedback_probability(1, 0.1) == 0.0
        assert positive_feedback_probability(2, 0.1) == 0.1
        assert positive_feedback_probability(5, 0.1) == 0.1

    def test_negative_count_rejected(self):
        with pytest.raises(FeedbackError):
            positive_feedback_probability(-1, 0.1)


class TestFeedback:
    def test_needs_at_least_two_mappings(self):
        with pytest.raises(FeedbackError):
            make_feedback(names=("p1->p2",))

    def test_duplicate_mappings_rejected(self):
        with pytest.raises(FeedbackError):
            make_feedback(names=("p1->p2", "p1->p2"))

    def test_informative_flags(self):
        assert make_feedback(FeedbackKind.POSITIVE).is_informative
        assert make_feedback(FeedbackKind.NEGATIVE).is_informative
        assert not make_feedback(FeedbackKind.NEUTRAL).is_informative

    def test_variable_names_follow_convention(self):
        feedback = make_feedback()
        assert feedback.variable_names() == (
            "m[p1->p2]@Creator",
            "m[p2->p3]@Creator",
            "m[p3->p1]@Creator",
        )

    def test_size(self):
        assert make_feedback().size == 3


class TestMappingNames:
    def test_owner_is_source_peer(self):
        assert mapping_owner("p2->p3") == "p2"
        assert mapping_owner("ref101->fr221") == "ref101"

    def test_malformed_name_rejected(self):
        with pytest.raises(PDMSError):
            mapping_owner("not-a-mapping")

    def test_names_parse_back_to_their_owner(self):
        # Endpoints cannot contain the name delimiters, so the first "->"
        # always ends the source, even when a label contains one.
        for mapping in (Mapping("a", "b"), Mapping("a", "b", label="x->y")):
            assert mapping_owner(mapping.name) == "a"

    def test_variable_name_format(self):
        assert variable_name_for("p2->p3", "Creator") == "m[p2->p3]@Creator"
        assert variable_name_for("p2->p3#alt", "Creator") == "m[p2->p3#alt]@Creator"


class TestFeedbackFactor:
    def test_positive_factor_values_match_cpt(self):
        feedback = make_feedback(FeedbackKind.POSITIVE)
        factor = feedback_factor(feedback, delta=0.1)
        all_correct = {name: CORRECT for name in feedback.variable_names()}
        assert factor.value(all_correct) == pytest.approx(1.0)
        one_wrong = dict(all_correct)
        one_wrong[feedback.variable_names()[0]] = INCORRECT
        assert factor.value(one_wrong) == pytest.approx(0.0)
        two_wrong = dict(one_wrong)
        two_wrong[feedback.variable_names()[1]] = INCORRECT
        assert factor.value(two_wrong) == pytest.approx(0.1)

    def test_negative_factor_is_complement(self):
        feedback = make_feedback(FeedbackKind.NEGATIVE)
        factor = feedback_factor(feedback, delta=0.1)
        names = feedback.variable_names()
        all_correct = {name: CORRECT for name in names}
        assert factor.value(all_correct) == pytest.approx(0.0)
        one_wrong = dict(all_correct, **{names[0]: INCORRECT})
        assert factor.value(one_wrong) == pytest.approx(1.0)
        two_wrong = dict(one_wrong, **{names[1]: INCORRECT})
        assert factor.value(two_wrong) == pytest.approx(0.9)

    def test_neutral_feedback_has_no_factor(self):
        with pytest.raises(FeedbackError):
            feedback_factor(make_feedback(FeedbackKind.NEUTRAL), delta=0.1)

    def test_invalid_delta_rejected(self):
        with pytest.raises(FeedbackError):
            feedback_factor(make_feedback(), delta=1.5)

    def test_supplied_variables_must_match(self):
        feedback = make_feedback()
        wrong_variables = [BinaryVariable("a"), BinaryVariable("b"), BinaryVariable("c")]
        with pytest.raises(FeedbackError):
            feedback_factor(feedback, 0.1, wrong_variables)

    def test_factor_table_is_exhaustive(self):
        feedback = make_feedback()
        factor = feedback_factor(feedback, delta=0.2)
        total_assignments = 0
        for states in itertools.product((CORRECT, INCORRECT), repeat=3):
            assignment = dict(zip(feedback.variable_names(), states))
            value = factor.value(assignment)
            assert 0.0 <= value <= 1.0
            total_assignments += 1
        assert total_assignments == 8


class TestFeedbackFromStructures:
    def test_feedback_from_correct_cycle_is_positive(self):
        mappings = (
            Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}),
            Mapping.from_pairs("p2", "p1", {"Creator": "Creator"}),
        )
        cycle = MappingCycle(origin="p1", mappings=mappings)
        feedback = feedback_from_cycle(cycle, "Creator")
        assert feedback.kind is FeedbackKind.POSITIVE
        assert feedback.structure is StructureKind.CYCLE
        assert feedback.origin == "p1"

    def test_feedback_from_faulty_cycle_is_negative(self):
        mappings = (
            Mapping.from_pairs("p1", "p2", {"Creator": "Title", "Title": "Title"}),
            Mapping.from_pairs("p2", "p1", {"Creator": "Creator", "Title": "Title"}),
        )
        cycle = MappingCycle(origin="p1", mappings=mappings)
        assert feedback_from_cycle(cycle, "Creator").kind is FeedbackKind.NEGATIVE

    def test_feedback_from_partial_cycle_is_neutral(self):
        mappings = (
            Mapping.from_pairs("p1", "p2", {"Title": "Title"}),
            Mapping.from_pairs("p2", "p1", {"Title": "Title"}),
        )
        cycle = MappingCycle(origin="p1", mappings=mappings)
        assert feedback_from_cycle(cycle, "Creator").kind is FeedbackKind.NEUTRAL

    def test_feedback_from_parallel_paths(self):
        first = (Mapping.from_pairs("p1", "p3", {"Creator": "Creator"}),)
        second = (
            Mapping.from_pairs("p1", "p2", {"Creator": "Creator"}),
            Mapping.from_pairs("p2", "p3", {"Creator": "Creator"}),
        )
        paths = ParallelPaths(source="p1", target="p3", first=first, second=second)
        feedback = feedback_from_parallel_paths(paths, "Creator")
        assert feedback.kind is FeedbackKind.POSITIVE
        assert feedback.structure is StructureKind.PARALLEL_PATHS
        assert len(feedback.mapping_names) == 3
