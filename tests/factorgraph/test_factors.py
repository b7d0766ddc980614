"""Unit tests for repro.factorgraph.factors."""

import numpy as np
import pytest

from repro.exceptions import FactorShapeError, VariableDomainError
from repro.factorgraph.factors import Factor, prior_factor
from repro.factorgraph.variables import CORRECT, INCORRECT, BinaryVariable


@pytest.fixture
def two_variables():
    return BinaryVariable("a"), BinaryVariable("b")


class TestFactorConstruction:
    def test_table_shape_must_match_variables(self, two_variables):
        a, b = two_variables
        with pytest.raises(FactorShapeError):
            Factor("f", (a, b), np.ones((2, 3)))

    def test_negative_entries_rejected(self, two_variables):
        a, b = two_variables
        table = np.ones((2, 2))
        table[0, 0] = -0.1
        with pytest.raises(FactorShapeError):
            Factor("f", (a, b), table)

    def test_all_zero_table_rejected(self, two_variables):
        a, b = two_variables
        with pytest.raises(FactorShapeError):
            Factor("f", (a, b), np.zeros((2, 2)))

    def test_duplicate_variable_rejected(self):
        a = BinaryVariable("a")
        with pytest.raises(FactorShapeError):
            Factor("f", (a, a), np.ones((2, 2)))

    def test_empty_name_rejected(self, two_variables):
        a, b = two_variables
        with pytest.raises(FactorShapeError):
            Factor("", (a, b), np.ones((2, 2)))

    def test_arity_and_variable_names(self, two_variables):
        a, b = two_variables
        factor = Factor("f", (a, b), np.ones((2, 2)))
        assert factor.arity == 2
        assert factor.variable_names == ("a", "b")


class TestFactorEvaluation:
    def test_value_reads_table_entry(self, two_variables):
        a, b = two_variables
        table = np.array([[0.1, 0.2], [0.3, 0.4]])
        factor = Factor("f", (a, b), table)
        assert factor.value({"a": CORRECT, "b": CORRECT}) == pytest.approx(0.1)
        assert factor.value({"a": INCORRECT, "b": CORRECT}) == pytest.approx(0.3)
        assert factor.value({"a": INCORRECT, "b": INCORRECT}) == pytest.approx(0.4)

    def test_value_requires_all_variables(self, two_variables):
        a, b = two_variables
        factor = Factor("f", (a, b), np.ones((2, 2)))
        with pytest.raises(VariableDomainError):
            factor.value({"a": CORRECT})

    def test_assignments_enumerates_joint_domain(self, two_variables):
        a, b = two_variables
        factor = Factor("f", (a, b), np.ones((2, 2)))
        assignments = list(factor.assignments())
        assert len(assignments) == 4
        assert {"a": CORRECT, "b": INCORRECT} in assignments

    def test_axis_of_unknown_variable_raises(self, two_variables):
        a, b = two_variables
        factor = Factor("f", (a, b), np.ones((2, 2)))
        with pytest.raises(VariableDomainError):
            factor.axis_of("c")


class TestMessageTo:
    def test_message_without_incoming_sums_table(self, two_variables):
        a, b = two_variables
        table = np.array([[0.1, 0.2], [0.3, 0.4]])
        factor = Factor("f", (a, b), table)
        message = factor.message_to("a", {})
        assert message == pytest.approx([0.3, 0.7])

    def test_message_weights_by_incoming(self, two_variables):
        a, b = two_variables
        table = np.array([[0.1, 0.2], [0.3, 0.4]])
        factor = Factor("f", (a, b), table)
        message = factor.message_to("a", {"b": np.array([1.0, 0.0])})
        assert message == pytest.approx([0.1, 0.3])

    def test_message_shape_mismatch_raises(self, two_variables):
        a, b = two_variables
        factor = Factor("f", (a, b), np.ones((2, 2)))
        with pytest.raises(FactorShapeError):
            factor.message_to("a", {"b": np.array([1.0, 0.0, 0.0])})

    def test_unary_factor_message_is_table(self):
        a = BinaryVariable("a")
        factor = Factor("f", (a,), np.array([0.7, 0.3]))
        assert factor.message_to("a", {}) == pytest.approx([0.7, 0.3])

    def test_unknown_incoming_key_raises(self, two_variables):
        """Regression: a misspelled mapping name used to be silently treated
        as a unit message instead of failing loudly."""
        a, b = two_variables
        factor = Factor("f", (a, b), np.ones((2, 2)))
        with pytest.raises(VariableDomainError, match="unknown"):
            factor.message_to("a", {"B": np.array([1.0, 0.0])})

    def test_target_variable_in_incoming_is_ignored(self, two_variables):
        """The target's own message is legal input (it spans the factor) and
        must not affect the outgoing message."""
        a, b = two_variables
        table = np.array([[0.1, 0.2], [0.3, 0.4]])
        factor = Factor("f", (a, b), table)
        with_target = factor.message_to(
            "a", {"a": np.array([0.0, 1.0]), "b": np.array([1.0, 0.0])}
        )
        without_target = factor.message_to("a", {"b": np.array([1.0, 0.0])})
        assert with_target == pytest.approx(without_target)


class TestFactorBuilders:
    def test_prior_factor_values(self):
        a = BinaryVariable("a")
        factor = prior_factor(a, 0.7)
        assert factor.table == pytest.approx([0.7, 0.3])

    def test_prior_factor_epsilon_guard(self):
        a = BinaryVariable("a")
        factor = prior_factor(a, 1.0)
        assert factor.table[1] > 0.0
        assert factor.table[0] == pytest.approx(1.0)

    def test_prior_factor_rejects_out_of_range(self):
        a = BinaryVariable("a")
        with pytest.raises(FactorShapeError):
            prior_factor(a, 1.5)
