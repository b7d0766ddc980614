"""Unit tests for repro.factorgraph.variables."""

import pytest

from repro.exceptions import VariableDomainError
from repro.factorgraph.variables import (
    BINARY_DOMAIN,
    CORRECT,
    INCORRECT,
    BinaryVariable,
    DiscreteVariable,
)


class TestDiscreteVariable:
    def test_default_domain_is_binary(self):
        variable = DiscreteVariable("m1")
        assert variable.domain == BINARY_DOMAIN
        assert variable.cardinality == 2

    def test_custom_domain(self):
        variable = DiscreteVariable("color", domain=("red", "green", "blue"))
        assert variable.cardinality == 3
        assert variable.index_of("green") == 1

    def test_index_of_correct_is_zero(self):
        variable = DiscreteVariable("m")
        assert variable.index_of(CORRECT) == 0
        assert variable.index_of(INCORRECT) == 1

    def test_unknown_state_raises(self):
        variable = DiscreteVariable("m")
        with pytest.raises(VariableDomainError):
            variable.index_of("maybe")

    def test_empty_name_rejected(self):
        with pytest.raises(VariableDomainError):
            DiscreteVariable("")

    def test_single_state_domain_rejected(self):
        with pytest.raises(VariableDomainError):
            DiscreteVariable("m", domain=("only",))

    def test_duplicate_states_rejected(self):
        with pytest.raises(VariableDomainError):
            DiscreteVariable("m", domain=("a", "a"))

    def test_variables_are_hashable_and_equal_by_value(self):
        assert DiscreteVariable("m") == DiscreteVariable("m")
        assert hash(DiscreteVariable("m")) == hash(DiscreteVariable("m"))
        assert DiscreteVariable("m") != DiscreteVariable("n")


class TestBinaryVariable:
    def test_is_discrete_variable_with_binary_domain(self):
        variable = BinaryVariable("m[p1->p2]@Creator")
        assert isinstance(variable, DiscreteVariable)
        assert variable.domain == (CORRECT, INCORRECT)

    def test_name_preserved(self):
        assert BinaryVariable("x").name == "x"
