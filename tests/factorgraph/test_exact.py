"""Unit tests for exact inference by enumeration."""

import numpy as np
import pytest

from repro.exceptions import InferenceError
from repro.factorgraph.exact import exact_marginals
from repro.factorgraph.factors import Factor, prior_factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.variables import BinaryVariable


def independent_graph():
    graph = FactorGraph()
    a = graph.add_variable(BinaryVariable("a"))
    b = graph.add_variable(BinaryVariable("b"))
    graph.add_factor(prior_factor(a, 0.8))
    graph.add_factor(prior_factor(b, 0.3))
    return graph


class TestExactMarginals:
    def test_independent_variables_keep_their_priors(self):
        marginals = exact_marginals(independent_graph())
        assert marginals["a"][0] == pytest.approx(0.8, abs=1e-9)
        assert marginals["b"][0] == pytest.approx(0.3, abs=1e-9)

    def test_correlated_variables(self):
        graph = FactorGraph()
        a = graph.add_variable(BinaryVariable("a"))
        b = graph.add_variable(BinaryVariable("b"))
        graph.add_factor(prior_factor(a, 0.5))
        # b copies a exactly.
        graph.add_factor(Factor("copy", (a, b), np.array([[1.0, 0.0], [0.0, 1.0]])))
        graph.add_factor(prior_factor(b, 1.0))
        marginals = exact_marginals(graph)
        assert marginals["a"][0] == pytest.approx(1.0, abs=1e-6)

    def test_marginals_sum_to_one(self):
        marginals = exact_marginals(independent_graph())
        for vector in marginals.values():
            assert float(np.sum(vector)) == pytest.approx(1.0)

    def test_contradictory_evidence_raises(self):
        graph = FactorGraph()
        a = graph.add_variable(BinaryVariable("a"))
        graph.add_factor(Factor("yes", (a,), np.array([1.0, 0.0])))
        graph.add_factor(Factor("no", (a,), np.array([0.0, 1.0])))
        with pytest.raises(InferenceError):
            exact_marginals(graph)
