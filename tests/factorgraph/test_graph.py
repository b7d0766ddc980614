"""Unit tests for repro.factorgraph.graph."""

import numpy as np
import pytest

from repro.exceptions import FactorGraphError
from repro.factorgraph.factors import Factor, prior_factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.variables import BinaryVariable


def make_chain_graph():
    """x1 -- fA -- x2 -- fB -- x3 (a tree)."""
    graph = FactorGraph("chain")
    x1, x2, x3 = BinaryVariable("x1"), BinaryVariable("x2"), BinaryVariable("x3")
    for variable in (x1, x2, x3):
        graph.add_variable(variable)
    graph.add_factor(Factor("fA", (x1, x2), np.ones((2, 2))))
    graph.add_factor(Factor("fB", (x2, x3), np.ones((2, 2))))
    return graph


def make_loopy_graph():
    """Two factors both spanning (x1, x2) — a cycle in the bipartite graph."""
    graph = FactorGraph("loopy")
    x1, x2 = BinaryVariable("x1"), BinaryVariable("x2")
    graph.add_variable(x1)
    graph.add_variable(x2)
    graph.add_factor(Factor("fA", (x1, x2), np.ones((2, 2))))
    graph.add_factor(Factor("fB", (x1, x2), np.ones((2, 2))))
    return graph


class TestConstruction:
    def test_add_variable_idempotent_for_same_domain(self):
        graph = FactorGraph()
        graph.add_variable(BinaryVariable("x"))
        graph.add_variable(BinaryVariable("x"))
        assert len(graph.variables) == 1

    def test_add_variable_conflicting_domain_raises(self):
        from repro.factorgraph.variables import DiscreteVariable

        graph = FactorGraph()
        graph.add_variable(BinaryVariable("x"))
        with pytest.raises(FactorGraphError):
            graph.add_variable(DiscreteVariable("x", domain=("a", "b", "c")))

    def test_add_factor_requires_variables(self):
        graph = FactorGraph()
        x = BinaryVariable("x")
        with pytest.raises(FactorGraphError):
            graph.add_factor(prior_factor(x, 0.5))

    def test_duplicate_factor_name_rejected(self):
        graph = FactorGraph()
        x = graph.add_variable(BinaryVariable("x"))
        graph.add_factor(prior_factor(x, 0.5, name="p"))
        with pytest.raises(FactorGraphError):
            graph.add_factor(prior_factor(x, 0.6, name="p"))


class TestLookups:
    def test_variable_and_factor_lookup(self):
        graph = make_chain_graph()
        assert graph.variable("x1").name == "x1"
        assert graph.factor("fA").name == "fA"
        assert graph.has_variable("x2")
        assert not graph.has_variable("zzz")
        assert "fB" in graph.factor_names

    def test_unknown_lookups_raise(self):
        graph = make_chain_graph()
        with pytest.raises(FactorGraphError):
            graph.variable("nope")
        with pytest.raises(FactorGraphError):
            graph.factor("nope")
        with pytest.raises(FactorGraphError):
            graph.factors_of("nope")

    def test_factors_of_and_degree(self):
        graph = make_chain_graph()
        assert {f.name for f in graph.factors_of("x2")} == {"fA", "fB"}
        assert graph.degree("x2") == 2
        assert graph.degree("x1") == 1

    def test_factor_variables_keep_their_order(self):
        graph = make_chain_graph()
        assert graph.factor("fA").variable_names == ("x1", "x2")


class TestStructure:
    def test_chain_is_tree(self):
        assert make_chain_graph().is_tree()

    def test_loopy_graph_is_not_tree(self):
        assert not make_loopy_graph().is_tree()

    def test_empty_graph_is_tree(self):
        assert FactorGraph().is_tree()

    def test_edge_count(self):
        assert make_chain_graph().edge_count() == 4
        assert make_loopy_graph().edge_count() == 4

    def test_to_networkx_bipartite(self):
        nx_graph = make_chain_graph().to_networkx()
        kinds = {data["kind"] for _, data in nx_graph.nodes(data=True)}
        assert kinds == {"variable", "factor"}
        assert nx_graph.number_of_edges() == 4

    def test_validate_passes_on_consistent_graph(self):
        make_chain_graph().validate()

