"""Unit tests for the loopy sum–product engine."""

import numpy as np
import pytest

from repro import constants
from repro.exceptions import ConvergenceError, FactorGraphError
from repro.factorgraph.exact import exact_marginals
from repro.factorgraph.factors import Factor, prior_factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.sum_product import (
    SumProduct,
    SumProductOptions,
    SumProductResult,
    run_sum_product,
)
from repro.factorgraph.variables import CORRECT, INCORRECT, BinaryVariable, DiscreteVariable


def single_variable_graph(prior=0.7):
    graph = FactorGraph("single")
    x = graph.add_variable(BinaryVariable("x"))
    graph.add_factor(prior_factor(x, prior))
    return graph


def tree_graph():
    """Prior on x1 plus a correlation factor linking x1 and x2."""
    graph = FactorGraph("tree")
    x1 = graph.add_variable(BinaryVariable("x1"))
    x2 = graph.add_variable(BinaryVariable("x2"))
    graph.add_factor(prior_factor(x1, 0.9))
    # x2 strongly follows x1.
    graph.add_factor(Factor("link", (x1, x2), np.array([[0.9, 0.1], [0.1, 0.9]])))
    return graph


def loopy_graph():
    """Three variables pairwise linked — one loop."""
    graph = FactorGraph("loop")
    a = graph.add_variable(BinaryVariable("a"))
    b = graph.add_variable(BinaryVariable("b"))
    c = graph.add_variable(BinaryVariable("c"))
    agree = np.array([[0.8, 0.2], [0.2, 0.8]])
    graph.add_factor(prior_factor(a, 0.7))
    graph.add_factor(Factor("ab", (a, b), agree))
    graph.add_factor(Factor("bc", (b, c), agree))
    graph.add_factor(Factor("ca", (c, a), agree))
    return graph


class TestOptionsValidation:
    def test_bad_max_iterations(self):
        with pytest.raises(FactorGraphError):
            SumProductOptions(max_iterations=0)

    def test_bad_damping(self):
        with pytest.raises(FactorGraphError):
            SumProductOptions(damping=1.0)

    def test_bad_send_probability(self):
        with pytest.raises(FactorGraphError):
            SumProductOptions(send_probability=0.0)

    def test_bad_tolerance(self):
        with pytest.raises(FactorGraphError):
            SumProductOptions(tolerance=0.0)


class TestExactnessOnTrees:
    def test_single_variable_marginal_equals_prior(self):
        result = run_sum_product(single_variable_graph(0.7))
        assert result.probability_correct("x") == pytest.approx(0.7, abs=1e-6)

    def test_tree_matches_exact_inference(self):
        graph = tree_graph()
        result = run_sum_product(graph)
        exact = exact_marginals(graph)
        for name, marginal in exact.items():
            assert result.marginals[name] == pytest.approx(marginal, abs=1e-6)

    def test_tree_converges_quickly(self):
        result = run_sum_product(tree_graph())
        assert result.converged
        assert result.iterations <= 5


class TestLoopyBehaviour:
    def test_loopy_graph_converges(self):
        result = run_sum_product(loopy_graph(), max_iterations=200)
        assert result.converged

    def test_loopy_result_close_to_exact(self):
        graph = loopy_graph()
        result = run_sum_product(graph, max_iterations=200)
        exact = exact_marginals(graph)
        for name in exact:
            assert abs(result.probability_correct(name) - float(exact[name][0])) < 0.1

    def test_damping_reaches_same_fixed_point(self):
        graph = loopy_graph()
        plain = run_sum_product(graph, max_iterations=300)
        damped = run_sum_product(graph, max_iterations=300, damping=0.5)
        for name in plain.marginals:
            assert plain.marginals[name] == pytest.approx(damped.marginals[name], abs=1e-3)

    def test_strict_mode_raises_when_not_converged(self):
        with pytest.raises(ConvergenceError):
            run_sum_product(loopy_graph(), max_iterations=1, strict=True)


class TestRunContract:
    def test_repeated_runs_restart_from_unit_messages(self):
        """Regression: a second run() used to resume from the converged
        message state of the first."""
        engine = SumProduct(loopy_graph(), SumProductOptions(max_iterations=200))
        first = engine.run()
        second = engine.run()
        assert second.iterations == first.iterations
        assert second.final_change == first.final_change
        for name, marginal in first.marginals.items():
            assert np.array_equal(second.marginals[name], marginal)

    def test_factor_tables_with_exact_zeros(self):
        """Hard zeros in a factor table drive messages to exact zero
        entries; every belief must stay finite and match exact inference."""
        graph = FactorGraph("zeros")
        a = graph.add_variable(BinaryVariable("a"))
        b = graph.add_variable(BinaryVariable("b"))
        graph.add_factor(prior_factor(a, 1.0))
        graph.add_factor(Factor("ab", (a, b), np.array([[1.0, 0.0], [0.0, 1.0]])))
        graph.add_factor(prior_factor(b, 0.5))
        result = run_sum_product(graph, max_iterations=50)
        assert result.converged
        assert np.all(np.isfinite(list(result.marginals.values())))
        exact = exact_marginals(graph)
        for name, marginal in exact.items():
            assert result.marginals[name] == pytest.approx(marginal, abs=1e-9)
        assert result.probability_correct("b") == pytest.approx(1.0, abs=1e-6)


class TestMessageLoss:
    @pytest.mark.parametrize("send_probability,seed", [(0.7, 3), (0.4, 11)])
    def test_shared_seed_replays_lossy_runs(self, send_probability, seed):
        """A shared seed replays the same Bernoulli keep/send decisions, so
        lossy trajectories coincide round for round."""
        options = dict(
            max_iterations=2000,
            tolerance=1e-8,
            send_probability=send_probability,
            record_history=True,
        )
        first = run_sum_product(loopy_graph(), seed=seed, **options)
        second = run_sum_product(loopy_graph(), seed=seed, **options)
        other = run_sum_product(loopy_graph(), seed=seed + 1, **options)
        assert first.converged
        assert second.iterations == first.iterations
        assert second.final_change == first.final_change
        for snapshot, replayed in zip(first.history, second.history):
            for name, marginal in snapshot.items():
                assert np.array_equal(replayed[name], marginal)
        assert [h["a"][0] for h in other.history] != [
            h["a"][0] for h in first.history
        ]

    def test_lossy_run_still_converges_to_same_beliefs(self):
        graph = loopy_graph()
        reliable = run_sum_product(graph, max_iterations=300)
        lossy = run_sum_product(
            graph, max_iterations=2000, send_probability=0.5, seed=7
        )
        assert lossy.converged
        for name in reliable.marginals:
            assert lossy.marginals[name] == pytest.approx(
                reliable.marginals[name], abs=5e-3
            )

    def test_lossy_run_needs_more_iterations(self):
        graph = loopy_graph()
        reliable = run_sum_product(graph, max_iterations=500, tolerance=1e-7)
        lossy = run_sum_product(
            graph, max_iterations=2000, tolerance=1e-7, send_probability=0.3, seed=3
        )
        assert lossy.iterations > reliable.iterations


class TestResultAccessors:
    def test_history_recorded_when_requested(self):
        result = run_sum_product(loopy_graph(), max_iterations=20, record_history=True)
        assert len(result.history) == result.iterations
        trajectory = [snapshot["a"][0] for snapshot in result.history]
        assert all(0.0 <= value <= 1.0 for value in trajectory)
        assert result.history[-1]["a"] == pytest.approx(result.marginals["a"])

    def test_history_empty_by_default(self):
        result = run_sum_product(loopy_graph(), max_iterations=20)
        assert result.history == []

    def test_marginals_normalised(self):
        result = run_sum_product(loopy_graph(), max_iterations=50)
        for marginal in result.marginals.values():
            assert float(np.sum(marginal)) == pytest.approx(1.0)

    def test_isolated_variable_gets_uniform_belief(self):
        graph = loopy_graph()
        graph.add_variable(BinaryVariable("isolated"))
        result = run_sum_product(graph, max_iterations=20)
        assert result.marginals["isolated"] == pytest.approx([0.5, 0.5])

    def test_probability_correct_resolves_domain_order(self):
        """Regression: P(correct) used to hard-code index 0; it must follow
        the variable's actual domain ordering."""
        graph = FactorGraph("flipped")
        x = graph.add_variable(
            DiscreteVariable("x", domain=(INCORRECT, CORRECT))
        )
        graph.add_factor(Factor("prior", (x,), np.array([0.3, 0.7])))
        result = run_sum_product(graph)
        assert result.probability_correct("x") == pytest.approx(0.7, abs=1e-6)

    def test_probability_correct_rejects_non_correctness_domain(self):
        graph = FactorGraph("ternary")
        x = graph.add_variable(
            DiscreteVariable("x", domain=("red", "green", "blue"))
        )
        graph.add_factor(Factor("prior", (x,), np.array([0.2, 0.3, 0.5])))
        result = run_sum_product(graph)
        with pytest.raises(FactorGraphError, match="probability_correct"):
            result.probability_correct("x")

    def test_handmade_result_without_domains_assumes_binary_layout(self):
        result = SumProductResult(
            marginals={"x": np.array([0.8, 0.2]), "y": np.array([0.1, 0.2, 0.7])},
            iterations=1,
            converged=True,
            final_change=0.0,
        )
        assert result.probability_correct("x") == pytest.approx(0.8)
        with pytest.raises(FactorGraphError):
            result.probability_correct("y")


class TestSharedDefaults:
    def test_options_read_shared_constants(self):
        options = SumProductOptions()
        assert options.max_iterations == constants.DEFAULT_MAX_ITERATIONS
        assert options.tolerance == constants.DEFAULT_TOLERANCE
        assert options.damping == constants.DEFAULT_DAMPING
        assert options.send_probability == constants.DEFAULT_SEND_PROBABILITY

    def test_embedded_defaults_match_sum_product_defaults(self):
        """Regression: the two engines used to disagree (1e-6 vs 1e-4)."""
        from repro.core.embedded import EmbeddedOptions

        embedded = EmbeddedOptions()
        centralised = SumProductOptions()
        assert embedded.tolerance == centralised.tolerance
        assert embedded.max_rounds == centralised.max_iterations

    def test_default_rng_is_deterministic(self):
        """Two lossy runs without explicit seeds share DEFAULT_SEED and must
        produce identical trajectories."""
        first = run_sum_product(loopy_graph(), max_iterations=40, send_probability=0.5)
        second = run_sum_product(loopy_graph(), max_iterations=40, send_probability=0.5)
        assert first.iterations == second.iterations
        for name, marginal in first.marginals.items():
            assert second.marginals[name] == pytest.approx(marginal)

    def test_transport_default_seed_is_deterministic(self):
        from repro.core.embedded import MessageTransport

        draws = [bool(MessageTransport(0.5).send_mask(1)[0]) for _ in range(20)]
        redraws = [bool(MessageTransport(0.5).send_mask(1)[0]) for _ in range(20)]
        assert draws != [True] * 20  # actually lossy
        first = MessageTransport(0.5)
        second = MessageTransport(0.5)
        assert [bool(first.send_mask(1)[0]) for _ in range(50)] == [
            bool(second.send_mask(1)[0]) for _ in range(50)
        ]
        assert draws == redraws

    def test_invalid_backend_rejected(self):
        """The loops are the only engine: there is no backend knob left."""
        with pytest.raises(TypeError):
            SumProductOptions(backend="loops")
        with pytest.raises(TypeError):
            run_sum_product(single_variable_graph(), backend="loops")
        assert not hasattr(constants, "DEFAULT_BACKEND")
