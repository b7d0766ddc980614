"""Unit tests for the embedded decentralised message passing."""

import numpy as np
import pytest
from embedded_reference import ReferenceEmbedded

from repro.core.embedded import (
    EmbeddedMessagePassing,
    EmbeddedOptions,
    MessageTransport,
    required_quiet_rounds,
)
from repro.core.beliefs import PriorBeliefStore
from repro.core.pdms_factor_graph import build_factor_graph, variable_name_for
from repro.exceptions import ConvergenceError, FeedbackError
from repro.factorgraph.sum_product import run_sum_product
from repro.generators.paper import (
    figure4_feedbacks,
    intro_example_feedbacks,
    single_cycle_feedback,
)


class TestConstruction:
    def test_requires_informative_feedback(self):
        from repro.core.feedback import Feedback, FeedbackKind, StructureKind

        neutral = Feedback(
            identifier="n",
            kind=FeedbackKind.NEUTRAL,
            structure=StructureKind.CYCLE,
            mapping_names=("a->b", "b->a"),
            attribute="X",
        )
        with pytest.raises(FeedbackError):
            EmbeddedMessagePassing([neutral])

    def test_mapping_and_peer_inventories(self):
        engine = EmbeddedMessagePassing(intro_example_feedbacks(), priors=0.5)
        assert set(engine.mapping_names) == {
            "p1->p2",
            "p2->p3",
            "p3->p4",
            "p4->p1",
            "p2->p4",
        }
        assert set(engine.peer_names) == {"p1", "p2", "p3", "p4"}
        assert engine.owner_of("p2->p4") == "p2"

    def test_options_validation(self):
        with pytest.raises(FeedbackError):
            EmbeddedOptions(max_rounds=0)
        with pytest.raises(FeedbackError):
            EmbeddedOptions(tolerance=0)

    def test_transport_validation(self):
        with pytest.raises(FeedbackError):
            MessageTransport(send_probability=0.0)

    def test_prior_store_constructor(self):
        store = PriorBeliefStore()
        store.set_prior("p2->p4", "Creator", 0.2)
        engine = EmbeddedMessagePassing.from_prior_store(
            intro_example_feedbacks(), store
        )
        # Before the first round every factor message is uniform, so the
        # posteriors are the priors.
        assert engine.posteriors()["p2->p4"] == pytest.approx(0.2)
        assert engine.posteriors()["p2->p3"] == pytest.approx(0.5)


class TestSection45:
    def test_posteriors_flag_the_faulty_mapping(self):
        engine = EmbeddedMessagePassing(intro_example_feedbacks(), priors=0.5, delta=0.1)
        result = engine.run()
        assert result.converged
        assert result.posteriors["p2->p4"] < 0.5
        assert result.posteriors["p2->p3"] > 0.5
        # Paper: 0.59 / 0.3 (exact); the embedded loopy estimate lands close.
        assert result.posteriors["p2->p3"] == pytest.approx(0.59, abs=0.06)
        assert result.posteriors["p2->p4"] == pytest.approx(0.30, abs=0.06)

    def test_converges_in_a_handful_of_iterations(self):
        engine = EmbeddedMessagePassing(
            intro_example_feedbacks(),
            priors=0.5,
            delta=0.1,
            options=EmbeddedOptions(tolerance=1e-3),
        )
        result = engine.run()
        assert result.converged
        assert result.iterations <= 15


class TestEquivalenceWithCentralisedBP:
    def test_fixed_point_matches_centralised_sum_product(self):
        """The decentralised scheme exchanges exactly the messages of loopy
        BP on the global factor graph, so the fixed points must agree."""
        feedbacks = figure4_feedbacks()
        engine = EmbeddedMessagePassing(
            feedbacks, priors=0.7, delta=0.1, options=EmbeddedOptions(max_rounds=100, tolerance=1e-8)
        )
        embedded = engine.run().posteriors
        graph = build_factor_graph(feedbacks, priors=0.7, delta=0.1).graph
        centralised = run_sum_product(graph, max_iterations=200, tolerance=1e-10)
        for mapping_name, posterior in embedded.items():
            reference = centralised.probability_correct(
                variable_name_for(mapping_name, "Creator")
            )
            assert posterior == pytest.approx(reference, abs=1e-3)

    @pytest.mark.parametrize("send_probability", [1.0, 0.9, 0.8, 0.6, 0.5, 0.3])
    def test_both_engines_stop_under_the_same_quiet_round_rule(
        self, send_probability
    ):
        """Regression: the loops used ``ceil(2/p)`` quiet rounds while the
        lane engine used ``round(2/p)``, so at P(send) 0.9, 0.8 and 0.6 the
        loops ran one round longer.  At tolerance 1.0 every round is quiet,
        so each engine stops after exactly the shared rule's count."""
        feedbacks = intro_example_feedbacks()
        needed = required_quiet_rounds(send_probability)
        embedded = EmbeddedMessagePassing(
            feedbacks,
            priors=0.5,
            transport=MessageTransport(send_probability, seed=0),
            options=EmbeddedOptions(tolerance=1.0),
        ).run()
        graph = build_factor_graph(feedbacks, priors=0.5).graph
        centralised = run_sum_product(
            graph, tolerance=1.0, send_probability=send_probability, seed=0
        )
        assert embedded.converged and centralised.converged
        assert embedded.iterations == needed
        assert centralised.iterations == needed

    def test_tree_case_is_exact_after_two_rounds(self):
        """Single-cycle factor graphs are trees: two rounds give the exact
        marginals (paper §4.3)."""
        from repro.factorgraph.exact import exact_marginals

        feedback = single_cycle_feedback(4)
        engine = EmbeddedMessagePassing(
            [feedback], priors=0.5, delta=0.1, options=EmbeddedOptions(max_rounds=2, tolerance=1e-12)
        )
        result = engine.run()
        graph = build_factor_graph([feedback], priors=0.5, delta=0.1).graph
        exact = exact_marginals(graph)
        for mapping_name, posterior in result.posteriors.items():
            assert posterior == pytest.approx(
                float(exact[variable_name_for(mapping_name, "Creator")][0]), abs=1e-9
            )


class TestMessageLoss:
    def test_lossy_run_reaches_same_posteriors(self):
        reliable = EmbeddedMessagePassing(
            figure4_feedbacks(), priors=0.8, delta=0.1,
            options=EmbeddedOptions(max_rounds=200, tolerance=1e-8),
        ).run()
        lossy = EmbeddedMessagePassing(
            figure4_feedbacks(),
            priors=0.8,
            delta=0.1,
            transport=MessageTransport(0.3, seed=11),
            options=EmbeddedOptions(max_rounds=2000, tolerance=1e-8),
        ).run()
        assert lossy.converged
        for name in reliable.posteriors:
            assert lossy.posteriors[name] == pytest.approx(
                reliable.posteriors[name], abs=0.01
            )

    def test_lossy_run_takes_more_iterations(self):
        reliable = EmbeddedMessagePassing(
            figure4_feedbacks(), priors=0.8, delta=0.1,
            options=EmbeddedOptions(max_rounds=500, tolerance=1e-6),
        ).run()
        lossy = EmbeddedMessagePassing(
            figure4_feedbacks(), priors=0.8, delta=0.1,
            transport=MessageTransport(0.2, seed=5),
            options=EmbeddedOptions(max_rounds=2000, tolerance=1e-6),
        ).run()
        assert lossy.iterations > reliable.iterations

    def test_transport_statistics_recorded(self):
        engine = EmbeddedMessagePassing(
            figure4_feedbacks(), priors=0.8, delta=0.1,
            transport=MessageTransport(0.5, seed=1),
            options=EmbeddedOptions(max_rounds=20),
        )
        engine.run()
        stats = engine.transport.statistics
        assert stats.attempted > 0
        assert stats.delivered + stats.dropped == stats.attempted
        assert 0.2 < stats.delivery_rate < 0.8


class TestCompiledKernels:
    def test_batches_cover_every_feedback_replica(self):
        engine = EmbeddedMessagePassing(intro_example_feedbacks(), priors=0.5)
        batched = sum(batch.size for batch in engine.plan.batches)
        assert batched == len(intro_example_feedbacks())

    def test_factor_sweep_matches_scalar_reference(self):
        """The stacked kernel sweeps must reproduce the scalar
        Factor.message_to computation of the loop reference, message for
        message, including after lossy exchanges."""
        transport_seed = 5
        engine = EmbeddedMessagePassing(
            intro_example_feedbacks(),
            priors=0.5,
            delta=0.1,
            transport=MessageTransport(0.6, seed=transport_seed),
        )
        reference = ReferenceEmbedded(
            intro_example_feedbacks(),
            priors=0.5,
            delta=0.1,
            transport=MessageTransport(0.6, seed=transport_seed),
        )
        for _ in range(3):
            engine.run_round()
            reference.run_round()
        plan = engine.plan
        f2v = engine._engine._f2v[0]
        for row in range(plan.edge_count):
            mapping_name = plan.mapping_names[plan.edge_mapping[row]]
            feedback_id = plan.identifiers[plan.edge_structure[row]]
            expected = reference.f2v[mapping_name][feedback_id]
            assert np.abs(f2v[row] - expected).max() < 1e-12


class TestArrayDictParity:
    """The lane engine must replay the per-message dict reference's runs."""

    @pytest.mark.parametrize("send_probability", [1.0, 0.7, 0.3])
    def test_fixed_round_posterior_parity(self, send_probability):
        engines = {}
        for label, cls in (("dicts", ReferenceEmbedded), ("arrays", EmbeddedMessagePassing)):
            engine = cls(
                figure4_feedbacks(),
                priors=0.7,
                delta=0.1,
                transport=MessageTransport(send_probability, seed=17),
            )
            for _ in range(40):
                engine.run_round()
            engines[label] = engine
        dict_posteriors = engines["dicts"].posteriors()
        array_posteriors = engines["arrays"].posteriors()
        assert dict_posteriors.keys() == array_posteriors.keys()
        for name, value in dict_posteriors.items():
            assert abs(array_posteriors[name] - value) <= 1e-12

    @pytest.mark.parametrize("send_probability", [1.0, 0.5])
    def test_transport_statistics_parity(self, send_probability):
        """Identical seeds must consume the rng identically: same attempted,
        same delivered, i.e. the same drop decisions in the same order."""
        stats = {}
        for label, cls in (("dicts", ReferenceEmbedded), ("arrays", EmbeddedMessagePassing)):
            engine = cls(
                figure4_feedbacks(),
                priors=0.7,
                delta=0.1,
                transport=MessageTransport(send_probability, seed=23),
            )
            for _ in range(10):
                engine.run_round()
            stats[label] = engine.transport.statistics
        assert stats["dicts"].attempted == stats["arrays"].attempted
        assert stats["dicts"].delivered == stats["arrays"].delivered
        assert stats["dicts"].dropped == stats["arrays"].dropped

    def test_run_parity(self):
        results = {}
        for label, cls in (("dicts", ReferenceEmbedded), ("arrays", EmbeddedMessagePassing)):
            engine = cls(
                intro_example_feedbacks(),
                priors=0.5,
                delta=0.1,
                transport=MessageTransport(0.8, seed=3),
                options=EmbeddedOptions(max_rounds=200, tolerance=1e-8),
            )
            results[label] = engine.run()
        assert results["dicts"].iterations == results["arrays"].iterations
        assert results["dicts"].converged == results["arrays"].converged
        for name, value in results["dicts"].posteriors.items():
            assert abs(results["arrays"].posteriors[name] - value) <= 1e-12

    def test_partial_round_parity(self):
        """The lazy schedule's mapping selection must behave identically,
        including which transmissions consume the transport rng."""
        selections = [["p2->p3", "p2->p4"], ["p1->p2"], None, ["p3->p4"]]
        posteriors = {}
        for label, cls in (("dicts", ReferenceEmbedded), ("arrays", EmbeddedMessagePassing)):
            engine = cls(
                intro_example_feedbacks(),
                priors=0.5,
                delta=0.1,
                transport=MessageTransport(0.6, seed=9),
            )
            for selection in selections:
                engine.run_round(mapping_names=selection)
            posteriors[label] = engine.posteriors()
        for name, value in posteriors["dicts"].items():
            assert abs(posteriors["arrays"][name] - value) <= 1e-12

    def test_unknown_backend_rejected(self):
        """The state-backend option is gone: one engine runs every round."""
        with pytest.raises(TypeError):
            EmbeddedMessagePassing(
                intro_example_feedbacks(), priors=0.5, backend="sparse"
            )


class TestPriorValidation:
    def test_out_of_range_float_prior_rejected(self):
        with pytest.raises(FeedbackError):
            EmbeddedMessagePassing(intro_example_feedbacks(), priors=1.5)
        with pytest.raises(FeedbackError):
            EmbeddedMessagePassing(intro_example_feedbacks(), priors=-0.1)

    def test_boolean_prior_rejected(self):
        # bool is an int subclass: True would silently mean "certainly
        # correct" — reject it with a descriptive error instead.
        with pytest.raises(FeedbackError):
            EmbeddedMessagePassing(intro_example_feedbacks(), priors=True)

    def test_invalid_dict_prior_rejected(self):
        with pytest.raises(FeedbackError):
            EmbeddedMessagePassing(
                intro_example_feedbacks(), priors={"p2->p4": 2.0}
            )
        with pytest.raises(FeedbackError):
            EmbeddedMessagePassing(
                intro_example_feedbacks(), priors={"p2->p4": False}
            )

    def test_boundary_priors_accepted(self):
        engine = EmbeddedMessagePassing(
            intro_example_feedbacks(), priors={"p2->p4": 0.0, "p2->p3": 1.0}
        )
        # Priors are clipped into [1e-9, 1]; before the first round the
        # posteriors are the (normalised) clipped priors.
        assert engine.posteriors()["p2->p4"] == pytest.approx(1e-9)
        assert engine.posteriors()["p2->p3"] == pytest.approx(1.0)


class TestTransportStatistics:
    def test_record_many_with_zero_attempts_is_a_noop(self):
        """Regression: an idle batch must leave the tallies (and the
        delivery rate) well-defined instead of risking a 0/0."""
        from repro.core.embedded import TransportStatistics

        stats = TransportStatistics()
        stats.record_many(0, 0)
        assert stats.attempted == 0
        assert stats.delivered == 0
        assert stats.dropped == 0
        assert stats.delivery_rate == 1.0

    def test_record_many_rejects_invalid_batches(self):
        from repro.core.embedded import TransportStatistics

        stats = TransportStatistics()
        with pytest.raises(FeedbackError):
            stats.record_many(-1, 0)
        with pytest.raises(FeedbackError):
            stats.record_many(2, 3)
        with pytest.raises(FeedbackError):
            stats.record_many(2, -1)
        # Nothing was recorded by the rejected calls.
        assert stats.attempted == 0

    def test_record_many_accumulates(self):
        from repro.core.embedded import TransportStatistics

        stats = TransportStatistics()
        stats.record_many(10, 7)
        stats.record_many(0, 0)
        stats.record_many(5, 5)
        assert stats.attempted == 15
        assert stats.delivered == 12
        assert stats.dropped == 3
        assert stats.delivery_rate == pytest.approx(0.8)


class TestResultAccessors:
    def test_unknown_mapping_raises_descriptive_error(self):
        engine = EmbeddedMessagePassing(intro_example_feedbacks(), priors=0.5)
        result = engine.run()
        with pytest.raises(FeedbackError, match="p9->p10"):
            result.probability_correct("p9->p10")
        with pytest.raises(FeedbackError, match="p9->p10"):
            result.history_of("p9->p10")


class TestControls:
    def test_strict_mode_raises_on_non_convergence(self):
        engine = EmbeddedMessagePassing(
            figure4_feedbacks(),
            priors=0.7,
            delta=0.1,
            options=EmbeddedOptions(max_rounds=1, tolerance=1e-12, strict=True),
        )
        with pytest.raises(ConvergenceError):
            engine.run()

    def test_history_recording(self):
        engine = EmbeddedMessagePassing(
            intro_example_feedbacks(), priors=0.5, delta=0.1,
            options=EmbeddedOptions(max_rounds=10, record_history=True),
        )
        result = engine.run()
        assert len(result.history) == result.iterations
        trajectory = result.history_of("p2->p4")
        assert len(trajectory) == result.iterations
        assert trajectory[-1] == pytest.approx(result.posteriors["p2->p4"])

    def test_partial_round_only_updates_selected_mappings(self):
        engine = EmbeddedMessagePassing(intro_example_feedbacks(), priors=0.5, delta=0.1)
        # Messages only for p2's outgoing mappings, as the lazy schedule does.
        change = engine.run_round(mapping_names=["p2->p3", "p2->p4"])
        assert change > 0.0
        posteriors = engine.posteriors()
        assert 0.0 <= posteriors["p2->p4"] <= 1.0

    def test_probability_correct_accessor(self):
        engine = EmbeddedMessagePassing(intro_example_feedbacks(), priors=0.5, delta=0.1)
        result = engine.run()
        assert result.probability_correct("p2->p4") == result.posteriors["p2->p4"]
