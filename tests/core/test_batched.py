"""Unit tests for the lane engine on multi-attribute assessment."""

import numpy as np
import pytest
from embedded_reference import (
    assert_matches_reference,
    assert_trajectory_matches_reference,
    reference_assessment,
)

from repro.core.batched import (
    AssessmentLane,
    BatchedEmbeddedMessagePassing,
    compile_assessment_plan,
    lower_feedbacks,
)
from repro.constants import COUNT_KERNEL_MIN_ARITY, MAX_COMPILED_ARITY
from repro.core.embedded import EmbeddedOptions, MessageTransport
from repro.core.feedback import Feedback, FeedbackKind, StructureKind
from repro.core.quality import MappingQualityAssessor
from repro.exceptions import ConvergenceError, FactorGraphError, FeedbackError
from repro.generators.paper import intro_example_network
from repro.generators.scenarios import generate_scenario


def _references(assessor, attributes):
    """The loop reference of every attribute, configured like the
    assessor's lanes (``None`` where the evidence is all neutral)."""
    return {attribute: reference_assessment(assessor, attribute) for attribute in attributes}


def _assert_match(assessments, references):
    for attribute, reference in references.items():
        assessment = assessments[attribute]
        if reference is None:
            assert assessment.result is None
            assert assessment.posteriors == {}
        else:
            assert_matches_reference(assessment.result, reference)
            assert assessment.posteriors == assessment.result.posteriors


class TestPlanCompilation:
    def _intro_plan(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        return assessor.assessment_plan()

    def test_plan_covers_every_structure_and_mapping(self):
        plan = self._intro_plan()
        assert plan.structure_count == len(plan.identifiers)
        assert plan.structure_count > 0
        covered = {name for names in plan.structure_mappings for name in names}
        assert covered == set(plan.mapping_names)
        # Every mapping is owned by its source peer.
        for name in plan.mapping_names:
            assert plan.owners[name] == name.split("->", 1)[0]

    def test_edges_grouped_by_mapping(self):
        plan = self._intro_plan()
        # Contiguous segments: the mapping index may only change at a
        # segment start.
        changes = np.flatnonzero(plan.edge_mapping[1:] != plan.edge_mapping[:-1]) + 1
        assert set(changes).issubset(set(plan.segment_starts.tolist()))
        assert plan.segment_starts[0] == 0
        assert len(plan.segment_starts) == plan.mapping_count

    def test_transmissions_cross_owners_only(self):
        plan = self._intro_plan()
        for src, feedback_index in zip(plan.tx_src, plan.tx_feedback):
            sender_mapping = plan.mapping_names[plan.edge_mapping[src]]
            names = plan.structure_mappings[feedback_index]
            assert sender_mapping in names

    def test_arities_beyond_dense_limit_compile_to_count_buckets(self):
        # Historically arity > MAX_COMPILED_ARITY was rejected (the
        # "arity-25 compilation cliff"); long structures now compile into
        # count-space buckets with O(arity) count tensors instead of the
        # dense (2,)**arity ones.
        names = tuple(f"p{i}->p{i + 1}" for i in range(30))
        plan = compile_assessment_plan([("f1", names)])
        (batch,) = plan.batches
        assert batch.arity == 30 > MAX_COMPILED_ARITY
        assert batch.use_count_kernel
        assert batch.incorrect_counts.shape == (31,)

    def test_count_kernel_crossover_buckets(self):
        # One short and one crossover-length structure: the short bucket
        # stays dense, the long one switches to the count kernel.
        short = tuple(f"p{i}->p{i + 1}" for i in range(3))
        long_names = tuple(
            f"q{i}->q{i + 1}" for i in range(COUNT_KERNEL_MIN_ARITY)
        )
        plan = compile_assessment_plan([("f1", short), ("f2", long_names)])
        by_arity = {batch.arity: batch for batch in plan.batches}
        assert not by_arity[3].use_count_kernel
        assert by_arity[3].incorrect_counts.shape == (2,) * 3
        assert by_arity[COUNT_KERNEL_MIN_ARITY].use_count_kernel
        assert by_arity[COUNT_KERNEL_MIN_ARITY].incorrect_counts.shape == (
            COUNT_KERNEL_MIN_ARITY + 1,
        )

    def test_structures_need_two_mappings(self):
        # The Feedback floor: a one-mapping structure is a caller bug, named
        # in the error, wherever it sits in the list.
        with pytest.raises(FeedbackError, match="'f1' needs at least two mappings"):
            compile_assessment_plan([("f1", ("a->b",))])
        with pytest.raises(FeedbackError, match="'solo'"):
            compile_assessment_plan(
                [("pair", ("a->b", "b->a")), ("solo", ("b->c",))]
            )


class TestBatchedSequentialParity:
    """Attribute lanes must replay the per-message loop reference."""

    def test_lossless_parity_on_intro_network(self):
        network = intro_example_network(with_records=False)
        attributes = network.attribute_universe()
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        b = assessor.assess_attributes(attributes)
        _assert_match(b, _references(assessor, attributes))
        for attribute in attributes:
            evidence = assessor.structure_cache.evidence_for(attribute)
            assert b[attribute].unmappable == evidence.unmappable

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lossy_parity_across_seeds(self, seed):
        """Lossy transport: identical per-lane rng streams, so the same
        attempts, drops and iterations as the reference."""
        network = intro_example_network(with_records=False)
        attributes = network.attribute_universe()
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=seed, send_probability=0.6
        )
        _assert_match(
            assessor.assess_attributes(attributes), _references(assessor, attributes)
        )

    def test_lossy_parity_on_generated_scenario(self):
        scenario = generate_scenario(
            topology="scale-free",
            peer_count=16,
            attribute_count=8,
            error_rate=0.2,
            seed=7,
        )
        network = scenario.network
        attributes = network.attribute_universe()
        assessor = MappingQualityAssessor(
            network,
            delta=None,
            ttl=3,
            include_parallel_paths=False,
            seed=5,
            send_probability=0.7,
        )
        _assert_match(
            assessor.assess_attributes(attributes), _references(assessor, attributes)
        )

    @pytest.mark.parametrize("send_probability", [1.0, 0.7])
    def test_history_parity(self, send_probability):
        """The assessor's intro-network evidence, stepped one round per
        period, replays the reference round by round and stops on the
        posteriors of the assessor's own lane."""
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=0, send_probability=send_probability
        )
        assessment = assessor.assess_attributes(["Creator"])["Creator"]
        feedbacks = assessment.evidence.feedbacks

        def build(engine_class):
            return engine_class(
                feedbacks,
                priors={
                    name: assessor.priors.prior(name, "Creator")
                    for feedback in feedbacks
                    for name in feedback.mapping_names
                },
                delta=assessor._delta_for("Creator"),
                transport=MessageTransport(send_probability, seed=assessor.seed),
                options=assessor.options,
            )

        report = assert_trajectory_matches_reference(build)
        assert report.rounds == assessment.iterations
        assert report.posterior_history[-1] == assessment.posteriors

    def test_attribute_without_informative_feedback_gets_none_result(self):
        network = intro_example_network(with_records=False)
        # "Unmapped" exists in no schema, so every structure is neutral for
        # it: no lane is placed and the result is None, like the reference.
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        assert reference_assessment(assessor, "Unmapped") is None
        b = assessor.assess_attributes(["Unmapped"])["Unmapped"]
        assert b.result is None
        assert b.posteriors == {}


class TestPlanReuse:
    def test_plan_compiled_once_across_attributes_and_em_rounds(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        for _ in range(3):
            assessor.assess_all_attributes()
            assessor.update_priors()
        assert assessor.plan_compile_count == 1
        assert assessor.structure_cache.statistics.probes == 1

    def test_remove_mapping_then_batched_reassessment(self):
        """Satellite: cache invalidation on remove_mapping feeds the batched
        engine a consistent, freshly compiled plan."""
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        before = assessor.assess_all_attributes()
        assert "p2->p4" in before["Creator"].posteriors

        network.remove_mapping("p2->p4")
        after = assessor.assess_all_attributes()
        assert assessor.plan_compile_count == 2
        # The removed mapping disappears from the inference problem…
        assert "p2->p4" not in after["Creator"].posteriors
        # …and the batched posteriors still match the reference run on the
        # evidence of an assessor built fresh on the mutated network.
        fresh = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        _assert_match(after, _references(fresh, network.attribute_universe()))

    def test_invalidate_clears_plan(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        assessor.assess_all_attributes()
        assessor.invalidate()
        assessor.assess_all_attributes()
        assert assessor.plan_compile_count == 2


class TestEngineValidation:
    def _plan_and_evidence(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        plan = assessor.assessment_plan()
        evidence = assessor.structure_cache.evidence_for("Creator")
        return plan, evidence

    @staticmethod
    def _lane(plan, feedbacks, **kwargs):
        return AssessmentLane(
            key="Creator", codes=lower_feedbacks(plan, feedbacks), **kwargs
        )

    def test_misaligned_feedback_set_rejected(self):
        plan, evidence = self._plan_and_evidence()
        # The lowering checks evidence against its plan; the engine checks
        # a lane's codes against the structures the lane binds.
        with pytest.raises(FeedbackError, match="feedbacks for"):
            lower_feedbacks(plan, evidence.feedbacks[:-1])
        codes = lower_feedbacks(plan, evidence.feedbacks)
        with pytest.raises(FeedbackError, match="kind codes for"):
            BatchedEmbeddedMessagePassing(
                plan, [AssessmentLane(key="Creator", codes=codes[:-1])]
            )

    def test_mismatched_feedback_rejected(self):
        plan, evidence = self._plan_and_evidence()
        shifted = evidence.feedbacks[1:] + evidence.feedbacks[:1]
        with pytest.raises(FeedbackError, match="does not match plan structure"):
            lower_feedbacks(plan, shifted)
        with pytest.raises(FeedbackError, match="step-one range"):
            lower_feedbacks(plan, evidence.feedbacks[:1], range(0, 2, 2))

    def test_invalid_codes_rejected(self):
        plan, evidence = self._plan_and_evidence()
        codes = lower_feedbacks(plan, evidence.feedbacks).copy()
        codes[0] = 3
        with pytest.raises(FeedbackError, match="kind codes must be"):
            BatchedEmbeddedMessagePassing(
                plan, [AssessmentLane(key="Creator", codes=codes)]
            )
        with pytest.raises(FeedbackError, match="step-one range"):
            BatchedEmbeddedMessagePassing(
                plan,
                [
                    AssessmentLane(
                        key="Creator",
                        codes=codes[:1],
                        structure_indices=range(
                            plan.structure_count, plan.structure_count + 1
                        ),
                    )
                ],
            )

    def test_invalid_delta_rejected(self):
        plan, evidence = self._plan_and_evidence()
        with pytest.raises(FeedbackError):
            BatchedEmbeddedMessagePassing(
                plan, [self._lane(plan, evidence.feedbacks, delta=1.5)]
            )

    def test_missing_delta_for_neutral_attribute_tolerated(self):
        """Only lanes with informative evidence need a Δ; all-neutral lanes
        construct fine and yield None results."""
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        plan = assessor.assessment_plan()
        neutral = assessor.structure_cache.evidence_for("Unmapped").feedbacks
        assert all(not feedback.is_informative for feedback in neutral)
        creator = assessor.structure_cache.evidence_for("Creator").feedbacks
        engine = BatchedEmbeddedMessagePassing(
            plan,
            [
                self._lane(plan, creator, delta=0.1),
                # "Unmapped" exists in no schema: neutral everywhere, and
                # no Δ supplied for it.
                AssessmentLane(
                    key="Unmapped", codes=lower_feedbacks(plan, neutral), delta=None
                ),
            ],
        )
        results = engine.run()
        assert results["Unmapped"] is None
        assert results["Creator"] is not None
        with pytest.raises(FeedbackError, match="no Δ supplied"):
            BatchedEmbeddedMessagePassing(
                plan, [self._lane(plan, creator, delta=None)]
            )

    def test_invalid_prior_rejected(self):
        plan, evidence = self._plan_and_evidence()
        priors = np.full(plan.mapping_count, 0.5)
        priors[plan.mapping_index["p2->p4"]] = 2.0
        with pytest.raises(FeedbackError, match="'p2->p4'.* got 2.0"):
            BatchedEmbeddedMessagePassing(
                plan, [self._lane(plan, evidence.feedbacks, priors=priors)]
            )
        with pytest.raises(FeedbackError, match="boolean"):
            BatchedEmbeddedMessagePassing(
                plan,
                [
                    self._lane(
                        plan,
                        evidence.feedbacks,
                        priors=np.ones(plan.mapping_count, dtype=bool),
                    )
                ],
            )
        with pytest.raises(FeedbackError, match="one value per plan mapping"):
            BatchedEmbeddedMessagePassing(
                plan, [self._lane(plan, evidence.feedbacks, priors=priors[:-1])]
            )
        with pytest.raises(FeedbackError, match="got dict"):
            BatchedEmbeddedMessagePassing(
                plan, [self._lane(plan, evidence.feedbacks, priors={"p2->p4": 0.2})]
            )

    def test_strict_mode_raises_on_non_convergence(self):
        plan, evidence = self._plan_and_evidence()
        engine = BatchedEmbeddedMessagePassing(
            plan,
            [self._lane(plan, evidence.feedbacks, priors=0.5)],
            options=EmbeddedOptions(max_rounds=1, tolerance=1e-12, strict=True),
        )
        with pytest.raises(ConvergenceError, match="Creator"):
            engine.run()

    def test_scalar_prior_and_delta_broadcast(self):
        plan, evidence = self._plan_and_evidence()
        engine = BatchedEmbeddedMessagePassing(
            plan, [self._lane(plan, evidence.feedbacks, priors=0.5, delta=0.1)]
        )
        results = engine.run()
        assert results["Creator"] is not None
        assert results["Creator"].posteriors["p2->p4"] < 0.5
        assert results["Creator"].posteriors["p2->p3"] > 0.5


class TestAssessorQueries:
    def test_batched_assessments_feed_probability_queries(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        assessor.assess_all_attributes()
        assert assessor.probability("p2->p4", "Creator") < 0.5
        assert assessor.probability("p2->p3", "Creator") > 0.5
        assert assessor.flagged_mappings("Creator", theta=0.5) == ("p2->p4",)


class TestFrozenBlockCompaction:
    """Converged origins' rows leave the per-origin slice's sweeps."""

    def test_per_round_work_shrinks_as_origins_converge(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        assessor.assess_local_all("Creator")
        trajectory = assessor.last_local_round_edge_counts
        assert trajectory
        assert all(a >= b for a, b in zip(trajectory, trajectory[1:]))
        assert trajectory[-1] < trajectory[0]

    def test_compaction_preserves_sequential_results_exactly(self):
        # Origins on the intro network converge at different rounds, so the
        # shared slice is compacted mid-run; every local view must still
        # equal its one-lane run (same seed) bit for bit.
        network = intro_example_network(with_records=False)
        batched = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=0, send_probability=0.8
        )
        sequential = MappingQualityAssessor(
            network,
            delta=0.1,
            ttl=4,
            seed=0,
            send_probability=0.8,
        )
        views = batched.assess_local_all("Creator")
        assert len(batched.last_local_round_edge_counts) > 1
        for origin in network.peer_names:
            reference = sequential.assess_local(origin, "Creator")
            assert set(views[origin]) == set(reference)
            for name, value in reference.items():
                assert views[origin][name] == value

    def test_idle_lanes_are_compacted_before_the_first_round(self):
        # A lane whose evidence is entirely neutral never exchanges a
        # message; its rows must not ride the sweeps even once.
        from dataclasses import replace

        plan = compile_assessment_plan(
            [
                ("f1", ("p1->p2", "p2->p1")),
                ("f2", ("p3->p4", "p4->p3")),
            ]
        )

        def feedback(identifier, names, kind):
            return Feedback(
                identifier=identifier,
                kind=kind,
                structure=StructureKind.CYCLE,
                mapping_names=names,
                attribute="a",
            )

        live_lane = AssessmentLane(
            key="live",
            codes=lower_feedbacks(
                plan,
                [feedback("f1", ("p1->p2", "p2->p1"), FeedbackKind.NEGATIVE)],
                range(0, 1),
            ),
            structure_indices=range(0, 1),
            delta=0.1,
        )
        idle_lane = AssessmentLane(
            key="idle",
            codes=lower_feedbacks(
                plan,
                [feedback("f2", ("p3->p4", "p4->p3"), FeedbackKind.NEUTRAL)],
                range(1, 2),
            ),
            structure_indices=range(1, 2),
            delta=0.1,
        )
        engine = BatchedEmbeddedMessagePassing(plan, [live_lane, idle_lane])
        results = engine.run()
        assert results["idle"] is None
        assert results["live"] is not None
        # Only the live lane's two edge rows were ever swept.
        assert engine.round_edge_counts[0] == 2
