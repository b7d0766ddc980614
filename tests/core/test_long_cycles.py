"""Long-cycle networks end to end: the arity-25 cliff is gone.

A network whose feedback structures span 40–64 mappings must compile and
run on the lane engine (one lane, attribute lanes, per-origin lanes) with
no ``(2,)**arity`` table anywhere, matching the loop references to
``1e-9``: the loops sum-product (lossless) and the per-message embedded
reference (lossy, same rng streams).
"""

import pytest
from embedded_reference import (
    ReferenceEmbedded,
    assert_matches_reference,
    reference_assessment,
    reference_local_view,
)

from repro.constants import COUNT_KERNEL_MIN_ARITY
from repro.core.analysis import analyze_network
from repro.core.embedded import EmbeddedMessagePassing, MessageTransport
from repro.core.feedback import (
    Feedback,
    FeedbackKind,
    StructureKind,
    feedback_factor,
)
from repro.core.pdms_factor_graph import build_factor_graph
from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import long_cycle_network
from repro.factorgraph.factors import CountFactor, Factor
from repro.factorgraph.sum_product import run_sum_product
from repro.generators.topologies import cycle_network


def _ring_evidence(network, attribute, length):
    return analyze_network(
        network, attribute, ttl=length, include_parallel_paths=False
    )


class TestFeedbackFactorCrossover:
    def _feedback(self, size):
        return Feedback(
            identifier="f1",
            kind=FeedbackKind.NEGATIVE,
            structure=StructureKind.CYCLE,
            mapping_names=tuple(f"p{i}->p{i + 1}" for i in range(size)),
            attribute="a",
        )

    def test_short_feedback_stays_dense(self):
        factor = feedback_factor(
            self._feedback(COUNT_KERNEL_MIN_ARITY - 1), delta=0.1
        )
        assert type(factor) is Factor

    def test_long_feedback_becomes_count_factor(self):
        factor = feedback_factor(
            self._feedback(COUNT_KERNEL_MIN_ARITY), delta=0.1
        )
        assert isinstance(factor, CountFactor)
        assert factor.count_values.shape == (COUNT_KERNEL_MIN_ARITY + 1,)

    def test_count_factor_matches_dense_table(self):
        size = COUNT_KERNEL_MIN_ARITY
        count_version = feedback_factor(self._feedback(size), delta=0.1)
        # Rebuild the dense CPT the historical path produced and compare.
        dense_table = count_version.table
        assert dense_table.shape == (2,) * size
        assert dense_table[(0,) * size] == pytest.approx(0.0)
        assert dense_table[(1,) + (0,) * (size - 1)] == pytest.approx(1.0)
        assert dense_table[(1, 1) + (0,) * (size - 2)] == pytest.approx(0.9)


@pytest.mark.parametrize("length", [40, 64])
class TestLongRingVsLoops:
    """A single ``length``-mapping ring on every lane layout vs the loops."""

    def _network(self, length):
        return cycle_network(length, attribute_count=4, seed=length)

    def test_lossless_all_engines_agree(self, length):
        network = self._network(length)
        attribute = network.attribute_universe()[0]
        evidence = _ring_evidence(network, attribute, length)
        informative = evidence.informative_feedbacks
        assert len(informative) == 1
        assert informative[0].size == length

        graph = build_factor_graph(
            informative, priors=0.5, attribute=attribute
        ).graph
        loops = run_sum_product(graph)
        assert loops.converged

        # Batched multi-attribute assessor: compiles (no fallback), agrees.
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=length, include_parallel_paths=False
        )
        assessment = assessor.assess_attributes([attribute])[attribute]
        assert assessor.plan_compile_count == 1
        plan = assessor.assessment_plan()
        assert all(batch.use_count_kernel for batch in plan.batches)
        for name, posterior in assessment.posteriors.items():
            reference = loops.probability_correct(f"m[{name}]@{attribute}")
            assert posterior == pytest.approx(reference, abs=1e-9)

        # A one-lane run agrees too — on the count kernels, never
        # materialising a dense table.
        engine = EmbeddedMessagePassing(informative, priors=0.5, delta=0.1)
        result = engine.run()
        for name, posterior in result.posteriors.items():
            reference = loops.probability_correct(f"m[{name}]@{attribute}")
            assert posterior == pytest.approx(reference, abs=1e-9)
        assert all(batch.use_count_kernel for batch in engine.plan.batches)

        # Per-origin lanes: the ring is one factor, so each origin's view is
        # the loops fixed point of the same ring.
        views = assessor.assess_local_all(attribute)
        origin = network.peer_names[0]
        assert views[origin]
        for name, value in views[origin].items():
            reference = loops.probability_correct(f"m[{name}]@{attribute}")
            assert value == pytest.approx(reference, abs=1e-9)

    def test_lossy_replays_the_sequential_rng_streams(self, length):
        network = self._network(length)
        attribute = network.attribute_universe()[0]
        batched = MappingQualityAssessor(
            network,
            delta=0.1,
            ttl=length,
            include_parallel_paths=False,
            send_probability=0.7,
            seed=11,
        )
        b = batched.assess_attributes([attribute])[attribute]
        assert_matches_reference(b.result, reference_assessment(batched, attribute))

        b_views = batched.assess_local_all(attribute)
        for origin in network.peer_names[:3]:
            s_view = reference_local_view(batched, origin, attribute)
            assert set(b_views[origin]) == set(s_view)
            for name, value in s_view.items():
                assert b_views[origin][name] == pytest.approx(value, abs=1e-9)


class TestMixedRingNetwork:
    def test_mixed_signs_and_dense_coexistence(self):
        # 4 rings of 30 (half corrupted): negative and positive long CPTs
        # in one count bucket, posteriors matching the loops.
        network = long_cycle_network(30, rings=4, attribute_count=4, seed=7)
        attribute = network.attribute_universe()[0]
        evidence = _ring_evidence(network, attribute, 30)
        informative = evidence.informative_feedbacks
        kinds = {feedback.kind for feedback in informative}
        assert kinds == {FeedbackKind.POSITIVE, FeedbackKind.NEGATIVE}
        graph = build_factor_graph(
            informative, priors=0.5, attribute=attribute
        ).graph
        loops = run_sum_product(graph)
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=30, include_parallel_paths=False
        )
        assessment = assessor.assess_attributes([attribute])[attribute]
        for name, posterior in assessment.posteriors.items():
            reference = loops.probability_correct(f"m[{name}]@{attribute}")
            assert posterior == pytest.approx(reference, abs=1e-9)

    def test_dicts_backend_parity_at_long_arity(self):
        # The per-message dict-state reference (scalar CountFactor messages)
        # agrees with the lane engine's count kernels at long arity.
        network = cycle_network(40, attribute_count=4, seed=1)
        attribute = network.attribute_universe()[0]
        informative = _ring_evidence(
            network, attribute, 40
        ).informative_feedbacks
        arrays = EmbeddedMessagePassing(
            informative,
            priors=0.5,
            delta=0.1,
            transport=MessageTransport(0.8, seed=5),
        ).run()
        dicts = ReferenceEmbedded(
            informative,
            priors=0.5,
            delta=0.1,
            transport=MessageTransport(0.8, seed=5),
        ).run()
        assert_matches_reference(arrays, dicts, tolerance=1e-12)
