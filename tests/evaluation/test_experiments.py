"""Tests for the per-figure experiment runners (shapes of the paper's results).

These are the slowest tests in the suite; they use reduced parameter grids
compared to the benchmark harness but check the same qualitative claims.
"""

import pytest

from repro.core.embedded import EmbeddedMessagePassing
from repro.evaluation import experiments
from repro.evaluation.experiments import (
    AMORTIZATION_MODES,
    run_assessor_amortization,
    run_baseline_comparison,
    run_convergence,
    run_cycle_length,
    run_embedded_throughput,
    run_fault_tolerance,
    run_intro_example,
    run_long_cycle_throughput,
    run_real_world,
    run_relative_error,
    run_schedule_comparison,
)
from repro.evaluation.timing import measure
from repro.factorgraph.sum_product import SumProduct
from repro.pdms import discovery


class TestIntroExample:
    def test_reproduces_section_45(self):
        result = run_intro_example()
        assert result.converged
        # Paper (exact): 0.59 / 0.30 — the embedded loopy estimates are close.
        assert result.posteriors["p2->p3"] == pytest.approx(0.59, abs=0.06)
        assert result.posteriors["p2->p4"] == pytest.approx(0.30, abs=0.06)
        # Updated priors move towards 0.55 / 0.40.
        assert result.updated_priors["p2->p3"] > 0.5
        assert result.updated_priors["p2->p4"] < 0.5
        # Routing: the faulty mapping is blocked and false positives vanish.
        assert "p2->p4" in result.blocked_mappings
        assert result.standard_false_positive_count >= 1
        assert result.aware_false_positive_count == 0


class TestConvergence:
    def test_figure7_shape(self):
        result = run_convergence()
        assert result.converged
        # "converges to approximate results in ten iterations usually"
        assert result.iterations <= 15
        # Correct mappings end high, the faulty one ends low.
        assert result.final_posteriors["p2->p4"] < 0.3
        assert result.final_posteriors["p2->p3"] > 0.7
        # History has one entry per iteration for each mapping.
        assert len(result.history["p2->p4"]) == result.iterations


class TestRelativeError:
    def test_figure9_shape(self):
        result = run_relative_error(extra_peer_range=range(0, 4))
        errors = dict(result.points)
        # Error is largest for the shortest cycles and never reaches ~6%.
        assert errors[4] == max(errors.values())
        assert result.max_error < 0.065
        assert errors[min(errors)] > errors[max(errors)]


class TestCycleLength:
    def test_figure10_shape(self):
        result = run_cycle_length(lengths=(2, 5, 10, 20), deltas=(0.01, 0.1))
        for delta, points in result.series.items():
            values = dict(points)
            assert values[2] > values[5] > values[10] - 1e-9
            assert abs(values[20] - 0.5) < 0.02
        # Smaller Δ keeps evidence informative for longer cycles.
        assert dict(result.series[0.01])[10] > dict(result.series[0.1])[10]


class TestFaultTolerance:
    def test_figure11_shape(self):
        result = run_fault_tolerance(
            send_probabilities=(1.0, 0.5, 0.2), repetitions=3, max_rounds=400
        )
        iterations = {p: i for p, i, _ in result.points}
        convergence = {p: c for p, _, c in result.points}
        # Always converges, even with 80% of messages dropped...
        assert all(c == 1.0 for c in convergence.values())
        # ...but needs more iterations the more messages are lost.
        assert iterations[0.2] > iterations[0.5] > iterations[1.0]


class TestRealWorld:
    #: Figure 12 as reproduced on the synthetic EON network: per θ, the
    #: (true positives, false positives) of the flagged correspondences,
    #: out of 72 erroneous ones.  Engine changes must reproduce them
    #: exactly — this is the paper's headline result.
    PINNED = {
        0.1: (3, 0),
        0.2: (7, 1),
        0.3: (14, 1),
        0.4: (18, 2),
        0.5: (18, 2),
        0.6: (18, 2),
        0.7: (18, 2),
        0.8: (19, 2),
        0.9: (23, 6),
    }

    @pytest.fixture(scope="class")
    def result(self):
        return run_real_world(thetas=tuple(self.PINNED))

    def test_figure12_values_are_pinned(self, result):
        assert len(result.posteriors) == 418
        for theta, (true_positives, false_positives) in self.PINNED.items():
            counts = result.metrics[theta].counts
            assert counts.true_positives == true_positives
            assert counts.false_positives == false_positives
            assert counts.actual_errors == 72
            flagged = true_positives + false_positives
            assert result.precision_at(theta) == true_positives / flagged
            assert result.recall_at(theta) == true_positives / 72

    def test_figure12_scale(self, result):
        assert 300 <= result.correspondence_count <= 500
        assert 40 <= result.erroneous_count <= 120

    def test_figure12_precision_shape(self, result):
        # High precision at low θ; still high (but not better) at large θ.
        # The exact ordering between nearby θ values is subject to
        # small-sample noise, hence the tolerance.
        assert result.precision_at(0.2) >= 0.8
        assert result.precision_at(0.2) >= result.precision_at(0.8) - 0.1
        # Far better than random guessing (error rate ~17%).
        random_precision = result.erroneous_count / result.correspondence_count
        assert result.precision_at(0.8) > random_precision * 2

    def test_posteriors_cover_scored_pairs(self, result):
        assert len(result.posteriors) > 0
        for key in result.posteriors:
            assert key in result.scenario.ground_truth


class TestAblations:
    def test_baseline_comparison(self):
        result = run_baseline_comparison()
        # Probabilistic scheme flags exactly the faulty mapping...
        assert result.probabilistic_flagged == ("p2->p4",)
        assert result.probabilistic.precision == 1.0
        assert result.probabilistic.recall == 1.0
        # ...while the Chatty-Web heuristic drags innocent mappings with it.
        assert len(result.baseline_flagged) > 1
        assert result.baseline.precision < result.probabilistic.precision

    def test_schedule_comparison(self):
        result = run_schedule_comparison(query_count=40)
        assert result.periodic_rounds > 0
        assert result.lazy_rounds > 0
        assert result.periodic_messages > 0
        # Both schedules identify the same faulty mapping.
        assert result.periodic_posteriors["p2->p4"] < 0.5
        assert result.lazy_posteriors["p2->p4"] < 0.5


class TestEmbeddedThroughput:
    @pytest.mark.parametrize("send_probability", [1.0, 0.7])
    def test_reports_round_rates(self, send_probability):
        (point,) = run_embedded_throughput(
            peer_counts=(8,),
            rounds=10,
            repeats=3,
            send_probability=send_probability,
        )
        assert point.rounds == 10
        assert point.send_probability == send_probability
        assert point.timing.pairs == 3
        assert point.feedback_count > 0
        assert point.remote_messages_per_round > 0
        assert point.rounds_per_second == pytest.approx(10 / point.timing.median())
        assert point.messages_per_second == pytest.approx(
            point.rounds_per_second * point.remote_messages_per_round
        )


class TestAssessorAmortization:
    def test_probe_once_and_identical_posteriors(self):
        points = run_assessor_amortization(peer_count=16, attribute_count=6, ttl=3)
        assert [point.mode for point in points] == list(AMORTIZATION_MODES)
        uncached, cached, batched = points
        assert uncached.attribute_count >= 5
        assert cached.probes == batched.probes == 1
        assert uncached.probes == uncached.attribute_count
        assert cached.plan_compiles == batched.plan_compiles == 1
        assert cached.max_posterior_difference == 0.0
        assert batched.max_posterior_difference <= 1e-9
        assert uncached.speedup == 1.0

    def test_every_side_walks_a_cold_snapshot(self, monkeypatch):
        """Regression: every assessor of a network reads its shared
        snapshot, so the first side's walks served the two after it.  Each
        timed call must walk every peer once per probe it runs."""
        walks = [0]
        find_cycles_through = discovery.find_cycles_through

        def spy(*args, **kwargs):
            walks[0] += 1
            return find_cycles_through(*args, **kwargs)

        per_side = {}

        def counting_measure(setups, pairs):
            def counted(side, setup):
                def counted_setup():
                    call = setup()

                    def counted_call():
                        before = walks[0]
                        value = call()
                        per_side.setdefault(side, []).append(walks[0] - before)
                        return value

                    return counted_call

                return counted_setup

            return measure(
                [counted(side, setup) for side, setup in enumerate(setups)], pairs
            )

        monkeypatch.setattr(discovery, "find_cycles_through", spy)
        monkeypatch.setattr(experiments, "measure", counting_measure)
        points = run_assessor_amortization(peer_count=16, attribute_count=6, ttl=3)
        peers, attributes = 16, points[0].attribute_count
        pairs = points[0].timing.pairs
        assert per_side == {
            0: [peers * attributes] * pairs,
            1: [peers] * pairs,
            2: [peers] * pairs,
        }


class TestLongCycleThroughput:
    def test_reports_the_rounds_each_side_ran(self, monkeypatch):
        """Regression: the runner reported ``iterations`` rounds while both
        timed runs stopped after 3 (a ring is a tree, so the change hits
        exactly zero), inflating every rate by ``iterations / 3``.  Spies
        count the rounds every timed engine actually ran."""
        rounds_run = {}
        converged_runs = set()
        iterate_once = SumProduct.iterate_once
        run = SumProduct.run
        run_round = EmbeddedMessagePassing.run_round

        def count(engine):
            # Keyed by the engine itself, so ids are never reused.
            rounds_run[engine] = rounds_run.get(engine, 0) + 1

        def spy_iterate_once(self):
            count(self)
            return iterate_once(self)

        def spy_run(self):
            converged_runs.add(self)
            return run(self)

        def spy_run_round(self, mapping_names=None):
            count(self)
            return run_round(self, mapping_names)

        monkeypatch.setattr(SumProduct, "iterate_once", spy_iterate_once)
        monkeypatch.setattr(SumProduct, "run", spy_run)
        monkeypatch.setattr(EmbeddedMessagePassing, "run_round", spy_run_round)

        iterations, pairs = 12, 3
        (point,) = run_long_cycle_throughput(
            cycle_lengths=(12,), rings=1, iterations=iterations, repeats=pairs
        )

        timed_loops = [
            calls
            for engine, calls in rounds_run.items()
            if isinstance(engine, SumProduct) and engine not in converged_runs
        ]
        timed_lanes = [
            calls
            for engine, calls in rounds_run.items()
            if isinstance(engine, EmbeddedMessagePassing)
        ]
        assert timed_loops == [point.rounds] * pairs
        assert timed_lanes == [point.rounds] * pairs
        assert point.rounds == iterations
        # A converged run of the same ring stops long before that, which is
        # what the old report hid.
        assert all(
            rounds_run[engine] < iterations for engine in converged_runs
        )
        loop_seconds, lane_seconds = point.timing.seconds
        assert len(point.ratios) == pairs
        assert point.speedup == pytest.approx(sorted(point.ratios)[1])
        assert point.loop_messages_per_second == pytest.approx(
            2.0 * point.edge_count * iterations / sorted(loop_seconds)[1]
        )
        assert point.lane_messages_per_second == pytest.approx(
            2.0 * point.edge_count * iterations / sorted(lane_seconds)[1]
        )
        assert point.structure_count == 1
        assert point.count_kernel_buckets == 1
        assert point.dense_kernel_buckets == 0
        assert point.batched_max_difference <= 1e-9
        assert point.local_max_difference <= 1e-9
