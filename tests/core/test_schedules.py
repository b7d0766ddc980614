"""Unit tests for the periodic and lazy message-passing schedules."""

import pytest
from embedded_reference import assert_trajectory_matches_reference

from repro.core.embedded import (
    EmbeddedMessagePassing,
    EmbeddedOptions,
    MessageTransport,
    required_quiet_rounds,
)
from repro.core.schedules import LazySchedule, PeriodicSchedule
from repro.exceptions import ReproError
from repro.generators.paper import (
    figure4_feedbacks,
    intro_example_feedbacks,
    intro_example_network,
)
from repro.pdms.query import Query, substring_predicate
from repro.pdms.routing import QueryRouter, RoutingPolicy


def make_engine(**options):
    return EmbeddedMessagePassing(
        intro_example_feedbacks(),
        priors=0.5,
        delta=0.1,
        options=EmbeddedOptions(max_rounds=200, **options),
    )


class TestTrajectoryByStepping:
    """The engine records no trajectory: the periodic schedule reads one
    by stepping it, and that trajectory replays the per-message reference
    round by round."""

    @pytest.mark.parametrize("send_probability", [1.0, 0.7])
    @pytest.mark.parametrize(
        ("feedbacks", "priors"),
        [(intro_example_feedbacks, 0.5), (figure4_feedbacks, 0.7)],
        ids=["intro", "figure4"],
    )
    def test_periodic_trajectory_replays_the_reference(
        self, feedbacks, priors, send_probability
    ):
        def build(engine_class):
            return engine_class(
                feedbacks(),
                priors=priors,
                delta=0.1,
                transport=MessageTransport(send_probability, seed=11),
                options=EmbeddedOptions(max_rounds=200),
            )

        report = assert_trajectory_matches_reference(build)
        assert report.converged and report.rounds > 1


class TestPeriodicSchedule:
    def test_runs_until_convergence(self):
        schedule = PeriodicSchedule(make_engine(), tau=5.0)
        report = schedule.run(periods=100, tolerance=1e-3)
        assert report.converged
        assert report.rounds < 100
        assert report.elapsed_time == pytest.approx(report.rounds * 5.0)

    def test_message_accounting(self):
        engine = make_engine()
        schedule = PeriodicSchedule(engine, tau=1.0)
        report = schedule.run(periods=3, tolerance=1e-12, stop_on_convergence=False)
        assert report.rounds == 3
        assert report.messages_attempted > 0

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            PeriodicSchedule(make_engine(), tau=0.0)
        with pytest.raises(ReproError):
            PeriodicSchedule(make_engine(), tau=1.0).run(periods=0)

    def test_posterior_history_recorded(self):
        schedule = PeriodicSchedule(make_engine(), tau=1.0)
        report = schedule.run(periods=5, tolerance=1e-12, stop_on_convergence=False)
        assert len(report.posterior_history) == 5


class _ScriptedEngine:
    """Minimal engine double replaying a fixed sequence of round changes."""

    def __init__(self, changes, send_probability=1.0, tolerance=1e-6):
        from repro.core.embedded import EmbeddedOptions, MessageTransport

        self._changes = list(changes)
        self._round = 0
        self.options = EmbeddedOptions(tolerance=tolerance)
        self.transport = MessageTransport(send_probability)
        self.mapping_names = ("p1->p2",)

    def run_round(self, mapping_names=None):
        change = self._changes[min(self._round, len(self._changes) - 1)]
        self._round += 1
        return change

    def posteriors(self):
        return {"p1->p2": 0.5}


class TestPeriodicConvergenceReporting:
    def test_quiet_then_loud_rounds_are_not_reported_converged(self):
        """Regression: one early quiet round used to latch converged=True
        even when later rounds exceeded tolerance again."""
        engine = _ScriptedEngine([1e-9, 0.5, 0.5])
        schedule = PeriodicSchedule(engine, tau=1.0)
        report = schedule.run(periods=3, tolerance=1e-6, stop_on_convergence=False)
        assert report.rounds == 3
        assert not report.converged
        assert report.final_change == pytest.approx(0.5)

    def test_quiet_final_rounds_are_reported_converged(self):
        engine = _ScriptedEngine([0.5, 0.5, 1e-9])
        schedule = PeriodicSchedule(engine, tau=1.0)
        report = schedule.run(periods=3, tolerance=1e-6, stop_on_convergence=False)
        assert report.converged
        assert report.final_change == pytest.approx(1e-9)

    def test_lossy_transport_needs_consecutive_quiet_rounds(self):
        """Mirrors EmbeddedMessagePassing.run: at P(send)=0.5 a single quiet
        round may just mean the informative messages were dropped."""
        engine = _ScriptedEngine([0.0, 0.0, 0.0, 0.5], send_probability=0.5)
        schedule = PeriodicSchedule(engine, tau=1.0)
        report = schedule.run(periods=4, tolerance=1e-6, stop_on_convergence=False)
        # required quiet rounds = max(2, round(2/0.5)) = 4; the loud final
        # round resets the count.
        assert not report.converged

        engine = _ScriptedEngine([0.0] * 4, send_probability=0.5)
        schedule = PeriodicSchedule(engine, tau=1.0)
        report = schedule.run(periods=4, tolerance=1e-6)
        assert report.converged
        assert report.rounds == 4

    def test_lossless_stop_on_convergence_unchanged(self):
        engine = _ScriptedEngine([0.5, 1e-9, 0.5])
        schedule = PeriodicSchedule(engine, tau=1.0)
        report = schedule.run(periods=10, tolerance=1e-6)
        assert report.converged
        assert report.rounds == 2


class TestLazySchedule:
    def _traces(self, count=40, seed=3):
        import random

        network = intro_example_network(with_records=True)
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
        rng = random.Random(seed)
        traces = []
        for _ in range(count):
            origin = rng.choice(network.peer_names)
            query = Query.select_project(
                origin,
                project=["Creator"],
                where={"Subject": substring_predicate("river")},
            )
            traces.append(router.route(query, origin=origin))
        return traces

    def test_piggybacking_converges_to_the_same_posteriors(self):
        reference = make_engine().run().posteriors
        lazy_engine = make_engine()
        schedule = LazySchedule(lazy_engine)
        report = schedule.process_traces(self._traces(count=80), tolerance=1e-4)
        assert report.rounds > 1
        for name, value in lazy_engine.posteriors().items():
            assert value == pytest.approx(reference[name], abs=0.05)

    def test_only_traversed_mappings_trigger_messages(self):
        lazy_engine = make_engine()
        schedule = LazySchedule(lazy_engine)
        trace = self._traces(count=1)[0]
        schedule.process_traces([trace])
        assert schedule.processed_queries == 1
        assert schedule.piggybacked_mappings <= len(trace.used_mappings())

    def test_trace_without_known_mappings_is_a_noop(self):
        lazy_engine = make_engine()
        schedule = LazySchedule(lazy_engine)
        from repro.pdms.trace import QueryTrace

        empty_trace = QueryTrace(query_id=1, origin="p2")
        report = schedule.process_traces([empty_trace])
        assert report.rounds == 0
        assert report.messages_attempted == 0
        assert schedule.piggybacked_mappings == 0

    def test_irrelevant_traces_do_not_fake_convergence(self):
        """Regression: traces that piggyback zero relevant mappings used to
        count as quiet rounds (change 0.0 < tolerance), so a workload that
        skirts the feedback graph falsely claimed convergence."""
        from repro.pdms.trace import QueryTrace

        lazy_engine = make_engine()
        schedule = LazySchedule(lazy_engine)
        idle = [QueryTrace(query_id=i, origin="p2") for i in range(10)]
        report = schedule.process_traces(idle, tolerance=1e-3)
        assert schedule.processed_queries == 10
        assert report.rounds == 0
        assert not report.converged

    def test_irrelevant_traces_do_not_advance_the_quiet_count(self):
        """An idle trace interleaved with real traffic must not contribute a
        fake quiet round to the convergence check."""
        from repro.pdms.trace import QueryTrace

        lazy_engine = make_engine()
        schedule = LazySchedule(lazy_engine)
        real = self._traces(count=1)[0]
        idle = QueryTrace(query_id=99, origin="p2")
        report = schedule.process_traces([real, idle, idle, idle], tolerance=1e-3)
        # Only the single real trace ran a round; one round is never enough
        # for the rounds > 1 convergence rule.
        assert report.rounds == 1
        assert not report.converged

    def test_lossy_piggybacking_needs_consecutive_quiet_rounds(self):
        """Regression: the lazy schedule declared convergence after a single
        quiet round, which under heavy loss may just mean the informative
        messages were dropped (seed 0 stopped after 6 rounds, 0.063 from
        the lossless fixed point)."""
        reference = make_engine().run().posteriors
        engine = EmbeddedMessagePassing(
            intro_example_feedbacks(),
            priors=0.5,
            delta=0.1,
            transport=MessageTransport(0.2, seed=0),
            options=EmbeddedOptions(max_rounds=200),
        )
        report = LazySchedule(engine).process_traces(
            self._traces(count=200, seed=0), tolerance=1e-3
        )
        assert report.converged
        assert report.rounds >= required_quiet_rounds(0.2)
        posteriors = engine.posteriors()
        assert max(abs(posteriors[n] - reference[n]) for n in reference) < 0.01
