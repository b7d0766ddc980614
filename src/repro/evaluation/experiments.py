"""Experiment runners reproducing every figure of the paper's evaluation.

Each ``run_*`` function reproduces one experiment of §5 (or one of the
ablations DESIGN.md adds) and returns a small result dataclass holding the
series the paper plots; the throughput runners return tuples of points
timed by :func:`~repro.evaluation.timing.measure`.  The benchmark harness
under ``benchmarks/`` calls these runners and prints paper-vs-measured
tables; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..constants import COUNT_KERNEL_MIN_ARITY, DEFAULT_SEED
from ..core.analysis import analyze_network, structure_feedbacks
from ..core.beliefs import PriorBeliefStore
from ..core.embedded import EmbeddedMessagePassing, EmbeddedOptions, MessageTransport
from ..core.feedback import Feedback, FeedbackKind, variable_name_for
from ..core.pdms_factor_graph import build_factor_graph
from ..core.quality import MappingQualityAssessor
from ..core.schedules import LazySchedule, PeriodicSchedule
from ..exceptions import EvaluationError
from ..factorgraph.exact import exact_marginals
from ..factorgraph.sum_product import SumProduct, run_sum_product
from ..generators.scenarios import generate_scenario, inject_errors
from ..generators.topologies import cycle_network, identity_mapping, scale_free_network
from ..generators.paper import (
    INTRO_ATTRIBUTE,
    extended_cycle_feedbacks,
    figure4_feedbacks,
    intro_example_feedbacks,
    intro_example_network,
    single_cycle_feedback,
)
from ..alignment.eon import EONScenario, build_eon_network
from ..pdms.discovery import TopologySnapshot
from ..pdms.events import MappingAdded, PeerAdded
from ..pdms.gossip import GossipHarness, SeededTransport
from ..pdms.network import PDMSNetwork
from ..pdms.query import Query, substring_predicate
from ..pdms.routing import QueryRouter, RoutingPolicy
from .baselines import chatty_web_baseline
from .metrics import DetectionMetrics, precision_curve, score_detection
from .reporting import Column
from .timing import Measurement, measure

__all__ = [
    "IntroExampleResult",
    "run_intro_example",
    "ConvergenceResult",
    "run_convergence",
    "RelativeErrorResult",
    "run_relative_error",
    "CycleLengthResult",
    "run_cycle_length",
    "FaultToleranceResult",
    "run_fault_tolerance",
    "AdversarialFeedbackResult",
    "run_adversarial_feedback",
    "RealWorldResult",
    "run_real_world",
    "BaselineComparisonResult",
    "run_baseline_comparison",
    "ScheduleComparisonResult",
    "run_schedule_comparison",
    "throughput_network",
    "throughput_feedbacks",
    "EmbeddedThroughputPoint",
    "run_embedded_throughput",
    "AMORTIZATION_MODES",
    "AssessorAmortizationPoint",
    "run_assessor_amortization",
    "BatchedAssessmentPoint",
    "run_batched_assessment",
    "LocalAssessmentPoint",
    "run_local_assessment",
    "LongCycleThroughputPoint",
    "long_cycle_network",
    "run_long_cycle_throughput",
    "ProbeThroughputPoint",
    "run_probe_throughput",
    "GossipConvergencePoint",
    "gossip_workload_network",
    "run_gossip_convergence",
]


# ---------------------------------------------------------------------------
# E1 — the worked example of §4.5 (and the introductory example of §1.2)
# ---------------------------------------------------------------------------


@dataclass
class IntroExampleResult:
    """Outcome of the §4.5 worked example."""

    posteriors: Dict[str, float]
    updated_priors: Dict[str, float]
    iterations: int
    converged: bool
    standard_answer_count: int
    standard_false_positive_count: int
    aware_answer_count: int
    aware_false_positive_count: int
    blocked_mappings: Tuple[str, ...]


def run_intro_example(
    delta: float = 0.1,
    theta: float = 0.5,
    max_rounds: int = 30,
) -> IntroExampleResult:
    """Reproduce §4.5: detect the faulty ``p2→p4`` mapping and re-route.

    The probabilistic part uses exactly the three feedbacks the paper lists
    (f1+, f2−, f3−⇒) with uniform priors and Δ = 0.1; the routing part runs
    the river-artists query of §1.2 against the four-peer art network, once
    with the standard quality-unaware router and once with the θ-aware
    router, counting false positives (answers whose ``Creator`` value is a
    date, i.e. produced by the faulty mapping).
    """
    feedbacks = intro_example_feedbacks()
    engine = EmbeddedMessagePassing(
        feedbacks,
        priors=0.5,
        delta=delta,
        options=EmbeddedOptions(max_rounds=max_rounds),
    )
    result = engine.run()

    # EM prior update (§4.4): fold the posteriors into the prior store once.
    store = PriorBeliefStore()
    for mapping_name, posterior in result.posteriors.items():
        store.record_posterior(mapping_name, INTRO_ATTRIBUTE, posterior)
        # A second observation at the maximum-entropy value mirrors the
        # paper's partially-updated priors (0.55 / 0.4 rather than the raw
        # posteriors): the prior moves towards the evidence without jumping
        # all the way on a single observation.
        store.record_posterior(mapping_name, INTRO_ATTRIBUTE, 0.5)
    updated_priors = {
        mapping_name: store.prior(mapping_name, INTRO_ATTRIBUTE)
        for mapping_name in result.posteriors
    }

    # Routing comparison on the materialised art network.
    network = intro_example_network(with_records=True)
    query = Query.select_project(
        "p2",
        project=["Creator"],
        where={"Subject": substring_predicate("river")},
        where_descriptions={"Subject": "LIKE '%river%'"},
    )

    def count_false_positives(records) -> int:
        # The query asks for artist names (Creator).  Answers produced via
        # the faulty mapping were reformulated onto CreatedOn, so they either
        # lack a Creator value entirely or carry a year where a name should
        # be — both count as false positives.
        false_positives = 0
        for record in records:
            creator = record.get("Creator")
            if creator is None or str(creator).isdigit():
                false_positives += 1
        return false_positives

    standard_router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
    standard_trace = standard_router.route(query)
    standard_records = [
        record for answer in standard_trace.answers for record in answer.records
    ]

    posteriors_by_pair = {
        (name, INTRO_ATTRIBUTE): value for name, value in result.posteriors.items()
    }

    def oracle(mapping, attribute):
        return posteriors_by_pair.get((mapping.name, attribute), 1.0)

    aware_router = QueryRouter(
        network,
        policy=RoutingPolicy(default_threshold=theta),
        quality_oracle=oracle,
    )
    aware_trace = aware_router.route(query)
    aware_records = [
        record for answer in aware_trace.answers for record in answer.records
    ]
    blocked = tuple(hop.mapping_name for hop in aware_trace.blocked_hops)

    return IntroExampleResult(
        posteriors=result.posteriors,
        updated_priors=updated_priors,
        iterations=result.iterations,
        converged=result.converged,
        standard_answer_count=len(standard_records),
        standard_false_positive_count=count_false_positives(standard_records),
        aware_answer_count=len(aware_records),
        aware_false_positive_count=count_false_positives(aware_records),
        blocked_mappings=blocked,
    )


# ---------------------------------------------------------------------------
# E2 — Figure 7: convergence of the iterative message passing
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceResult:
    """Posterior trajectory per mapping per iteration (Figure 7)."""

    history: Dict[str, List[float]]
    iterations: int
    converged: bool
    final_posteriors: Dict[str, float]


def run_convergence(
    priors: float = 0.7,
    delta: float = 0.1,
    signs: Sequence[str] = ("+", "-", "-"),
    max_rounds: int = 20,
    tolerance: float = 1e-3,
) -> ConvergenceResult:
    """Reproduce Figure 7 on the Figure 4 example graph."""
    feedbacks = figure4_feedbacks(signs=signs)
    engine = EmbeddedMessagePassing(
        feedbacks,
        priors=priors,
        delta=delta,
        options=EmbeddedOptions(
            max_rounds=max_rounds, tolerance=tolerance, record_history=True
        ),
    )
    result = engine.run()
    history = {
        mapping_name: result.history_of(mapping_name)
        for mapping_name in result.posteriors
    }
    return ConvergenceResult(
        history=history,
        iterations=result.iterations,
        converged=result.converged,
        final_posteriors=result.posteriors,
    )


# ---------------------------------------------------------------------------
# E3 — Figure 9: relative error of the iterative scheme vs exact inference
# ---------------------------------------------------------------------------


@dataclass
class RelativeErrorResult:
    """Error of the iterative scheme vs exact inference per cycle length
    (Figure 9).

    ``points`` holds the primary series the figure plots: the mean absolute
    deviation of the posterior probabilities (iterative vs exact), per
    length of the long cycle.  ``worst_case_points`` additionally records
    the largest absolute deviation across the mapping variables of each
    configuration, a stricter view of the same comparison.
    """

    points: List[Tuple[int, float]]
    worst_case_points: List[Tuple[int, float]]
    mean_error: float
    max_error: float


def run_relative_error(
    extra_peer_range: Sequence[int] = tuple(range(0, 8)),
    priors: float = 0.8,
    delta: float = 0.1,
    iterations: int = 10,
) -> RelativeErrorResult:
    """Reproduce Figure 9: grow the long cycle and compare to exact marginals.

    For each number of inserted peers, the long cycles f1/f2 of the example
    graph get longer (Figure 8); the iterative scheme runs for a fixed
    number of iterations and its posteriors are compared with exhaustive
    exact inference on the same factor graph.

    The paper does not spell out the exact error functional; we report the
    mean absolute deviation of P(correct) across the mapping variables
    (which reproduces the figure's shape: the error is largest for the
    shortest cycles and stays below ~6%), and keep the per-configuration
    worst-case deviation alongside for transparency.
    """
    points: List[Tuple[int, float]] = []
    worst_case_points: List[Tuple[int, float]] = []
    for extra in extra_peer_range:
        feedbacks = extended_cycle_feedbacks(extra)
        cycle_length = 4 + extra
        engine = EmbeddedMessagePassing(
            feedbacks,
            priors=priors,
            delta=delta,
            options=EmbeddedOptions(
                max_rounds=iterations, tolerance=1e-12, record_history=False
            ),
        )
        approx = engine.run().posteriors
        graph = build_factor_graph(feedbacks, priors=priors, delta=delta).graph
        exact = exact_marginals(graph)
        deviations: List[float] = []
        for mapping_name, approx_value in approx.items():
            exact_value = float(
                exact[variable_name_for(mapping_name, INTRO_ATTRIBUTE)][0]
            )
            deviations.append(abs(approx_value - exact_value))
        points.append((cycle_length, sum(deviations) / len(deviations)))
        worst_case_points.append((cycle_length, max(deviations)))
    errors = [error for _, error in points]
    return RelativeErrorResult(
        points=points,
        worst_case_points=worst_case_points,
        mean_error=sum(errors) / len(errors) if errors else 0.0,
        max_error=max(errors) if errors else 0.0,
    )


# ---------------------------------------------------------------------------
# E4 — Figure 10: impact of the cycle length on the posterior
# ---------------------------------------------------------------------------


@dataclass
class CycleLengthResult:
    """Posterior P(correct) per cycle length, one series per Δ (Figure 10)."""

    series: Dict[float, List[Tuple[int, float]]]


def run_cycle_length(
    lengths: Sequence[int] = tuple(range(2, 21)),
    deltas: Sequence[float] = (0.01, 0.1, 0.2),
    priors: float = 0.5,
    iterations: int = 2,
) -> CycleLengthResult:
    """Reproduce Figure 10 on single positive cycles of 2–20 mappings."""
    series: Dict[float, List[Tuple[int, float]]] = {}
    for delta in deltas:
        points: List[Tuple[int, float]] = []
        for length in lengths:
            feedback = single_cycle_feedback(length, kind="+")
            engine = EmbeddedMessagePassing(
                [feedback],
                priors=priors,
                delta=delta,
                options=EmbeddedOptions(max_rounds=iterations, tolerance=1e-12),
            )
            posterior = engine.run().posteriors["p1->p2"]
            points.append((length, posterior))
        series[delta] = points
    return CycleLengthResult(series=series)


# ---------------------------------------------------------------------------
# E5 — Figure 11: robustness against lost messages
# ---------------------------------------------------------------------------


@dataclass
class FaultToleranceResult:
    """Iterations needed to converge per message send probability (Figure 11)."""

    points: List[Tuple[float, float, float]]
    max_rounds: int
    reference_posteriors: Dict[str, float] = field(default_factory=dict)

    def iterations_at(self, send_probability: float) -> float:
        for probability, iterations, _ in self.points:
            if abs(probability - send_probability) < 1e-9:
                return iterations
        raise KeyError(send_probability)


def run_fault_tolerance(
    send_probabilities: Sequence[float] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
    priors: float = 0.8,
    delta: float = 0.1,
    signs: Sequence[str] = ("+", "-", "-"),
    repetitions: int = 10,
    max_rounds: int = 600,
    tolerance: float = 0.01,
    seed: int = 0,
) -> FaultToleranceResult:
    """Reproduce Figure 11: drop messages at random, measure convergence.

    Convergence is measured against the *lossless* fixed point: a lossy run
    counts as converged at the first round where every posterior is within
    ``tolerance`` of the posterior a fully reliable run converges to (the
    paper's point being that lost messages slow the algorithm down but do
    not change where it ends up).  Returns ``(P(send), mean iterations to
    reach the fixed point, fraction of repetitions that reached it)``.
    """
    # Reference fixed point from a perfectly reliable run.
    reference_engine = EmbeddedMessagePassing(
        figure4_feedbacks(signs=signs),
        priors=priors,
        delta=delta,
        options=EmbeddedOptions(max_rounds=max_rounds, tolerance=1e-9),
    )
    reference = reference_engine.run().posteriors

    def rounds_to_reach_reference(engine: EmbeddedMessagePassing) -> Optional[int]:
        for round_number in range(1, max_rounds + 1):
            engine.run_round()
            posteriors = engine.posteriors()
            if all(
                abs(posteriors[name] - reference[name]) <= tolerance
                for name in reference
            ):
                return round_number
        return None

    points: List[Tuple[float, float, float]] = []
    for send_probability in send_probabilities:
        iteration_counts: List[int] = []
        converged_count = 0
        for repetition in range(repetitions):
            engine = EmbeddedMessagePassing(
                figure4_feedbacks(signs=signs),
                priors=priors,
                delta=delta,
                transport=MessageTransport(
                    send_probability, seed=seed + repetition * 1009
                ),
                options=EmbeddedOptions(max_rounds=max_rounds),
            )
            rounds = rounds_to_reach_reference(engine)
            if rounds is None:
                iteration_counts.append(max_rounds)
            else:
                iteration_counts.append(rounds)
                converged_count += 1
        points.append(
            (
                send_probability,
                sum(iteration_counts) / len(iteration_counts),
                converged_count / repetitions,
            )
        )
    return FaultToleranceResult(
        points=points, max_rounds=max_rounds, reference_posteriors=reference
    )


@dataclass
class AdversarialFeedbackResult:
    """Quarantine speed of the assessment layer under colluding liars.

    One point per liar fraction: ``(fraction, mean rounds until every
    evidence-covered erroneous mapping sits below θ, fraction of attributes
    fully quarantined, mean false-quarantine count at the fixed point)``.
    """

    points: List[Tuple[float, float, float, float]]
    theta: float
    max_rounds: int

    def point_at(self, liar_fraction: float) -> Tuple[float, float, float, float]:
        for point in self.points:
            if abs(point[0] - liar_fraction) < 1e-9:
                return point
        raise EvaluationError(
            f"no adversarial feedback point for liar fraction {liar_fraction}"
        )


def _flip_feedback(feedback: Feedback) -> Feedback:
    """A liar's report: positive evidence claimed negative and vice versa."""
    if feedback.kind is FeedbackKind.POSITIVE:
        return replace(feedback, kind=FeedbackKind.NEGATIVE)
    if feedback.kind is FeedbackKind.NEGATIVE:
        return replace(feedback, kind=FeedbackKind.POSITIVE)
    return feedback


def run_adversarial_feedback(
    liar_fractions: Sequence[float] = (0.0, 0.1, 0.25),
    peer_count: int = 20,
    attribute_count: int = 4,
    error_rate: float = 0.25,
    ttl: int = 3,
    theta: float = 0.5,
    priors: float = 0.7,
    delta: float = 0.1,
    max_rounds: int = 60,
    seed: int = 0,
) -> AdversarialFeedbackResult:
    """Measure rounds-until-θ-quarantine under colluding lying peers.

    The message-loss experiment (Figure 11) stresses the *transport*; this
    one stresses the *feedback* itself — the paper's Byzantine concern that
    peers may report wrong cycle/path evidence.  A seeded fraction of peers
    colludes: every feedback such a peer originates has its sign flipped
    (positive evidence reported negative and vice versa) before the
    embedded engine runs.  For each attribute of a generated scenario the
    engine is advanced round by round and the experiment records the first
    round at which every *evidence-covered* genuinely-erroneous mapping has
    posterior ≤ θ — the round the network would quarantine its faulty
    links.  Attributes whose erroneous mappings never all drop below θ
    within ``max_rounds`` count as not quarantined (liars succeeded in
    shielding an erroneous mapping).  ``false_quarantines`` counts healthy
    mappings pushed below θ at the fixed point — liars framing good links.

    Everything is deterministic: the scenario, the liar set per fraction
    (seeded from ``seed``) and the lossless engine runs.
    """
    scenario = generate_scenario(
        peer_count=peer_count,
        attribute_count=attribute_count,
        error_rate=error_rate,
        seed=seed,
    )
    network = scenario.network
    peers = sorted(network.peer_names)

    # Structures (and thus honest evidence) are fraction-independent:
    # gather once per attribute, flip per liar set.
    attributes = sorted({attribute for _, attribute in scenario.ground_truth})
    evidence = {
        attribute: analyze_network(network, attribute, ttl=ttl)
        for attribute in attributes
    }

    points: List[Tuple[float, float, float, float]] = []
    for fraction in liar_fractions:
        liar_count = int(round(fraction * peer_count))
        rng = random.Random(seed * 7919 + round(fraction * 1000))
        liars = set(rng.sample(peers, liar_count)) if liar_count else set()

        rounds_needed: List[int] = []
        quarantined_attributes = 0
        measured_attributes = 0
        false_quarantines: List[int] = []
        for attribute in attributes:
            feedbacks = [
                _flip_feedback(f) if f.origin in liars else f
                for f in evidence[attribute].feedbacks
            ]
            engine = EmbeddedMessagePassing(
                feedbacks,
                priors=priors,
                delta=delta,
                options=EmbeddedOptions(max_rounds=max_rounds),
            )
            erroneous = set(scenario.erroneous_mappings(attribute))
            posteriors = engine.posteriors()
            covered = erroneous & set(posteriors)
            if not covered:
                continue  # nothing quarantinable is evidence-covered
            measured_attributes += 1
            quarantine_round: Optional[int] = None
            for round_number in range(1, max_rounds + 1):
                engine.run_round()
                posteriors = engine.posteriors()
                if all(posteriors[name] <= theta for name in covered):
                    quarantine_round = round_number
                    break
            if quarantine_round is None:
                rounds_needed.append(max_rounds)
            else:
                rounds_needed.append(quarantine_round)
                quarantined_attributes += 1
            healthy = set(posteriors) - erroneous
            false_quarantines.append(
                sum(1 for name in healthy if posteriors[name] <= theta)
            )
        if not measured_attributes:
            raise EvaluationError(
                "adversarial feedback scenario produced no evidence-covered "
                "erroneous mappings; raise error_rate or peer_count"
            )
        points.append(
            (
                fraction,
                sum(rounds_needed) / len(rounds_needed),
                quarantined_attributes / measured_attributes,
                sum(false_quarantines) / len(false_quarantines),
            )
        )
    return AdversarialFeedbackResult(
        points=points, theta=theta, max_rounds=max_rounds
    )


# ---------------------------------------------------------------------------
# E6 — Figure 12: precision on the (synthetic) EON bibliography schemas
# ---------------------------------------------------------------------------


@dataclass
class RealWorldResult:
    """Precision / recall vs θ on the synthetic EON scenario (Figure 12)."""

    thetas: Tuple[float, ...]
    metrics: Dict[float, DetectionMetrics]
    correspondence_count: int
    erroneous_count: int
    posteriors: Dict[Tuple[str, str], float]
    scenario: EONScenario

    def precision_at(self, theta: float) -> float:
        return self.metrics[theta].precision

    def recall_at(self, theta: float) -> float:
        return self.metrics[theta].recall


def run_real_world(
    thetas: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    ttl: int = 3,
    delta: float = 0.1,
    priors: float = 0.5,
    max_rounds: int = 30,
    alignment_threshold: float = 0.55,
    scenario: Optional[EONScenario] = None,
) -> RealWorldResult:
    """Reproduce Figure 12 on the synthetic EON bibliography network.

    For every peer and every attribute of its schema, the peer judges its
    *own* outgoing mappings from the cycles through itself (up to ``ttl``
    mappings) with uniform priors — the §4.5 decision each peer can make
    locally, taken on the production path
    (:meth:`~repro.core.quality.MappingQualityAssessor.assess_locals`; the
    attribute is interpreted in the peer's own schema).  Detection is then
    scored against the alignment ground truth for every θ.
    """
    scenario = scenario or build_eon_network(threshold=alignment_threshold)
    network = scenario.network
    assessor = MappingQualityAssessor(
        network,
        priors=PriorBeliefStore(default_prior=priors),
        delta=delta,
        ttl=ttl,
        options=EmbeddedOptions(max_rounds=max_rounds, record_history=False),
        include_parallel_paths=False,
    )
    posteriors: Dict[Tuple[str, str], float] = {}
    for peer in network.peers:
        for attribute in peer.schema.attribute_names:
            view = assessor.assess_locals([peer.name], attribute)[peer.name]
            for mapping_name, posterior in view.items():
                if (mapping_name, attribute) in scenario.ground_truth:
                    posteriors[(mapping_name, attribute)] = posterior

    metric_points = precision_curve(posteriors, scenario.ground_truth, thetas)
    return RealWorldResult(
        thetas=tuple(thetas),
        metrics={theta: metrics for theta, metrics in metric_points},
        correspondence_count=scenario.correspondence_count,
        erroneous_count=scenario.erroneous_count,
        posteriors=posteriors,
        scenario=scenario,
    )


# ---------------------------------------------------------------------------
# E7 — ablation: probabilistic inference vs the Chatty-Web heuristic
# ---------------------------------------------------------------------------


@dataclass
class BaselineComparisonResult:
    """Probabilistic detector vs the deductive Chatty-Web baseline."""

    probabilistic: DetectionMetrics
    baseline: DetectionMetrics
    probabilistic_flagged: Tuple[str, ...]
    baseline_flagged: Tuple[str, ...]


def run_baseline_comparison(theta: float = 0.5, delta: float = 0.1) -> BaselineComparisonResult:
    """Compare the two detectors on the introductory example (§6).

    Ground truth: only ``p2→p4`` is erroneous for ``Creator``.  The paper
    notes its earlier heuristic would disqualify all three mappings on the
    negative structures while the probabilistic scheme flags only the truly
    faulty one.
    """
    feedbacks = intro_example_feedbacks()
    ground_truth = {
        ("p1->p2", INTRO_ATTRIBUTE): True,
        ("p2->p3", INTRO_ATTRIBUTE): True,
        ("p3->p4", INTRO_ATTRIBUTE): True,
        ("p4->p1", INTRO_ATTRIBUTE): True,
        ("p2->p4", INTRO_ATTRIBUTE): False,
    }
    engine = EmbeddedMessagePassing(feedbacks, priors=0.5, delta=delta)
    result = engine.run()
    probabilistic_posteriors = {
        (name, INTRO_ATTRIBUTE): value for name, value in result.posteriors.items()
    }
    baseline_posteriors = chatty_web_baseline(feedbacks)
    probabilistic_metrics = score_detection(
        probabilistic_posteriors, ground_truth, theta=theta
    )
    baseline_metrics = score_detection(baseline_posteriors, ground_truth, theta=theta)
    return BaselineComparisonResult(
        probabilistic=probabilistic_metrics,
        baseline=baseline_metrics,
        probabilistic_flagged=tuple(
            sorted(
                name
                for (name, _), value in probabilistic_posteriors.items()
                if value <= theta
            )
        ),
        baseline_flagged=tuple(
            sorted(
                name
                for (name, _), value in baseline_posteriors.items()
                if value <= theta
            )
        ),
    )


# ---------------------------------------------------------------------------
# E8 — ablation: periodic vs lazy schedules
# ---------------------------------------------------------------------------


@dataclass
class ScheduleComparisonResult:
    """Periodic vs lazy schedule: rounds and messages to convergence."""

    periodic_rounds: int
    periodic_messages: int
    lazy_rounds: int
    lazy_messages: int
    periodic_posteriors: Dict[str, float]
    lazy_posteriors: Dict[str, float]


def run_schedule_comparison(
    delta: float = 0.1,
    priors: float = 0.5,
    query_count: int = 60,
    tolerance: float = 1e-3,
    seed: int = 0,
) -> ScheduleComparisonResult:
    """Compare the two schedules of §4.3 on the introductory example.

    The periodic schedule runs proactive rounds; the lazy schedule
    piggybacks on a synthetic query workload (random origins, the river
    query of §1.2), exchanging messages only for the mappings each query
    actually traverses.
    """
    network = intro_example_network(with_records=True)
    rng = random.Random(seed)

    periodic_engine = EmbeddedMessagePassing(
        intro_example_feedbacks(),
        priors=priors,
        delta=delta,
        options=EmbeddedOptions(max_rounds=100, tolerance=tolerance),
    )
    periodic = PeriodicSchedule(periodic_engine, tau=1.0)
    periodic_report = periodic.run(periods=100, tolerance=tolerance)

    lazy_engine = EmbeddedMessagePassing(
        intro_example_feedbacks(),
        priors=priors,
        delta=delta,
        options=EmbeddedOptions(max_rounds=1000, tolerance=tolerance),
    )
    lazy = LazySchedule(lazy_engine)
    router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
    traces = []
    for _ in range(query_count):
        origin = rng.choice(network.peer_names)
        query = Query.select_project(
            origin,
            project=["Creator"],
            where={"Subject": substring_predicate("river")},
        )
        traces.append(router.route(query, origin=origin))
    lazy_report = lazy.process_traces(traces, tolerance=tolerance)

    return ScheduleComparisonResult(
        periodic_rounds=periodic_report.rounds,
        periodic_messages=periodic_report.messages_attempted,
        lazy_rounds=lazy_report.rounds,
        lazy_messages=lazy_report.messages_attempted,
        periodic_posteriors=periodic_engine.posteriors(),
        lazy_posteriors=lazy_engine.posteriors(),
    )


# ---------------------------------------------------------------------------
# EX — throughput: per-layer runners, each a tuple of points timed by measure
# ---------------------------------------------------------------------------
#
# A point keeps its ``Measurement``, so its rates and speedups derive from
# the timed samples, and declares its table once (``COLUMNS``).


def throughput_network(
    peer_count: int, attribute_count: int = 10, error_rate: float = 0.15
) -> PDMSNetwork:
    """The scale-free benchmark PDMS of ``peer_count`` peers (seeded with
    the peer count) that the embedded, amortization, batched and local
    throughput runs share."""
    return generate_scenario(
        topology="scale-free",
        peer_count=peer_count,
        attribute_count=attribute_count,
        error_rate=error_rate,
        seed=peer_count,
    ).network


def throughput_feedbacks(peer_count: int, ttl: int = 3, attribute_count: int = 10):
    """Informative cycle feedback of the benchmark scale-free PDMS.

    Returns the informative feedbacks of the first attribute of the
    :func:`throughput_network` that has any, so the evidence is never empty.
    """
    network = throughput_network(peer_count, attribute_count)
    for attribute in network.attribute_universe():
        evidence = analyze_network(
            network, attribute, ttl=ttl, include_parallel_paths=False
        )
        if evidence.informative_feedbacks:
            return evidence.informative_feedbacks
    raise EvaluationError(
        f"no attribute of the {peer_count}-peer scenario produced informative "
        "feedback; increase ttl or the error rate"
    )


def _rounds_of(build: Callable[[], object], step: str, rounds: int):
    """A :func:`measure` setup: build an engine untimed, then time exactly
    ``rounds`` calls of its ``step`` method; the timed call returns the
    engine."""

    def setup():
        engine = build()
        advance = getattr(engine, step)

        def run():
            for _ in range(rounds):
                advance()
            return engine

        return run

    return setup


@dataclass(frozen=True)
class EmbeddedThroughputPoint:
    """Round throughput of one-lane embedded runs on one generated PDMS.

    Every timed run is a fresh engine over the same feedback evidence with
    an identically seeded transport, replaying the same message schedule;
    ``timing`` holds each run's wall time for ``rounds`` rounds and the
    rates are their median.
    """

    peer_count: int
    mapping_count: int
    feedback_count: int
    remote_messages_per_round: int
    rounds: int
    send_probability: float
    timing: Measurement

    COLUMNS: ClassVar[Tuple[Column, ...]] = (
        Column("peers", "peer_count"),
        Column("P(send)", "send_probability"),
        Column("feedbacks", "feedback_count"),
        Column("remote msgs/round", "remote_messages_per_round"),
        Column("rounds/s", "rounds_per_second", "{:,.0f}"),
        Column("rounds/s IQR", "rounds_per_second_iqr", "{0[0]:,.0f}–{0[1]:,.0f}"),
        Column("messages/s", "messages_per_second", "{:,.0f}"),
    )

    @property
    def rounds_per_second(self) -> float:
        return self.rounds / self.timing.median()

    @property
    def rounds_per_second_iqr(self) -> Tuple[float, float]:
        first, third = self.timing.quartiles()
        return self.rounds / third, self.rounds / first

    @property
    def messages_per_second(self) -> float:
        return self.rounds_per_second * self.remote_messages_per_round


def run_embedded_throughput(
    peer_counts: Sequence[int] = (8, 16, 32, 64),
    ttl: int = 3,
    rounds: int = 25,
    repeats: int = 3,
    send_probability: float = 1.0,
    seed: int = 0,
) -> Tuple[EmbeddedThroughputPoint, ...]:
    """Measure embedded rounds per second of the lane engine, one lane.

    For each peer count the cycle feedback of a scale-free PDMS is gathered
    once, then ``repeats`` runs of ``rounds`` rounds are timed, each on a
    fresh :class:`EmbeddedMessagePassing` (construction outside the timed
    section).  ``send_probability < 1`` exercises the lossy exchange.
    """
    points: List[EmbeddedThroughputPoint] = []
    for peer_count in peer_counts:
        feedbacks = throughput_feedbacks(peer_count, ttl=ttl)
        timing = measure(
            [
                _rounds_of(
                    lambda: EmbeddedMessagePassing(
                        feedbacks,
                        priors=0.5,
                        delta=0.1,
                        transport=MessageTransport(send_probability, seed=seed),
                        options=EmbeddedOptions(record_history=False),
                    ),
                    "run_round",
                    rounds,
                )
            ],
            repeats,
        )
        (engine,) = timing.values
        points.append(
            EmbeddedThroughputPoint(
                peer_count=peer_count,
                mapping_count=len(engine.mapping_names),
                feedback_count=len(feedbacks),
                remote_messages_per_round=engine.remote_message_count,
                rounds=rounds,
                send_probability=send_probability,
                timing=timing,
            )
        )
    return tuple(points)


# ---------------------------------------------------------------------------
# EX — assessor amortization: probe-once structure cache across attributes
# ---------------------------------------------------------------------------


AMORTIZATION_MODES = ("probe per attribute", "cached + sequential", "cached + batched")


@dataclass(frozen=True)
class AssessorAmortizationPoint:
    """One of the :data:`AMORTIZATION_MODES` of assessing every attribute
    of one PDMS: a fresh assessor per attribute (the baseline), one
    assessor running one one-lane ``assess_attribute`` per attribute (one
    probe), or one ``assess_all_attributes`` pass (one probe, one plan,
    every attribute a lane of one run).  The three share one
    :func:`measure` run, this mode being side ``side``; every timed pass
    pays its own cold probe, so ``speedup`` (the median per-pair ratio of
    the baseline's time to this mode's) composes.
    ``max_posterior_difference`` is taken against the baseline.
    """

    mode: str
    peer_count: int
    attribute_count: int
    probes: int
    plan_compiles: int
    max_posterior_difference: float
    side: int
    timing: Measurement

    COLUMNS: ClassVar[Tuple[Column, ...]] = (
        Column("mode", "mode"),
        Column("peers", "peer_count"),
        Column("attributes", "attribute_count"),
        Column("probes", "probes"),
        Column("plan compiles", "plan_compiles"),
        Column("seconds", "seconds", "{:.3f}"),
        Column("speedup", "speedup", "{:.1f}x"),
        Column("max |Δposterior|", "max_posterior_difference", "{:.1e}"),
    )

    @property
    def seconds(self) -> float:
        return self.timing.median(self.side)

    @property
    def speedup(self) -> float:
        return self.timing.speedup(0, self.side)


def _max_posterior_difference(assessments, reference) -> float:
    """Largest |Δposterior| between two ``{attribute: assessment}`` passes."""
    return max(
        (
            abs(value - reference[attribute].posteriors[name])
            for attribute, assessment in assessments.items()
            for name, value in assessment.posteriors.items()
        ),
        default=0.0,
    )


def run_assessor_amortization(
    peer_count: int = 32,
    attribute_count: int = 10,
    ttl: int = 3,
    error_rate: float = 0.15,
    seed: Optional[int] = 0,
) -> Tuple[AssessorAmortizationPoint, ...]:
    """Measure the probe-once cache and the batched engine on a full pass:
    every attribute of one generated scale-free PDMS assessed in the three
    :data:`AMORTIZATION_MODES`, in three pairs (each mode runs first once).

    Every assessor of a network reads the network's shared per-version
    snapshot, whose remembered walks would let the first probe serve the
    later ones; the snapshot is dropped before every fresh assessor, so
    each probe walks cold.
    """
    network = throughput_network(peer_count, attribute_count, error_rate)
    attributes = network.attribute_universe()

    def assessor() -> MappingQualityAssessor:
        network.invalidate_snapshot()
        return MappingQualityAssessor(
            network, delta=None, ttl=ttl, include_parallel_paths=False, seed=seed
        )

    def per_attribute():
        fresh: List[MappingQualityAssessor] = []

        def run():
            assessments = {}
            for attribute in attributes:
                fresh.append(assessor())
                assessments[attribute] = fresh[-1].assess_attribute(attribute)
            return fresh, assessments

        return run

    def cached():
        shared = assessor()
        return lambda: ([shared], {a: shared.assess_attribute(a) for a in attributes})

    def batched():
        shared = assessor()
        return lambda: ([shared], shared.assess_all_attributes())

    timing = measure([per_attribute, cached, batched], 3)
    reference = timing.values[0][1]
    return tuple(
        AssessorAmortizationPoint(
            mode=mode,
            peer_count=peer_count,
            attribute_count=len(attributes),
            probes=sum(a.structure_cache.statistics.probes for a in assessors),
            plan_compiles=sum(a.plan_compile_count for a in assessors),
            max_posterior_difference=_max_posterior_difference(assessments, reference),
            side=side,
            timing=timing,
        )
        for side, (mode, (assessors, assessments)) in enumerate(
            zip(AMORTIZATION_MODES, timing.values)
        )
    )


# ---------------------------------------------------------------------------
# EX — batched assessment: one stacked engine vs engine-per-attribute sweeps
# ---------------------------------------------------------------------------


class _OneLaneVsLanes:
    """Times and speedup of a point timed by :func:`_one_lane_vs_lanes`."""

    timing: Measurement

    @property
    def sequential_seconds(self) -> float:
        return self.timing.median(0)

    @property
    def batched_seconds(self) -> float:
        return self.timing.median(1)

    @property
    def speedup(self) -> float:
        return self.timing.speedup(0, 1)


def _one_lane_vs_lanes(
    network: PDMSNetwork, warm, one_lane, lanes, repeats: int, **options
) -> Measurement:
    """Time one-lane runs (side 0) against one run of every lane (side 1)
    in ``repeats`` alternating pairs, each run on a fresh assessor of
    ``network`` (built with ``options``) that ``warm`` prepares outside the
    timed region; each side's call returns ``(assessor, result)``."""

    def side(run):
        def setup():
            assessor = MappingQualityAssessor(
                network, delta=None, include_parallel_paths=False, **options
            )
            warm(assessor)
            return lambda: (assessor, run(assessor))

        return setup

    return measure([side(one_lane), side(lanes)], repeats)


@dataclass(frozen=True)
class BatchedAssessmentPoint(_OneLaneVsLanes):
    """Timing of a multi-attribute sweep: stacked lanes vs one-lane runs.

    Both assessors share a warm structure cache (the probe is excluded from
    the timed region — it is identical on both sides) and run the same
    cached plan, so the comparison isolates what stacking the attribute
    lanes buys: one engine construction and one set of numpy calls per
    round instead of one per attribute.  The posteriors of the two paths
    must agree to floating-point accuracy under identical seeds.

    ``timing`` side 0 is the one-lane runs, side 1 the stacked lanes,
    timed in alternating pairs; :attr:`speedup` is the median of the
    per-pair ratios.
    """

    peer_count: int
    attribute_count: int
    structure_count: int
    mapping_count: int
    plan_compiles: int
    max_posterior_difference: float
    send_probability: float
    timing: Measurement

    COLUMNS: ClassVar[Tuple[Column, ...]] = (
        Column("peers", "peer_count"),
        Column("P(send)", "send_probability"),
        Column("attributes", "attribute_count"),
        Column("structures", "structure_count"),
        Column("one-lane runs ms", "sequential_seconds", "{:.1f}", 1e3),
        Column("stacked lanes ms", "batched_seconds", "{:.1f}", 1e3),
        Column("speedup", "speedup", "{:.1f}x"),
        Column("max |Δposterior|", "max_posterior_difference", "{:.1e}"),
    )


def run_batched_assessment(
    peer_counts: Sequence[int] = (16, 32),
    attribute_count: int = 10,
    ttl: int = 3,
    repeats: int = 7,
    send_probability: float = 1.0,
    error_rate: float = 0.15,
    seed: Optional[int] = 0,
) -> Tuple[BatchedAssessmentPoint, ...]:
    """Measure ``assess_all_attributes`` against one-lane runs per attribute.

    For each peer count a scale-free PDMS is generated and the full
    multi-attribute sweep is timed as one run with every attribute a lane
    (``assess_all_attributes``) and as one one-lane ``assess_attribute``
    run per attribute, both on the assessor's cached plan.  The two are
    timed in ``repeats`` alternating pairs — every run gets a fresh
    assessor, and the structure cache is warmed outside the timed region.
    ``send_probability < 1`` exercises the lossy path: both sides seed one
    transport per attribute identically, so the posteriors must still agree.
    """
    points: List[BatchedAssessmentPoint] = []
    for peer_count in peer_counts:
        network = throughput_network(peer_count, attribute_count, error_rate)
        attributes = network.attribute_universe()

        timing = _one_lane_vs_lanes(
            network,
            MappingQualityAssessor.assessment_plan,
            lambda a: {attribute: a.assess_attribute(attribute) for attribute in attributes},
            MappingQualityAssessor.assess_all_attributes,
            repeats,
            ttl=ttl,
            seed=seed,
            send_probability=send_probability,
        )
        (_, sequential), (batched, batched_assessments) = timing.values
        cycles, parallel_paths = batched.structure_cache.structures()
        mapping_names = {
            name
            for structure in (*cycles, *parallel_paths)
            for name in structure.mapping_names
        }
        points.append(
            BatchedAssessmentPoint(
                peer_count=peer_count,
                attribute_count=len(attributes),
                structure_count=len(cycles) + len(parallel_paths),
                mapping_count=len(mapping_names),
                plan_compiles=batched.plan_compile_count,
                max_posterior_difference=_max_posterior_difference(
                    sequential, batched_assessments
                ),
                send_probability=send_probability,
                timing=timing,
            )
        )
    return tuple(points)


# ---------------------------------------------------------------------------
# EX — decentralised assessment: batched per-origin lanes vs engine-per-origin
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalAssessmentPoint(_OneLaneVsLanes):
    """Timing of the all-origins §4.5 decision: one run vs one-lane runs.

    Both assessors share a warm per-origin neighbourhood cache (the probes
    are excluded from the timed region — they are identical on both sides),
    so the comparison isolates what the shared slice buys: one plan and
    engine for all origins instead of one per origin, plus the rounds.  The
    local views of the two paths must agree to floating-point accuracy under
    identical seeds.

    ``timing`` side 0 is the one-lane runs per origin, side 1 the shared
    run, timed in alternating pairs; :attr:`speedup` is the median of the
    per-pair ratios, so one slow interval on a shared host moves one pair,
    not the verdict.
    """

    peer_count: int
    origin_count: int
    attribute: str
    structure_count: int
    mapping_count: int
    plan_compiles: int
    probes: int
    max_posterior_difference: float
    send_probability: float
    timing: Measurement

    COLUMNS: ClassVar[Tuple[Column, ...]] = (
        Column("peers", "peer_count"),
        Column("P(send)", "send_probability"),
        Column("origins", "origin_count"),
        Column("structures", "structure_count"),
        Column("sequential ms", "sequential_seconds", "{:.1f}", 1e3),
        Column("batched ms", "batched_seconds", "{:.1f}", 1e3),
        Column("speedup", "speedup", "{:.1f}x"),
        Column("max |Δposterior|", "max_posterior_difference", "{:.1e}"),
    )


def run_local_assessment(
    peer_counts: Sequence[int] = (16, 32),
    attribute_count: int = 10,
    ttl: int = 3,
    repeats: int = 3,
    send_probability: float = 1.0,
    error_rate: float = 0.15,
    seed: Optional[int] = 0,
) -> Tuple[LocalAssessmentPoint, ...]:
    """Measure ``assess_local_all`` against the per-call reference.

    For each peer count a scale-free PDMS is generated and the full
    all-origins decentralised decision for one attribute is timed as one
    run with every origin a lane of one shared slice (``assess_local_all``)
    and as one one-lane ``assess_local`` (``assess_locals([origin])``) per
    origin.  The two are timed in ``repeats`` alternating pairs — every
    run gets a fresh assessor, and the per-origin neighbourhood cache is
    warmed outside the timed region.
    ``send_probability < 1`` exercises the lossy path: both sides seed one
    transport per origin identically, so the local views must still agree.
    """
    points: List[LocalAssessmentPoint] = []
    for peer_count in peer_counts:
        network = throughput_network(peer_count, attribute_count, error_rate)
        attribute = network.attribute_universe()[0]

        timing = _one_lane_vs_lanes(
            network,
            lambda a: a.neighborhood_cache.warm(network.peer_names),
            lambda a: {o: a.assess_local(o, attribute) for o in network.peer_names},
            lambda a: a.assess_local_all(attribute),
            repeats,
            ttl=ttl,
            seed=seed,
            send_probability=send_probability,
        )
        (_, sequential_views), (batched, batched_views) = timing.values
        worst = 0.0
        for origin, sequential_view in sequential_views.items():
            batched_view = batched_views[origin]
            if set(batched_view) != set(sequential_view):
                raise EvaluationError(
                    f"local views of origin {origin!r} disagree on the "
                    f"judged mapping set"
                )
            for name, value in sequential_view.items():
                worst = max(worst, abs(value - batched_view[name]))

        structure_count = sum(
            len(cycles) + len(paths)
            for cycles, paths in (
                batched.neighborhood_cache.structures_for(origin)
                for origin in network.peer_names
            )
        )
        points.append(
            LocalAssessmentPoint(
                peer_count=peer_count,
                origin_count=len(network.peer_names),
                attribute=attribute,
                structure_count=structure_count,
                mapping_count=len(network.mapping_names),
                plan_compiles=batched.local_plan_compile_count,
                probes=batched.neighborhood_cache.statistics.probes,
                max_posterior_difference=worst,
                send_probability=send_probability,
                timing=timing,
            )
        )
    return tuple(points)


# ---------------------------------------------------------------------------
# EX — long-cycle throughput: lane-engine count kernels vs the loops oracle
# ---------------------------------------------------------------------------


def long_cycle_network(
    cycle_length: int,
    rings: int = 6,
    attribute_count: int = 6,
    seed: int = 0,
):
    """A chain-of-peers benchmark PDMS made of long mapping rings.

    ``rings`` disjoint directed rings of ``cycle_length`` peers each — every
    ring closes a chain of identity mappings into one simple cycle of
    ``cycle_length`` hops, the structure family the count-space kernels
    exist for.  The first mapping of every *odd* ring is fully corrupted
    (each correspondence retargeted), so half the rings produce negative
    cycle feedback and half positive: both CPT signs ride the long-arity
    buckets, and origins converge at different rounds (which is what makes
    the per-origin lanes' compaction observable).
    """
    from ..generators.schemas import generate_schema_family
    from ..mapping.corruption import corrupt_mapping_in_place
    from ..pdms.peer import Peer

    if cycle_length < 2:
        raise EvaluationError(
            f"a mapping ring needs at least 2 peers, got {cycle_length}"
        )
    if rings < 1:
        raise EvaluationError(f"need at least one ring, got {rings}")
    schemas, _ = generate_schema_family(
        cycle_length * rings, attribute_count=attribute_count, seed=seed
    )
    network = PDMSNetwork(name=f"long-cycle-{cycle_length}x{rings}", directed=True)
    peers = [Peer(schema.name, schema) for schema in schemas]
    for peer in peers:
        network.add_peer(peer)
    rng = random.Random(seed)
    for ring in range(rings):
        members = peers[ring * cycle_length : (ring + 1) * cycle_length]
        first_mapping = None
        for index, peer in enumerate(members):
            mapping = identity_mapping(
                peer.schema, members[(index + 1) % cycle_length].schema
            )
            network.add_mapping(mapping, bidirectional=False)
            if first_mapping is None:
                first_mapping = network.mapping(mapping.name)
        if ring % 2 == 1:
            target_schema = network.peer(first_mapping.target).schema
            corrupt_mapping_in_place(
                first_mapping, target_schema, error_rate=1.0, rng=rng
            )
    return network


@dataclass(frozen=True)
class LongCycleThroughputPoint:
    """Timing and parity of one long-cycle workload: lane engine vs loops.

    Every pair times ``rounds`` synchronous iterations of the centralised
    loops oracle (``timing`` side 0) and ``rounds`` rounds of a one-lane
    embedded run (side 1) on the same informative evidence, one fresh
    engine each.  The loops execute the same count-space message
    expression scalar by scalar (``CountFactor.message_to``), so they run
    at any arity too — what they lack is the batching.  ``messages per
    second`` counts the directed messages of the centralised factor graph,
    two per edge per round.
    """

    cycle_length: int
    ring_count: int
    structure_count: int
    edge_count: int
    rounds: int
    batched_max_difference: float
    local_max_difference: float
    count_kernel_buckets: int
    dense_kernel_buckets: int
    compaction_edge_counts: Tuple[int, ...]
    timing: Measurement

    COLUMNS: ClassVar[Tuple[Column, ...]] = (
        Column("cycle length", "cycle_length"),
        Column("rings", "ring_count"),
        Column("edges", "edge_count"),
        Column("rounds", "rounds"),
        Column("loops msg/s", "loop_messages_per_second", "{:,.0f}"),
        Column("lane msg/s", "lane_messages_per_second", "{:,.0f}"),
        Column("median speedup", "speedup", "{:.1f}x"),
        Column("min speedup", "min_speedup", "{:.1f}x"),
        Column("max |Δbatched|", "batched_max_difference", "{:.1e}"),
        Column("max |Δlocal|", "local_max_difference", "{:.1e}"),
        Column("count buckets", "count_kernel_buckets"),
    )

    @property
    def ratios(self) -> Tuple[float, ...]:
        """Per-pair speedups: loops seconds over lane seconds, both sides
        having run the same ``rounds``."""
        return self.timing.ratios(0, 1)

    @property
    def speedup(self) -> float:
        return self.timing.speedup(0, 1)

    @property
    def min_speedup(self) -> float:
        return min(self.ratios)

    @property
    def loop_messages_per_second(self) -> float:
        return 2.0 * self.edge_count * self.rounds / self.timing.median(0)

    @property
    def lane_messages_per_second(self) -> float:
        return 2.0 * self.edge_count * self.rounds / self.timing.median(1)


def run_long_cycle_throughput(
    cycle_lengths: Sequence[int] = (20, 30, 40),
    rings: int = 6,
    attribute_count: int = 6,
    iterations: int = 25,
    repeats: int = 3,
    seed: int = 0,
) -> Tuple[LongCycleThroughputPoint, ...]:
    """Measure the lane engine's count-space kernels against the loops
    oracle on long cycles, and verify the lane engine agrees with it.

    For each cycle length a :func:`long_cycle_network` is built (half the
    rings positive, half negative) and

    * ``repeats`` alternating pairs time exactly ``iterations``
      :meth:`~repro.factorgraph.sum_product.SumProduct.iterate_once` calls
      of the loops against exactly ``iterations``
      :meth:`~repro.core.embedded.EmbeddedMessagePassing.run_round` calls
      of a one-lane run on the same informative evidence (both engines
      built outside the timed region);
    * the batched multi-attribute assessor runs the same evidence on one
      compiled :class:`~repro.factorgraph.plan.SweepPlan` — asserting the
      long buckets landed on the count kernels — and its posteriors are
      compared against a converged loops run;
    * the per-origin lanes run ``assess_local_all``; each origin's local
      view is compared against the loops sum-product on that origin's own
      informative evidence, and the compaction trajectory (per-round edge
      rows) is recorded.
    """
    if iterations < 1:
        raise EvaluationError(f"need at least one timed round, got {iterations}")
    points: List[LongCycleThroughputPoint] = []
    for cycle_length in cycle_lengths:
        network = long_cycle_network(
            cycle_length,
            rings=rings,
            attribute_count=attribute_count,
            seed=seed,
        )
        attribute = network.attribute_universe()[0]
        evidence = analyze_network(
            network, attribute, ttl=cycle_length, include_parallel_paths=False
        )
        informative = evidence.informative_feedbacks
        if not informative:
            raise EvaluationError(
                f"the {cycle_length}-ring network produced no informative "
                "feedback"
            )
        graph = build_factor_graph(
            informative, priors=0.5, attribute=attribute
        ).graph

        timing = measure(
            [
                _rounds_of(lambda: SumProduct(graph), "iterate_once", iterations),
                _rounds_of(
                    lambda: EmbeddedMessagePassing(
                        informative,
                        priors=0.5,
                        delta=0.1,
                        options=EmbeddedOptions(record_history=False),
                    ),
                    "run_round",
                    iterations,
                ),
            ],
            repeats,
        )
        reference = run_sum_product(graph)
        if not reference.converged:
            raise EvaluationError(
                f"the loops oracle did not converge on the {cycle_length}-ring "
                "network"
            )

        # Batched multi-attribute assessment on one compiled plan.
        assessor = MappingQualityAssessor(
            network,
            delta=0.1,
            ttl=cycle_length,
            include_parallel_paths=False,
        )
        assessment = assessor.assess_attributes([attribute])[attribute]
        plan = assessor.assessment_plan()
        if assessor.plan_compile_count != 1:
            raise EvaluationError(
                "expected exactly one plan compile, got "
                f"{assessor.plan_compile_count}"
            )
        count_buckets = sum(1 for b in plan.batches if b.use_count_kernel)
        dense_buckets = len(plan.batches) - count_buckets
        if cycle_length >= COUNT_KERNEL_MIN_ARITY and not count_buckets:
            # Tripwire for the benchmark configurations: rings at or past
            # the crossover must ride the count kernels.  Shorter rings are
            # legitimately dense and still worth measuring.
            raise EvaluationError(
                f"no count-kernel bucket at cycle length {cycle_length}"
            )
        batched_worst = max(
            abs(
                posterior
                - reference.probability_correct(
                    variable_name_for(name, attribute)
                )
            )
            for name, posterior in assessment.posteriors.items()
        )

        # Per-origin views vs the loops sum-product on each origin's own
        # informative evidence.
        views = assessor.assess_local_all(attribute)
        compaction = assessor.last_local_round_edge_counts
        local_worst = 0.0
        for origin in network.peer_names:
            local = [
                feedback
                for feedback in structure_feedbacks(
                    *assessor.neighborhood_cache.structures_for(origin), attribute
                )
                if feedback.is_informative
            ]
            if not local:
                continue
            local_loops = run_sum_product(
                build_factor_graph(local, priors=0.5, attribute=attribute).graph
            )
            for name, value in views[origin].items():
                variable = variable_name_for(name, attribute)
                if variable in local_loops.marginals:
                    local_worst = max(
                        local_worst,
                        abs(value - local_loops.probability_correct(variable)),
                    )

        points.append(
            LongCycleThroughputPoint(
                cycle_length=cycle_length,
                ring_count=rings,
                structure_count=len(informative),
                edge_count=graph.edge_count(),
                rounds=iterations,
                batched_max_difference=batched_worst,
                local_max_difference=local_worst,
                count_kernel_buckets=count_buckets,
                dense_kernel_buckets=dense_buckets,
                compaction_edge_counts=tuple(compaction),
                timing=timing,
            )
        )
    return tuple(points)


# ---------------------------------------------------------------------------
# EX — probe throughput: full-probe structure discovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeThroughputPoint:
    """Timing of one global-view read on a cold snapshot
    (:meth:`~repro.pdms.discovery.TopologySnapshot.structures`: every
    peer's cycles and parallel-path walks); the rate is the median run's."""

    peer_count: int
    ttl: int
    mapping_count: int
    #: Walks the read ran: one per peer for its cycles, one for its paths.
    walks: int
    cycle_count: int
    parallel_path_count: int
    timing: Measurement

    COLUMNS: ClassVar[Tuple[Column, ...]] = (
        Column("peers", "peer_count"),
        Column("mappings", "mapping_count"),
        Column("walks", "walks"),
        Column("structures", "structure_count"),
        Column("median ms", "seconds", "{:.1f}", 1e3),
        Column("structures/s", "structures_per_second", "{:,.0f}"),
    )

    @property
    def structure_count(self) -> int:
        return self.cycle_count + self.parallel_path_count

    @property
    def seconds(self) -> float:
        return self.timing.median()

    @property
    def structures_per_second(self) -> float:
        return self.structure_count / self.seconds


def run_probe_throughput(
    peer_counts: Sequence[int] = (256,),
    ttl: int = 3,
    repeats: int = 3,
) -> Tuple[ProbeThroughputPoint, ...]:
    """Measure full-probe structure discovery.

    For each peer count a scale-free PDMS is generated (mappings in both
    directions, the probe-heavy regime) and ``repeats`` reads of the
    global view — every peer's cycles and parallel-path walks at ``ttl``,
    :meth:`~repro.pdms.discovery.TopologySnapshot.structures` — are timed.
    Each read runs on a fresh private snapshot built outside the timed
    region: a snapshot remembers its walks, so a second read of the same
    snapshot would time lookups, not walks.
    """
    points: List[ProbeThroughputPoint] = []
    for peer_count in peer_counts:
        network = scale_free_network(peer_count, seed=peer_count)

        def fresh_snapshot():
            snapshot = TopologySnapshot.of(network)
            return lambda: (snapshot, snapshot.structures(ttl, True))

        timing = measure([fresh_snapshot], repeats)
        ((snapshot, (cycles, paths)),) = timing.values
        points.append(
            ProbeThroughputPoint(
                peer_count=peer_count,
                ttl=ttl,
                mapping_count=len(network.mapping_names),
                walks=snapshot.walks,
                cycle_count=len(cycles),
                parallel_path_count=len(paths),
                timing=timing,
            )
        )
    return tuple(points)


# ---------------------------------------------------------------------------
# EX — gossip convergence: the event-sourced multi-node harness vs its oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GossipConvergencePoint:
    """One N-peer gossip run to convergence under an unreliable transport.

    Every peer originates its own :class:`~repro.pdms.events.PeerAdded`
    and the :class:`~repro.pdms.events.MappingAdded` events of its
    outgoing mappings; entries spread through a
    :class:`~repro.pdms.gossip.SeededTransport` that drops, duplicates
    and reorders.  ``views_identical`` records that after convergence
    every node's decentralised ``assess_local`` decision of ``attribute``
    equalled the single-process oracle's — exact float equality, enforced
    by the runner (it raises :class:`~repro.exceptions.EvaluationError` on
    any divergence, so a reported rate is always a rate on verified
    output).
    """

    peer_count: int
    mapping_count: int
    #: Distinct events originated across all peers (= entries in the log).
    event_count: int
    #: Gossip rounds to converge the PeerAdded phase / the MappingAdded
    #: phase (each phase runs to full convergence before the next starts,
    #: so mapping events never reference peers a replica hasn't seen).
    peer_rounds: int
    mapping_rounds: int
    #: Total deliveries applied across all replicas in the timed phases
    #: (origination + rounds).
    deliveries_applied: int
    #: Journal accounting summed over all nodes, and transport accounting
    #: (every push-pull leg counts: digests as well as journal entries).
    duplicates_dropped: int
    deliveries_buffered: int
    messages_sent: int
    messages_dropped: int
    messages_duplicated: int
    #: Transport / harness configuration the run is deterministic in.
    fanout: int
    drop_probability: float
    duplicate_probability: float
    seed: int
    #: Corrupted correspondences in the workload, the attribute assessed,
    #: and the parity verdict.
    corrupted_correspondences: int
    attribute: str
    origins_compared: int
    views_identical: bool
    timing: Measurement

    COLUMNS: ClassVar[Tuple[Column, ...]] = (
        Column("peers", "peer_count"),
        Column("mappings", "mapping_count"),
        Column("events", "event_count"),
        Column("rounds", "phase_rounds"),
        Column("buffered", "deliveries_buffered"),
        Column("dups dropped", "duplicates_dropped"),
        Column("msgs sent", "messages_sent"),
        Column("msgs lost", "messages_dropped"),
        Column("msgs/event", "messages_per_event", "{:.1f}"),
        Column("useful", "useful_ratio", "{:.3f}"),
        Column("deliveries/s", "events_per_second", "{:,.0f}"),
        Column("oracle parity", "oracle_parity"),
    )

    @property
    def total_rounds(self) -> int:
        return self.peer_rounds + self.mapping_rounds

    @property
    def phase_rounds(self) -> str:
        return f"{self.peer_rounds}+{self.mapping_rounds}"

    @property
    def events_per_second(self) -> float:
        """Deliveries applied across all replicas per gossip second."""
        return self.deliveries_applied / self.timing.median()

    @property
    def useful_ratio(self) -> float:
        """Deliveries applied per message sent (digests and entries)."""
        return self.deliveries_applied / self.messages_sent

    @property
    def messages_per_event(self) -> float:
        """Messages sent per distinct event replicated to every node."""
        return self.messages_sent / self.event_count

    @property
    def oracle_parity(self) -> str:
        return "exact" if self.views_identical else "DIVERGED"


def gossip_workload_network(
    peer_count: int,
    chord_step: int = 4,
    attribute_count: int = 4,
    error_rate: float = 0.25,
    seed: int = DEFAULT_SEED,
) -> PDMSNetwork:
    """The template topology a gossip run replicates: a corrupted chord ring.

    A directed ring ``p1 → p2 → … → pn → p1`` of identity mappings plus a
    backward chord every ``chord_step`` peers (``p_{i+k} → p_i``), so the
    network contains many short mapping cycles of length ``chord_step + 1``
    — the feedback the §4.5 assessment runs on.  ``error_rate`` of the
    correspondences are then corrupted in place (seeded), giving every
    cycle a mix of consistent and inconsistent feedback.
    """
    if peer_count < chord_step + 1:
        raise EvaluationError(
            f"gossip workload needs more than chord_step={chord_step} peers, "
            f"got {peer_count}"
        )
    network = cycle_network(
        peer_count,
        attribute_count=attribute_count,
        directed=True,
        seed=seed,
        name="gossip-workload",
    )
    peers = network.peers
    for index in range(0, peer_count - chord_step, chord_step):
        source = peers[(index + chord_step) % peer_count]
        target = peers[index]
        network.add_mapping(
            identity_mapping(source.schema, target.schema), bidirectional=False
        )
    inject_errors(network, error_rate, seed=seed + 1)
    return network


def run_gossip_convergence(
    peer_counts: Sequence[int] = (32,),
    fanout: int = 3,
    drop_probability: float = 0.05,
    duplicate_probability: float = 0.05,
    error_rate: float = 0.25,
    chord_step: int = 4,
    attribute_count: int = 4,
    seed: int = DEFAULT_SEED,
    max_rounds: int = 128,
) -> Tuple[GossipConvergencePoint, ...]:
    """Gossip a corrupted chord-ring topology to convergence; verify parity.

    For each peer count the :func:`gossip_workload_network` template is
    built single-process, then re-enacted decentralised: a
    :class:`~repro.pdms.gossip.GossipHarness` of empty
    :class:`~repro.pdms.gossip.PeerNode` replicas where each peer
    originates its own ``PeerAdded`` (phase one, gossiped to convergence)
    and then the ``MappingAdded`` events of its outgoing mappings (phase
    two) — all through a seeded transport configured to drop, duplicate
    and reorder.  The two phases are timed once (replication changes the
    harness, so it cannot rerun).  After convergence every node's
    ``assess_local`` view of ``attribute`` (one per-origin lane over its
    event-sourced replica) is compared against the single-process oracle
    built from the same canonical event log; any inequality — exact, not
    approximate — raises :class:`~repro.exceptions.EvaluationError`.

    The assessor runs with ``ttl = chord_step + 1`` so the chord cycles
    (and not the full ring) carry the feedback.
    """
    points: List[GossipConvergencePoint] = []
    for peer_count in peer_counts:
        template = gossip_workload_network(
            peer_count,
            chord_step=chord_step,
            attribute_count=attribute_count,
            error_rate=error_rate,
            seed=seed,
        )
        corrupted = sum(
            1
            for mapping in template.mappings
            for correspondence in mapping.correspondences
            if correspondence.is_correct is False
        )
        attribute = sorted(template.peers[0].schema.attribute_names)[0]

        transport = SeededTransport(
            seed=seed,
            drop_probability=drop_probability,
            duplicate_probability=duplicate_probability,
        )
        harness = GossipHarness.of_names(
            template.peer_names,
            transport=transport,
            fanout=fanout,
            seed=seed,
            ttl=chord_step + 1,
        )

        def replicate():
            for peer in template.peers:
                harness.originate(
                    peer.name, PeerAdded(name=peer.name, schema=peer.schema)
                )
            peer_rounds = harness.run_until_converged(max_rounds=max_rounds)
            for mapping in template.mappings:
                harness.originate(mapping.source, MappingAdded(mapping=mapping))
            return peer_rounds, harness.run_until_converged(max_rounds=max_rounds)

        timing = measure([lambda: replicate], 1)
        ((peer_rounds, mapping_rounds),) = timing.values

        local = harness.local_views(attribute)
        oracle = harness.oracle_views(attribute)
        if local != oracle:
            divergent = sorted(
                name for name in local if local[name] != oracle.get(name)
            )
            raise EvaluationError(
                f"gossip views diverge from the oracle at {peer_count} "
                f"peers for origins {divergent}"
            )

        points.append(
            GossipConvergencePoint(
                peer_count=peer_count,
                mapping_count=len(template.mapping_names),
                event_count=len(harness.all_entries()),
                peer_rounds=peer_rounds,
                mapping_rounds=mapping_rounds,
                deliveries_applied=harness.delivered_event_count,
                duplicates_dropped=harness.duplicates_dropped,
                deliveries_buffered=harness.deliveries_buffered,
                messages_sent=transport.sent,
                messages_dropped=transport.dropped,
                messages_duplicated=transport.duplicated,
                fanout=fanout,
                drop_probability=drop_probability,
                duplicate_probability=duplicate_probability,
                seed=seed,
                corrupted_correspondences=corrupted,
                attribute=attribute,
                origins_compared=len(local),
                views_identical=True,
                timing=timing,
            )
        )
    return tuple(points)
