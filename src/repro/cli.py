"""Command-line interface for running the paper's experiments.

Installing the package exposes a ``repro-experiments`` console script (see
``setup.py``); the same entry point is reachable with
``python -m repro.cli``.  Each sub-command runs one experiment of the
evaluation section and prints the corresponding paper-vs-measured table —
the same runners the benchmark harness uses, without the timing machinery.

A sibling ``repro-lint`` console script (``python -m repro.lintkit``) runs
the AST-based architectural analyzer over the tree — the layering,
determinism, process-safety, knob-hygiene and numeric invariants stated in
``ARCHITECTURE.md``.

Examples
--------
::

    repro-experiments intro
    repro-experiments cycle-length --deltas 0.01 0.1
    repro-experiments real-world --thetas 0.3 0.5 0.7
    repro-experiments scenario --peers 16 --error-rate 0.2
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .constants import DEFAULT_TTL
from .core.quality import MappingQualityAssessor
from .evaluation.experiments import (
    run_assessor_amortization,
    run_baseline_comparison,
    run_convergence,
    run_cycle_length,
    run_embedded_throughput,
    run_fault_tolerance,
    run_gossip_convergence,
    run_intro_example,
    run_local_assessment,
    run_long_cycle_throughput,
    run_probe_throughput,
    run_real_world,
    run_relative_error,
    run_schedule_comparison,
)
from .evaluation.metrics import score_detection
from .evaluation.reporting import format_comparison, format_table
from .generators.scenarios import generate_scenario

__all__ = ["build_parser", "main"]

#: Probe TTL of the generated throughput networks.  Deliberately shallower
#: than the assessor's :data:`~repro.constants.DEFAULT_TTL`: the timed
#: workloads only need enough structures to saturate the engines, not the
#: full exponential enumeration.
THROUGHPUT_DEFAULT_TTL = 3


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with one sub-command per experiment."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the experiments of 'Probabilistic Message "
        "Passing in Peer Data Management Systems' (ICDE 2006).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("intro", help="worked example of §4.5 (E1)")

    convergence = subparsers.add_parser("convergence", help="Figure 7 (E2)")
    convergence.add_argument("--priors", type=float, default=0.7)
    convergence.add_argument("--delta", type=float, default=0.1)

    relative = subparsers.add_parser("relative-error", help="Figure 9 (E3)")
    relative.add_argument("--max-extra-peers", type=int, default=7)

    cycle = subparsers.add_parser("cycle-length", help="Figure 10 (E4)")
    cycle.add_argument("--max-length", type=int, default=20)
    cycle.add_argument("--deltas", type=float, nargs="+", default=[0.01, 0.1, 0.2])

    fault = subparsers.add_parser("fault-tolerance", help="Figure 11 (E5)")
    fault.add_argument("--repetitions", type=int, default=5)
    fault.add_argument(
        "--send-probabilities", type=float, nargs="+",
        default=[1.0, 0.8, 0.6, 0.4, 0.2, 0.1],
    )

    real = subparsers.add_parser("real-world", help="Figure 12 (E6)")
    real.add_argument(
        "--thetas", type=float, nargs="+",
        default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    )
    real.add_argument("--ttl", type=int, default=3)

    subparsers.add_parser("baseline", help="ablation vs the Chatty-Web heuristic (E7)")
    subparsers.add_parser("schedules", help="ablation periodic vs lazy schedules (E8)")

    throughput = subparsers.add_parser(
        "throughput",
        help="throughput of the inference engines (embedded rounds of the "
        "lane engine by default, the batched per-origin decentralised view "
        "with --mode local, the count-space kernels on long mapping rings "
        "with --mode long-cycle, full-probe structure discovery with "
        "--mode probe, or the event-sourced multi-node gossip harness "
        "with --mode gossip)",
    )
    throughput.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="peer counts of the generated scale-free networks "
        "(default 8 16 32 64 in embedded mode; "
        "8 16 32 in local mode; 64 128 256 in probe mode; 16 32 in "
        "gossip mode); in long-cycle "
        "mode the *cycle lengths* of the generated mapping rings "
        "(default 20 30 40)",
    )
    throughput.add_argument(
        "--mode",
        choices=("embedded", "local", "long-cycle", "probe", "gossip"),
        default="embedded",
        help="'embedded' (default) times decentralised rounds of one-lane "
        "runs (rounds/s and messages/s, median of the repeats); 'local' "
        "times the all-origins §4.5 decision in one run (one shared slice "
        "of per-origin lanes) vs one-lane runs per origin; "
        "'long-cycle' times one-lane rounds on the count-space kernels "
        "against iterations of the centralised loops oracle on rings far "
        "beyond the dense arity limit (median of alternating pairs); "
        "'probe' times full-probe structure discovery; 'gossip' runs N "
        "event-sourced peer replicas to convergence through a "
        "dropping/duplicating/reordering transport and verifies every local "
        "view equals the single-process oracle",
    )
    throughput.add_argument(
        "--ttl", type=int, default=None,
        help="probe TTL of the generated networks (default 3; not "
        "applicable in long-cycle mode, which always probes the full ring)",
    )
    throughput.add_argument("--repeats", type=int, default=3)
    throughput.add_argument(
        "--rounds", type=int, default=None,
        help="embedded mode only: decentralised rounds per timed run "
        "(default 25)",
    )
    throughput.add_argument(
        "--send-probability", type=float, default=None,
        help="embedded and local modes: transport reliability of the timed "
        "runs (default 1.0)",
    )
    throughput.add_argument(
        "--fanout", type=int, default=None,
        help="gossip mode only: partners each node exchanges clock "
        "digests and journal deltas with per round (default 3)",
    )
    throughput.add_argument(
        "--drop-probability", type=float, default=None,
        help="gossip mode only: per-message drop probability of the "
        "seeded transport (default 0.05; duplicates ride at the same "
        "rate, reordering is always on)",
    )

    amortization = subparsers.add_parser(
        "amortization",
        help="probe-once structure cache vs per-attribute probing on a "
        "full assess_all_attributes pass",
    )
    amortization.add_argument("--peers", type=int, default=32)
    amortization.add_argument("--attributes", type=int, default=10)
    amortization.add_argument("--ttl", type=int, default=3)

    scenario = subparsers.add_parser(
        "scenario", help="assess a generated synthetic PDMS scenario"
    )
    scenario.add_argument("--topology", choices=("cycle", "random", "scale-free"), default="scale-free")
    scenario.add_argument("--peers", type=int, default=12)
    scenario.add_argument("--attributes", type=int, default=10)
    scenario.add_argument("--error-rate", type=float, default=0.2)
    scenario.add_argument("--theta", type=float, default=0.5)
    scenario.add_argument("--ttl", type=int, default=DEFAULT_TTL)
    scenario.add_argument("--seed", type=int, default=0)

    return parser


# ---------------------------------------------------------------------------
# per-command renderers
# ---------------------------------------------------------------------------


def _render_intro() -> str:
    result = run_intro_example()
    lines = [
        format_comparison("P(p2->p3 correct)", 0.59, result.posteriors["p2->p3"]),
        format_comparison("P(p2->p4 correct)", 0.30, result.posteriors["p2->p4"]),
        format_comparison("updated prior p2->p3", 0.55, result.updated_priors["p2->p3"]),
        format_comparison("updated prior p2->p4", 0.40, result.updated_priors["p2->p4"]),
        f"blocked mappings at θ=0.5: {', '.join(result.blocked_mappings)}",
        f"false positives: {result.standard_false_positive_count} (standard) -> "
        f"{result.aware_false_positive_count} (quality-aware)",
    ]
    return "\n".join(lines)


def _render_convergence(priors: float, delta: float) -> str:
    result = run_convergence(priors=priors, delta=delta)
    rows = [
        (i + 1, result.history["p2->p3"][i], result.history["p2->p4"][i])
        for i in range(result.iterations)
    ]
    return format_table(
        ("iteration", "P(m23 correct)", "P(m24 correct)"),
        rows,
        title=f"Figure 7 — convergence (priors {priors}, Δ={delta})",
    )


def _render_relative_error(max_extra_peers: int) -> str:
    result = run_relative_error(extra_peer_range=range(0, max_extra_peers + 1))
    worst = dict(result.worst_case_points)
    return format_table(
        ("long-cycle length", "mean |Δposterior|", "max |Δposterior|"),
        [(length, error, worst[length]) for length, error in result.points],
        title="Figure 9 — iterative vs exact inference",
    )


def _render_cycle_length(max_length: int, deltas: Sequence[float]) -> str:
    result = run_cycle_length(lengths=tuple(range(2, max_length + 1)), deltas=tuple(deltas))
    lengths = [length for length, _ in next(iter(result.series.values()))]
    rows = []
    for index, length in enumerate(lengths):
        rows.append(
            tuple([length] + [result.series[delta][index][1] for delta in deltas])
        )
    return format_table(
        tuple(["cycle length"] + [f"Δ={delta}" for delta in deltas]),
        rows,
        title="Figure 10 — posterior of a positive cycle",
    )


def _render_fault_tolerance(repetitions: int, send_probabilities: Sequence[float]) -> str:
    result = run_fault_tolerance(
        send_probabilities=tuple(send_probabilities), repetitions=repetitions
    )
    return format_table(
        ("P(send)", "mean iterations", "converged fraction"),
        [(p, iterations, converged) for p, iterations, converged in result.points],
        title="Figure 11 — convergence under message loss",
    )


def _render_real_world(thetas: Sequence[float], ttl: int) -> str:
    result = run_real_world(thetas=tuple(thetas), ttl=ttl)
    rows = [
        (theta, result.metrics[theta].precision, result.metrics[theta].recall,
         result.metrics[theta].counts.flagged)
        for theta in thetas
    ]
    header = (
        f"{result.correspondence_count} generated correspondences, "
        f"{result.erroneous_count} erroneous"
    )
    return header + "\n" + format_table(
        ("θ", "precision", "recall", "flagged"),
        rows,
        title="Figure 12 — precision of the message passing approach",
    )


def _render_baseline() -> str:
    result = run_baseline_comparison()
    return format_table(
        ("detector", "flagged", "precision", "recall"),
        [
            ("probabilistic", ", ".join(result.probabilistic_flagged),
             result.probabilistic.precision, result.probabilistic.recall),
            ("chatty-web heuristic", ", ".join(result.baseline_flagged),
             result.baseline.precision, result.baseline.recall),
        ],
        title="Ablation — probabilistic inference vs deductive heuristic",
    )


def _render_schedules() -> str:
    result = run_schedule_comparison()
    return format_table(
        ("schedule", "rounds", "remote messages", "P(p2->p4 correct)"),
        [
            ("periodic", result.periodic_rounds, result.periodic_messages,
             result.periodic_posteriors["p2->p4"]),
            ("lazy", result.lazy_rounds, result.lazy_messages,
             result.lazy_posteriors["p2->p4"]),
        ],
        title="Ablation — schedules of §4.3",
    )


def _render_throughput(args: argparse.Namespace) -> str:
    if args.mode == "local":
        return _render_local_throughput(args)
    if args.mode == "long-cycle":
        return _render_long_cycle_throughput(args)
    if args.mode == "probe":
        return _render_probe_throughput(args)
    if args.mode == "gossip":
        return _render_gossip_convergence(args)
    return _render_embedded_throughput(args)


def _render_embedded_throughput(args: argparse.Namespace) -> str:
    sizes = tuple(args.sizes) if args.sizes else (8, 16, 32, 64)
    send_probability = (
        args.send_probability if args.send_probability is not None else 1.0
    )
    result = run_embedded_throughput(
        peer_counts=sizes,
        ttl=args.ttl if args.ttl is not None else THROUGHPUT_DEFAULT_TTL,
        rounds=args.rounds if args.rounds is not None else 25,
        repeats=args.repeats,
        send_probability=send_probability,
    )
    rows = [
        (
            point.peer_count,
            point.feedback_count,
            point.remote_messages_per_round,
            f"{point.rounds_per_second:,.0f}",
            f"{point.messages_per_second:,.0f}",
        )
        for point in result.points
    ]
    return format_table(
        ("peers", "feedbacks", "remote msgs/round", "rounds/s", "messages/s"),
        rows,
        title=(
            "Embedded throughput — one-lane rounds, median of "
            f"{max(1, args.repeats)} runs (P(send)={send_probability})"
        ),
    )


def _render_local_throughput(args: argparse.Namespace) -> str:
    sizes = tuple(args.sizes) if args.sizes else (8, 16, 32)
    send_probability = (
        args.send_probability if args.send_probability is not None else 1.0
    )
    result = run_local_assessment(
        peer_counts=sizes,
        ttl=args.ttl if args.ttl is not None else THROUGHPUT_DEFAULT_TTL,
        repeats=args.repeats,
        send_probability=send_probability,
    )
    rows = [
        (
            point.peer_count,
            point.origin_count,
            point.structure_count,
            f"{point.sequential_seconds * 1e3:.1f}",
            f"{point.batched_seconds * 1e3:.1f}",
            f"{point.speedup:.1f}x",
            f"{point.max_posterior_difference:.1e}",
        )
        for point in result.points
    ]
    return format_table(
        (
            "peers",
            "origins",
            "structures",
            "sequential ms",
            "batched ms",
            "speedup",
            "max |Δposterior|",
        ),
        rows,
        title=(
            "Local assessment throughput — batched per-origin lanes vs "
            f"engine-per-origin (P(send)={send_probability})"
        ),
    )


def _render_probe_throughput(args: argparse.Namespace) -> str:
    sizes = tuple(args.sizes) if args.sizes else (64, 128, 256)
    ttl = args.ttl if args.ttl is not None else THROUGHPUT_DEFAULT_TTL
    result = run_probe_throughput(
        peer_counts=sizes, ttl=ttl, repeats=args.repeats
    )
    rows = [
        (
            point.peer_count,
            point.mapping_count,
            point.work_units,
            point.structure_count,
            f"{point.serial_seconds * 1e3:.1f}",
            f"{point.serial_structures_per_second:,.0f}",
        )
        for point in result.points
    ]
    return format_table(
        (
            "peers",
            "mappings",
            "work units",
            "structures",
            "serial ms",
            "structures/s",
        ),
        rows,
        title=f"Probe throughput — full-probe structure discovery (ttl={ttl})",
    )


def _render_gossip_convergence(args: argparse.Namespace) -> str:
    sizes = tuple(args.sizes) if args.sizes else (16, 32)
    fanout = args.fanout if args.fanout is not None else 3
    drop_probability = (
        args.drop_probability if args.drop_probability is not None else 0.05
    )
    result = run_gossip_convergence(
        peer_counts=sizes,
        fanout=fanout,
        drop_probability=drop_probability,
        duplicate_probability=drop_probability,
    )
    rows = [
        (
            point.peer_count,
            point.mapping_count,
            point.event_count,
            f"{point.peer_rounds}+{point.mapping_rounds}",
            point.deliveries_buffered,
            point.duplicates_dropped,
            point.messages_sent,
            point.messages_dropped,
            f"{point.useful_ratio:.3f}",
            f"{point.events_per_second:,.0f}",
            "exact" if point.views_identical else "DIVERGED",
        )
        for point in result.points
    ]
    return format_table(
        (
            "peers",
            "mappings",
            "events",
            "rounds",
            "buffered",
            "dups dropped",
            "msgs sent",
            "msgs lost",
            "useful",
            "deliveries/s",
            "oracle parity",
        ),
        rows,
        title=(
            "Gossip convergence — event-sourced replicas vs the "
            f"single-process oracle (fanout={fanout}, "
            f"P(drop)=P(dup)={drop_probability}, "
            f"attribute={result.attribute!r})"
        ),
    )


def _render_long_cycle_throughput(args: argparse.Namespace) -> str:
    lengths = tuple(args.sizes) if args.sizes else (20, 30, 40)
    result = run_long_cycle_throughput(cycle_lengths=lengths, repeats=args.repeats)
    rows = [
        (
            point.cycle_length,
            point.ring_count,
            point.edge_count,
            f"{point.loop_rounds}/{point.lane_rounds}",
            f"{point.loop_messages_per_second:,.0f}",
            f"{point.lane_messages_per_second:,.0f}",
            f"{point.speedup:.1f}x",
            f"{min(point.ratios):.1f}x",
            f"{point.batched_max_difference:.1e}",
            f"{point.local_max_difference:.1e}",
            point.count_kernel_buckets,
        )
        for point in result.points
    ]
    return format_table(
        (
            "cycle length",
            "rings",
            "edges",
            "rounds loops/lane",
            "loops msg/s",
            "lane msg/s",
            "median speedup",
            "min speedup",
            "max |Δbatched|",
            "max |Δlocal|",
            "count buckets",
        ),
        rows,
        title=(
            "Long-cycle throughput — one-lane count-kernel rounds vs loops "
            f"oracle iterations, {max(1, args.repeats)} alternating pairs "
            "(structures far beyond the dense arity limit)"
        ),
    )


def _render_amortization(args: argparse.Namespace) -> str:
    result = run_assessor_amortization(
        peer_count=args.peers,
        attribute_count=args.attributes,
        ttl=args.ttl,
    )
    return format_table(
        (
            "mode",
            "peers",
            "attributes",
            "probes",
            "plan compiles",
            "seconds",
            "speedup",
            "max |Δposterior|",
        ),
        [
            (
                "probe per attribute",
                result.peer_count,
                result.attribute_count,
                result.uncached_probe_count,
                "-",
                f"{result.uncached_seconds:.3f}",
                "1.0x",
                "-",
            ),
            (
                "cached + sequential",
                result.peer_count,
                result.attribute_count,
                result.cached_probe_count,
                "-",
                f"{result.cached_seconds:.3f}",
                f"{result.speedup:.1f}x",
                f"{result.max_posterior_difference:.1e}",
            ),
            (
                "cached + batched",
                result.peer_count,
                result.attribute_count,
                result.batched_probe_count,
                result.batched_plan_compiles,
                f"{result.batched_seconds:.3f}",
                f"{result.speedup * result.batched_speedup:.1f}x",
                f"{result.batched_max_posterior_difference:.1e}",
            ),
        ],
        title=(
            "Assessor amortization — probe-once structure cache + batched "
            "all-attribute engine (speedup vs probe-per-attribute)"
        ),
    )


def _render_scenario(args: argparse.Namespace) -> str:
    scenario = generate_scenario(
        topology=args.topology,
        peer_count=args.peers,
        attribute_count=args.attributes,
        error_rate=args.error_rate,
        seed=args.seed,
    )
    assessor = MappingQualityAssessor(
        scenario.network, delta=None, ttl=args.ttl, include_parallel_paths=False
    )
    posteriors = {}
    for attribute in scenario.network.attribute_universe():
        assessment = assessor.assess_attribute(attribute)
        for mapping_name, posterior in assessment.posteriors.items():
            if (mapping_name, attribute) in scenario.ground_truth:
                posteriors[(mapping_name, attribute)] = posterior
    metrics = score_detection(posteriors, scenario.ground_truth, theta=args.theta)
    return format_table(
        ("peers", "mappings", "errors injected", "flagged", "precision", "recall"),
        [
            (
                len(scenario.network),
                len(scenario.network.mappings),
                len(scenario.erroneous_pairs),
                metrics.counts.flagged,
                metrics.precision,
                metrics.recall,
            )
        ],
        title=f"Synthetic {args.topology} scenario @ θ={args.theta}",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "throughput":
        # Reject flags that belong to another mode instead of silently
        # ignoring them.
        if args.mode != "embedded" and args.rounds is not None:
            parser.error("--rounds only applies to --mode embedded")
        if args.mode in ("long-cycle", "probe", "gossip") and args.send_probability is not None:
            parser.error(
                "--send-probability only applies to --mode embedded or local"
            )
        if args.mode == "long-cycle" and args.ttl is not None:
            parser.error(
                "--ttl does not apply to --mode long-cycle (each ring is "
                "probed with its full cycle length)"
            )
        if args.mode == "gossip" and args.ttl is not None:
            parser.error(
                "--ttl does not apply to --mode gossip (the assessor TTL "
                "follows the workload's chord length)"
            )
        if args.mode != "gossip" and args.fanout is not None:
            parser.error("--fanout only applies to --mode gossip")
        if args.mode != "gossip" and args.drop_probability is not None:
            parser.error("--drop-probability only applies to --mode gossip")
    if args.command == "intro":
        output = _render_intro()
    elif args.command == "convergence":
        output = _render_convergence(args.priors, args.delta)
    elif args.command == "relative-error":
        output = _render_relative_error(args.max_extra_peers)
    elif args.command == "cycle-length":
        output = _render_cycle_length(args.max_length, args.deltas)
    elif args.command == "fault-tolerance":
        output = _render_fault_tolerance(args.repetitions, args.send_probabilities)
    elif args.command == "real-world":
        output = _render_real_world(args.thetas, args.ttl)
    elif args.command == "baseline":
        output = _render_baseline()
    elif args.command == "schedules":
        output = _render_schedules()
    elif args.command == "throughput":
        output = _render_throughput(args)
    elif args.command == "amortization":
        output = _render_amortization(args)
    elif args.command == "scenario":
        output = _render_scenario(args)
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
        return 2
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
