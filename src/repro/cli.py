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
import os
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .constants import DEFAULT_TTL
from .core.quality import MappingQualityAssessor
from .exceptions import ReproError
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
from .evaluation.reporting import format_comparison, format_points, format_table
from .generators.scenarios import generate_scenario

__all__ = ["build_parser", "main"]


@dataclass(frozen=True)
class _PointTable:
    """A command that prints a runner's points: the runner, its default
    sizes (its first argument; ``None`` when it takes none), the flags it
    accepts — passed on by name when given, the runner's own defaults apply
    otherwise — and the title, formatted with the last point."""

    runner: Callable[..., Sequence[object]]
    sizes: Optional[Tuple[int, ...]]
    flags: Tuple[str, ...]
    title: str


def _run_gossip(peer_counts: Sequence[int], **options) -> Sequence[object]:
    """``--drop-probability`` sets the duplicate probability too."""
    if "drop_probability" in options:
        options["duplicate_probability"] = options["drop_probability"]
    return run_gossip_convergence(peer_counts, **options)


#: ``throughput --mode <name>``.
_THROUGHPUT_MODES = {
    "embedded": _PointTable(
        run_embedded_throughput,
        (8, 16, 32, 64),
        ("ttl", "repeats", "rounds", "send_probability"),
        "Embedded throughput — one-lane rounds, median of {point.timing.pairs} "
        "runs (P(send)={point.send_probability})",
    ),
    "local": _PointTable(
        run_local_assessment,
        (8, 16, 32),
        ("ttl", "repeats", "send_probability"),
        "Local assessment throughput — batched per-origin lanes vs "
        "engine-per-origin (P(send)={point.send_probability})",
    ),
    "long-cycle": _PointTable(
        run_long_cycle_throughput,
        (20, 30, 40),
        ("repeats",),
        "Long-cycle throughput — one-lane count-kernel rounds vs loops oracle "
        "iterations, {point.timing.pairs} alternating pairs (structures far "
        "beyond the dense arity limit)",
    ),
    "probe": _PointTable(
        run_probe_throughput,
        (64, 128, 256),
        ("ttl", "repeats"),
        "Probe throughput — full-probe structure discovery (ttl={point.ttl})",
    ),
    "gossip": _PointTable(
        _run_gossip,
        (16, 32),
        ("fanout", "drop_probability"),
        "Gossip convergence — event-sourced replicas vs the single-process "
        "oracle (fanout={point.fanout}, P(drop)=P(dup)={point.drop_probability}"
        ", attribute={point.attribute!r})",
    ),
}

_AMORTIZATION = _PointTable(
    run_assessor_amortization,
    None,
    ("peer_count", "attribute_count", "ttl"),
    "Assessor amortization — probe-once structure cache + batched "
    "all-attribute engine (speedup vs probe-per-attribute)",
)


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
        help="peer counts of the generated networks; in long-cycle mode the "
        "*cycle lengths* of the generated mapping rings (default "
        + "; ".join(
            f"{' '.join(map(str, table.sizes))} in {name} mode"
            for name, table in _THROUGHPUT_MODES.items()
        )
        + ")",
    )
    throughput.add_argument(
        "--mode",
        choices=tuple(_THROUGHPUT_MODES),
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
    throughput.add_argument(
        "--repeats", type=int, default=None,
        help="timed runs, or alternating pairs, per size (default 3; not "
        "applicable in gossip mode, which times one run to convergence)",
    )
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
    amortization.add_argument(
        "--peers", dest="peer_count", type=int, default=None, help="(default 32)"
    )
    amortization.add_argument(
        "--attributes", dest="attribute_count", type=int, default=None,
        help="(default 10)",
    )
    amortization.add_argument("--ttl", type=int, default=None, help="(default 3)")

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


_RENDERERS = {
    "intro": lambda args: _render_intro(),
    "convergence": lambda args: _render_convergence(args.priors, args.delta),
    "relative-error": lambda args: _render_relative_error(args.max_extra_peers),
    "cycle-length": lambda args: _render_cycle_length(args.max_length, args.deltas),
    "fault-tolerance": lambda args: _render_fault_tolerance(
        args.repetitions, args.send_probabilities
    ),
    "real-world": lambda args: _render_real_world(args.thetas, args.ttl),
    "baseline": lambda args: _render_baseline(),
    "schedules": lambda args: _render_schedules(),
    "scenario": _render_scenario,
}


def _render_points(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    name = args.mode if args.command == "throughput" else args.command
    table = _THROUGHPUT_MODES[name] if args.command == "throughput" else _AMORTIZATION
    options = {}
    for flag, value in vars(args).items():
        if flag in ("command", "mode", "sizes") or value is None:
            continue
        if flag not in table.flags:
            parser.error(f"--{flag.replace('_', '-')} does not apply to --mode {name}")
        options[flag] = value
    sizes = () if table.sizes is None else (tuple(args.sizes or table.sizes),)
    points = table.runner(*sizes, **options)
    return format_points(points, table.title.format(point=points[-1]))


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    A flag the chosen mode does not take, or a library error such as a
    network too small for its workload, exits with status 2 and one usage
    line instead of a traceback.  A reader that closes the pipe early
    (``repro-experiments intro | head -1``) ends the run with status 0.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("throughput", "amortization"):
            output = _render_points(parser, args)
        else:
            output = _RENDERERS[args.command](args)
    except ReproError as error:
        parser.error(str(error))
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``... | head -1``): stop quietly, and
        # point stdout at devnull so the interpreter's exit flush stays
        # quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
