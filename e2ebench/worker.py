"""One benchmark run inside this interpreter; ``run.py`` starts it fresh.

    python3 e2ebench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --out RESULT.json

Sets the workload up ``SETUPS`` times (``setup_s`` is the median), draws
the epoch schedule from the seed, then runs epochs for ``--seconds``
seconds (and at least ``SCORED_EPOCH`` epochs, and ten beyond the
workload's tail percentile), timing each at its
boundaries only.  With ``--trace 1`` half the epochs record a span
around each library call and the other half, interleaved, run bare, so
the same run yields the per-layer breakdown and the tracing overhead.
Correctness gates run outside the timed region; each gate is also fed
its output with one decision flipped and must fire on it.

Host-speed correction: on shared machines the same epoch runs up to 2x
slower for minutes at a time, in CPU time as well as wall time, which no
run length averages out.  So a fixed probe that does not touch the
library is timed right before and after every set-up and epoch, and each
duration is reported as ``raw * REFERENCE_PROBE_S / probe``: seconds on a
host as fast as the reference host.  The raw figures are kept in the
result file and printed with a ``_raw`` suffix.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Precision, recall and the scored gates read the decisions of this
#: epoch, so they do not depend on how many epochs fit into the run.
SCORED_EPOCH = 20
#: No epoch starts this long after the run began, whatever was measured,
#: so a run ends well inside its time limit.
DEADLINE_S = 140.0
#: Tail percentiles tried, highest first.
TAIL_LADDER = (99, 95, 90, 75, 50)
#: What ``host_probe`` takes on the reference host (2-core x86-64
#: container, Python 3.11, numpy 2.4) when nothing else competes for it.
REFERENCE_PROBE_S = 0.00075

SPAN_LAYERS = (
    "topology.apply",
    "discovery.global",
    "discovery.local",
    "plan.lower",
    "assess.global",
    "assess.local",
    "decide.flag",
    "route.query",
    "em.update",
    "gossip.converge",
    "replica.rebuild",
    "replica.assess",
)
SETUP_LAYERS = ("align.build", "generate.build")
COUNTS = (
    "topology.events",
    "discovery.full_probes",
    "discovery.partial_refreshes",
    "discovery.work_units",
    "discovery.structures",
    "plan.compiles",
    "sweep.iterations",
    "sweep.local_rows",
    "decide.decisions",
    "decide.flagged",
    "route.hops",
    "route.peers_visited",
    "em.updates",
    "gossip.rounds",
    "gossip.messages",
    "gossip.buffered",
    "replica.events_replayed",
)
RATIOS = {
    "sweep.converged_ratio": ("sweep.converged", "sweep.lanes"),
    "route.forwarded_ratio": ("route.forwarded", "route.hops"),
    "gossip.useful_ratio": ("gossip.deliveries", "gossip.messages"),
}


def host_probe() -> float:
    """Seconds a fixed interpreter-and-numpy kernel takes right now (best
    of three, garbage collection off).  It never calls the library, so no
    change to the library can move it; only the host's speed does."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            table = {}
            for i in range(3000):
                key = (i % 97, i % 89)
                table[key] = table.get(key, 0.0) + i * 0.5
            sorted(table.values())
            values = numpy.arange(2048.0)
            for _ in range(20):
                values = numpy.sqrt(values * 1.0001 + 1.0)
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        gc.enable()


def _timed(call):
    """``(result, raw seconds, host factor)`` of one call, with the host
    probed right before and after it."""
    before = host_probe()
    started = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - started
    probe = (before + host_probe()) / 2
    return result, elapsed, REFERENCE_PROBE_S / probe


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stamp() -> dict:
    import networkx

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_revision": _git_revision(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "repro_knobs_set": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def _tail(seconds, declared):
    """The highest percentile (at most ``declared``) with at least ten
    epochs beyond it, and its nearest-rank value."""
    ordered = sorted(seconds)
    count = len(ordered)
    for percentile in TAIL_LADDER:
        rank = math.ceil(percentile / 100 * count)
        if percentile <= declared and count - rank >= 10:
            return percentile, ordered[rank - 1]
    return 50, statistics.median(ordered)


def _check(gates, flip_one, log):
    """Run each gate on its output and on a one-decision perturbation."""
    failures = []
    for name, observed, check in gates:
        problems = check(observed)
        perturbed = flip_one(observed)
        fires = perturbed is not None and bool(check(perturbed))
        log.append(
            {"gate": name, "problems": problems[:5], "self_test_fires": fires}
        )
        if problems:
            failures.append(f"gate {name} failed: {problems[:3]}")
        if not fires:
            failures.append(f"gate {name} did not fire on a flipped decision")
    return failures


def _end_to_end(workload, setups, epochs, quality):
    seconds = [epoch["seconds"] for epoch in epochs]
    percentile, tail = _tail(seconds, workload.tail_percentile)
    factors = [epoch["factor"] for epoch in epochs]

    def rate(name):
        """Median over epochs of the epoch's count per second of its time;
        a median, so one epoch that re-runs a sweep does not swing it."""
        return statistics.median(
            epoch["counts"][name] / epoch["seconds"] for epoch in epochs
        )

    metrics = {
        "setup_s": (
            statistics.median(s["raw_seconds"] * s["factor"] for s in setups),
            "s",
        ),
        "epoch_p50_s": (statistics.median(seconds), "s"),
        "epoch_tail_s": (tail, "s"),
        "decisions_per_s": (rate("decide.decisions"), "1/s"),
        "precision": (quality[0], "ratio"),
        "recall": (quality[1], "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    extra = {
        "epoch_tail_percentile": (percentile, "pct"),
        "epochs": (len(epochs), "count"),
        "setup_raw_s": (statistics.median(s["raw_seconds"] for s in setups), "s"),
        "epoch_p50_raw_s": (
            statistics.median(epoch["raw_seconds"] for epoch in epochs),
            "s",
        ),
        "host_factor_min": (min(factors), "ratio"),
        "host_factor_p50": (statistics.median(factors), "ratio"),
    }
    if workload.has_events:
        extra["events_per_s"] = (rate("topology.events"), "1/s")
    return metrics, extra


def _per_layer(rec, setups, epochs):
    """Per-epoch medians over the traced epochs; span times carry the same
    host correction as the epoch they belong to."""
    traced = [epoch for epoch in epochs if epoch["traced"]]
    bare = [epoch["seconds"] for epoch in epochs if not epoch["traced"]]
    layers = rec.layer_seconds()
    metrics, absent = {}, []
    for name in SPAN_LAYERS:
        metrics[name + "_s"] = (
            statistics.median(
                layers[e["index"]].get(name, 0.0) * e["factor"] for e in traced
            ),
            "s",
        )
    for name in SETUP_LAYERS:
        metrics[name + "_s"] = (
            statistics.median(
                layers[f"setup-{k}"].get(name, 0.0) * setup["factor"]
                for k, setup in enumerate(setups)
            ),
            "s",
        )
    for name in COUNTS:
        values = [epoch["counts"].get(name, 0) for epoch in traced]
        if None in values:
            absent.append(name)
        else:
            metrics[name] = (statistics.median(values), "count")
    for name, (numerator, denominator) in RATIOS.items():
        tops = [epoch["counts"].get(numerator, 0) for epoch in traced]
        bottoms = [epoch["counts"].get(denominator, 0) for epoch in traced]
        if None in tops or None in bottoms:
            absent.append(name)
        else:
            metrics[name] = (sum(tops) / sum(bottoms) if sum(bottoms) else 0.0, "ratio")
    metrics["epoch.unattributed_s"] = (
        statistics.median(
            (e["raw_seconds"] - sum(layers[e["index"]].values())) * e["factor"]
            for e in traced
        ),
        "s",
    )
    if bare:
        metrics["trace.overhead_s"] = (
            statistics.median(e["seconds"] for e in traced)
            - statistics.median(bare),
            "s",
        )
    else:
        absent.append("trace.overhead_s")
    return metrics, absent


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Recorder
    from workloads import WORKLOADS, flip_one

    begun = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    rec = Recorder()
    setups = []
    system = None
    for k in range(SETUPS):
        system = None
        gc.collect()
        rec.enabled, rec.epoch = bool(args.trace), f"setup-{k}"
        system, elapsed, factor = _timed(lambda: workload.setup(rec))
        setups.append({"raw_seconds": elapsed, "factor": factor})
    steps = workload.schedule(system, random.Random(args.seed))

    # Enough epochs for the scored epoch and for ten beyond the workload's
    # tail percentile, so a slow host cannot change which percentile the
    # tail reports.
    least = max(SCORED_EPOCH, 1000 // (100 - workload.tail_percentile))
    epochs, failures, gate_log = [], [], []
    quality = None
    index = 0
    measuring = time.perf_counter()
    while (
        index < least or time.perf_counter() - measuring < args.seconds
    ) and time.perf_counter() - begun < DEADLINE_S:
        if workload.session_epochs and index and index % workload.session_epochs == 0:
            system = None
            system = workload.setup(Recorder())
        step = steps[index % len(steps)]
        # Traced and bare epochs alternate, and the phase flips every ten
        # epochs, so both halves cover each attribute of the rotations.
        traced = bool(args.trace) and (index + index // 10) % 2 == 0
        rec.enabled, rec.epoch = traced, index
        before = workload.counters(system)
        try:
            out, elapsed, factor = _timed(lambda: workload.epoch(system, step, rec))
        except Exception:
            traceback.print_exc()
            failures.append(f"epoch {index} raised")
            index += 1
            break
        rec.enabled = False
        counts = workload.tally(system, step, out)
        after = workload.counters(system)
        for name, value in after.items():
            counts[name] = (
                None if value is None or before[name] is None else value - before[name]
            )
        epochs.append(
            {
                "index": index,
                "seconds": elapsed * factor,
                "raw_seconds": elapsed,
                "factor": factor,
                "traced": traced,
                "counts": counts,
            }
        )
        index += 1
        if index == SCORED_EPOCH:
            quality = workload.quality(system, step, out)
            failures += _check(workload.score_gates(system, step, out), flip_one, gate_log)
        # A deployment drops an epoch's output; holding it would make the
        # next epoch's garbage collections walk it.
        out = None
    if quality is None:
        failures.append(f"epoch {SCORED_EPOCH} was not reached")
    elif len(epochs) == index:
        try:
            failures += _check(workload.final_gates(system, step), flip_one, gate_log)
        except Exception:
            traceback.print_exc()
            failures.append("final gates raised")

    if not epochs:
        metrics, extra, absent = {}, {}, []
    elif args.trace:
        metrics, absent = _per_layer(rec, setups, epochs)
        extra = {}
    else:
        metrics, extra = _end_to_end(
            workload, setups, epochs, quality or (math.nan, math.nan)
        )
        absent = []
    attempted = max(index, 1)
    failed = min(len(failures), attempted)
    extra["failed_ratio"] = (failed / attempted, "ratio")

    stamp = _stamp()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp,
        "setups": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "absent": absent,
        "gates": gate_log,
        "failures": failures,
        "epochs": epochs,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=1))
    if args.trace:
        out_path.with_suffix(".spans.json").write_text(
            json.dumps([list(span) for span in rec.spans])
        )

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for entry in gate_log:
        print("gate " + json.dumps(entry))
    for failure in failures:
        print("FAILED " + failure)
    for name in absent:
        print(f"{name} = absent")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value!r} {unit}")
    if not args.trace and not workload.has_events:
        print("events_per_s = absent (no topology events)")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
