"""Extra ablation — all-origins decentralised assessment in one run vs
one-lane runs per origin.

The per-peer decentralised view of §4.5 — *every* peer judging its own
outgoing mappings from its own probe evidence, the traffic model of a live
PDMS — runs every origin as a disjoint lane of one shared slice of the lane
engine (:class:`~repro.core.batched.BatchedEmbeddedMessagePassing`) over
one compiled per-origin :class:`~repro.factorgraph.plan.SweepPlan`.  This
benchmark times the full all-origins ``assess_local_all`` pass on a 32-peer
scale-free network against one one-lane ``assess_locals([origin])`` run
per origin, lossless and lossy, and doubles as a regression tripwire: the
shared run must stay ≥2x ahead at 32 peers while reproducing the one-lane
views to ``1e-9``, compiling the local plan exactly once, and probing each
origin's neighbourhood exactly once per network version.
"""

import pytest

from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import run_local_assessment
from repro.evaluation.reporting import format_table
from repro.generators.scenarios import generate_scenario

SIZES = (16, 32)

#: Acceptance floor for the all-origins run over one-lane runs per origin
#: at 32 peers.  Both sides run the same engine, so the floor measures
#: what sharing one slice buys (one plan, one construction, one set of
#: numpy calls per round).  A 2-core host read a median of 3.8x over 9
#: alternating pairs (IQR 3.73–3.94x, slowest pair 3.62x).  Asserted
#: against the median of ``PAIRS`` alternating pairs, not a single best-of
#: ratio.
MIN_SPEEDUP_AT_32_PEERS = 2.0

#: Alternating sequential/batched timing pairs behind the lossless ratio.
PAIRS = 7

#: Both paths seed one transport per origin identically and consume the rng
#: in the same transmission order, so local views may only differ by
#: accumulated floating-point noise (in practice they match bit for bit).
MAX_POSTERIOR_DIVERGENCE = 1e-9

LOSSY_SEND_PROBABILITY = 0.7


def _row(point, label):
    return (
        point.peer_count,
        label,
        point.origin_count,
        point.structure_count,
        f"{point.sequential_seconds * 1e3:.1f}",
        f"{point.batched_seconds * 1e3:.1f}",
        f"{point.speedup:.1f}x",
        f"{point.max_posterior_difference:.1e}",
    )


@pytest.mark.parametrize("peer_count", SIZES)
def test_bench_local_assessment(benchmark, report, report_json, peer_count):
    scenario = generate_scenario(
        topology="scale-free",
        peer_count=peer_count,
        attribute_count=10,
        error_rate=0.15,
        seed=peer_count,
    )
    network = scenario.network
    attribute = network.attribute_universe()[0]
    assessor = MappingQualityAssessor(
        network, delta=None, ttl=3, include_parallel_paths=False, seed=0
    )
    for origin in network.peer_names:
        assessor.neighborhood_cache.structures_for(origin)
    benchmark(assessor.assess_local_all, attribute)

    lossless = run_local_assessment(
        peer_counts=(peer_count,), repeats=PAIRS
    ).point_for(peer_count)
    lossy = run_local_assessment(
        peer_counts=(peer_count,),
        repeats=1,
        send_probability=LOSSY_SEND_PROBABILITY,
    ).point_for(peer_count)

    lines = format_table(
        (
            "peers",
            "transport",
            "origins",
            "structures",
            "sequential ms",
            "batched ms",
            "speedup",
            "max |Δposterior|",
        ),
        [
            _row(lossless, "lossless"),
            _row(lossy, f"P(send)={LOSSY_SEND_PROBABILITY}"),
        ],
        title=(
            f"Local assessment — per-origin lanes in one run vs one-lane "
            f"runs per origin on the {peer_count}-peer scale-free network"
        ),
    )
    pairs = " ".join(f"{ratio:.2f}x" for ratio in lossless.pair_speedups)
    lines += (
        f"\nlossless speedup = median of {len(lossless.pair_speedups)} "
        f"alternating pairs: {pairs}"
    )
    report(f"EX_local_assessment_{peer_count}_peers", lines)
    report_json(
        f"local_assessment_{peer_count}_peers",
        {
            "peer_count": peer_count,
            "origin_count": lossless.origin_count,
            "attribute": lossless.attribute,
            "structure_count": lossless.structure_count,
            "mapping_count": lossless.mapping_count,
            "sequential_seconds": lossless.sequential_seconds,
            "batched_seconds": lossless.batched_seconds,
            "speedup": lossless.speedup,
            "pair_speedups": list(lossless.pair_speedups),
            "batched_origins_per_second": lossless.batched_origins_per_second,
            "lossy_speedup": lossy.speedup,
            "max_posterior_difference": lossless.max_posterior_difference,
            "lossy_max_posterior_difference": lossy.max_posterior_difference,
            "probes": lossless.probes,
            "plan_compiles": lossless.plan_compiles,
        },
    )

    # Both paths must see the exact same per-origin inference problems, and
    # the cache must probe each origin exactly once.
    assert lossless.origin_count == peer_count
    assert lossless.probes == peer_count
    assert lossy.probes == peer_count
    assert lossless.plan_compiles == 1
    assert lossy.plan_compiles == 1
    assert lossless.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    assert lossy.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    if peer_count >= 32:
        assert lossless.speedup >= MIN_SPEEDUP_AT_32_PEERS, (
            f"the all-origins run is only {lossless.speedup:.1f}x faster "
            f"than one-lane runs per origin at {peer_count} peers in the median of "
            f"{pairs} (floor {MIN_SPEEDUP_AT_32_PEERS}x)"
        )


def test_bench_local_probe_once_per_version(report):
    """``assess_local_all`` probes each origin and compiles the local plan
    exactly once per network version, across attributes and EM rounds."""
    scenario = generate_scenario(
        topology="scale-free",
        peer_count=32,
        attribute_count=10,
        error_rate=0.15,
        seed=32,
    )
    network = scenario.network
    assessor = MappingQualityAssessor(
        network, delta=None, ttl=3, include_parallel_paths=False, seed=0
    )
    attributes = network.attribute_universe()[:3]
    for _ in range(2):
        for attribute in attributes:
            assessor.assess_local_all(attribute)
    statistics = assessor.neighborhood_cache.statistics
    assert statistics.probes == len(network.peer_names)
    assert assessor.local_plan_compile_count == 1

    # A topology mutation refreshes incrementally (no new full probes) and
    # recompiles the plan exactly once more.
    removed = network.mapping_names[0]
    network.remove_mapping(removed)
    assessor.assess_local_all(attributes[0])
    assert statistics.probes == len(network.peer_names)
    assert statistics.partial_refreshes == len(network.peer_names)
    assert assessor.local_plan_compile_count == 2
    report(
        "EX_local_plan_reuse",
        "local plan compiles: 1 across 2 EM passes x 3 attributes, "
        "2 after remove_mapping\n"
        f"probes: {statistics.probes} full, "
        f"{statistics.partial_refreshes} partial",
    )
