"""Extra ablation — all-origins decentralised assessment in one run vs
one-lane runs per origin.

The per-peer decentralised view of §4.5 — *every* peer judging its own
outgoing mappings from its own probe evidence, the traffic model of a live
PDMS — runs every origin as a disjoint lane of one shared slice of the lane
engine (:class:`~repro.core.batched.BatchedEmbeddedMessagePassing`) over
one :class:`~repro.factorgraph.plan.SweepPlan` assembled from per-origin
blocks, each block compiled once per walk of its origin.  This benchmark
times the full all-origins ``assess_local_all`` pass on a 32-peer
scale-free network against one one-lane ``assess_locals([origin])`` run
per origin, lossless and lossy, and doubles as a regression tripwire: the
shared run must stay ≥2x ahead at 32 peers while reproducing the one-lane
views to ``1e-9``, compiling exactly one block per origin, and probing
each origin's neighbourhood exactly once per network version.
"""

import pytest

from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import run_local_assessment, throughput_network

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


@pytest.mark.parametrize("peer_count", SIZES)
def test_bench_local_assessment(benchmark, report_points, peer_count):
    network = throughput_network(peer_count)
    attribute = network.attribute_universe()[0]
    assessor = MappingQualityAssessor(
        network, delta=None, ttl=3, include_parallel_paths=False, seed=0
    )
    for origin in network.peer_names:
        assessor.neighborhood_cache.structures_for(origin)
    benchmark(assessor.assess_local_all, attribute)

    lossless, lossy = run_local_assessment(
        peer_counts=(peer_count,), repeats=PAIRS
    ) + run_local_assessment(
        peer_counts=(peer_count,),
        repeats=1,
        send_probability=LOSSY_SEND_PROBABILITY,
    )
    report_points(
        f"local_assessment_{peer_count}_peers",
        (lossless, lossy),
        f"Local assessment — per-origin lanes in one run vs one-lane runs "
        f"per origin on the {peer_count}-peer scale-free network (speedup: "
        f"median of {PAIRS} alternating pairs lossless, one pair lossy)",
    )

    # Both paths must see the exact same per-origin inference problems, and
    # the cache must probe each origin, and compile its block, exactly once.
    assert lossless.origin_count == peer_count
    assert lossless.probes == peer_count
    assert lossy.probes == peer_count
    assert lossless.plan_compiles == peer_count
    assert lossy.plan_compiles == peer_count
    assert lossless.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    assert lossy.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    if peer_count >= 32:
        assert lossless.speedup >= MIN_SPEEDUP_AT_32_PEERS, (
            f"the all-origins run is only {lossless.speedup:.1f}x faster "
            f"than one-lane runs per origin at {peer_count} peers in the "
            f"median of pairs {lossless.timing.ratios(0, 1)} (floor "
            f"{MIN_SPEEDUP_AT_32_PEERS}x)"
        )


def test_bench_local_probe_once_per_version(report):
    """``assess_local_all`` probes each origin exactly once per network
    version and compiles its block once per walk, across attributes and EM
    rounds."""
    network = throughput_network(32)
    assessor = MappingQualityAssessor(
        network, delta=None, ttl=3, include_parallel_paths=False, seed=0
    )
    attributes = network.attribute_universe()[:3]
    for _ in range(2):
        for attribute in attributes:
            assessor.assess_local_all(attribute)
    statistics = assessor.neighborhood_cache.statistics
    assert statistics.probes == len(network.peer_names)
    assert assessor.local_plan_compile_count == 32

    # A topology mutation refreshes incrementally (no new full probes) and
    # recompiles the blocks of the origins it re-walked: the five whose
    # cycles held p0->p1 (p0, p1, p3, p16 and p19).
    removed = network.mapping_names[0]
    assert removed == "p0->p1"
    network.remove_mapping(removed)
    assessor.assess_local_all(attributes[0])
    assert statistics.probes == len(network.peer_names)
    assert statistics.partial_refreshes == len(network.peer_names)
    assert assessor.local_plan_compile_count == 32 + 5
    report(
        "EX_local_plan_reuse",
        "local block compiles: 32 across 2 EM passes x 3 attributes, "
        "37 after remove_mapping\n"
        f"probes: {statistics.probes} full, "
        f"{statistics.partial_refreshes} partial",
    )
