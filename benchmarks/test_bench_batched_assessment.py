"""Extra ablation — all attributes as lanes of one run vs one-lane runs.

The cycle / parallel-path structures are shared by every attribute, so
``assess_all_attributes`` runs every attribute as a lane (one slice each)
of one :class:`~repro.core.batched.BatchedEmbeddedMessagePassing` over one
compiled :class:`~repro.factorgraph.plan.SweepPlan`.  This benchmark times
the full multi-attribute sweep on a 32-peer scale-free network against one
one-lane ``assess_attribute`` run per attribute on the same cached plan,
lossless and lossy, and doubles as a regression tripwire: the stacked
lanes must stay ≥1.5x ahead at 32 peers in the median of ``PAIRS``
alternating pairs while reproducing the one-lane posteriors to ``1e-9``
and compiling the plan exactly once.
"""

import pytest

from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import run_batched_assessment, throughput_network

SIZES = (16, 32)

#: Acceptance floor for stacked attribute lanes over one-lane runs on the
#: same cached plan at 32 peers.  Both sides run the same engine, so the
#: floor measures what stacking buys: one construction and one set of numpy
#: calls per round instead of one per attribute.  A 2-core host read a
#: median of 2.0x over 9 alternating pairs (IQR 2.01–2.07x, slowest pair
#: 1.49x).  Asserted against the median of ``PAIRS`` alternating pairs, not
#: a single best-of ratio: single best-of-3 ratios against the old 3.0x
#: floor failed 3 runs in 8.
MIN_SPEEDUP_AT_32_PEERS = 1.5

#: Alternating one-lane/stacked timing pairs behind the lossless ratio.
PAIRS = 7

#: Both sides seed one transport per attribute identically and consume the
#: rng in the same transmission order, so posteriors may only differ by
#: accumulated floating-point noise (in practice they match bit for bit).
MAX_POSTERIOR_DIVERGENCE = 1e-9

LOSSY_SEND_PROBABILITY = 0.7


@pytest.mark.parametrize("peer_count", SIZES)
def test_bench_batched_assessment(benchmark, report_points, peer_count):
    assessor = MappingQualityAssessor(
        throughput_network(peer_count),
        delta=None,
        ttl=3,
        include_parallel_paths=False,
        seed=0,
    )
    assessor.structure_cache.structures()
    benchmark(assessor.assess_all_attributes)

    lossless, lossy = run_batched_assessment(
        peer_counts=(peer_count,), repeats=PAIRS
    ) + run_batched_assessment(
        peer_counts=(peer_count,),
        repeats=1,
        send_probability=LOSSY_SEND_PROBABILITY,
    )
    report_points(
        f"batched_assessment_{peer_count}_peers",
        (lossless, lossy),
        f"Batched assessment — attribute lanes in one run vs one-lane runs "
        f"per attribute on the {peer_count}-peer scale-free network (speedup: "
        f"median of {PAIRS} alternating pairs lossless, one pair lossy)",
    )

    # Both paths must see the exact same inference problems.
    assert lossless.attribute_count >= 5
    assert lossless.plan_compiles == 1
    assert lossy.plan_compiles == 1
    assert lossless.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    assert lossy.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    if peer_count >= 32:
        assert lossless.timing.pairs >= PAIRS
        assert lossless.speedup >= MIN_SPEEDUP_AT_32_PEERS, (
            f"stacked lanes are only {lossless.speedup:.1f}x faster than "
            f"one-lane runs at {peer_count} peers in the median of pairs "
            f"{lossless.timing.ratios(0, 1)} (floor {MIN_SPEEDUP_AT_32_PEERS}x)"
        )


def test_bench_plan_compiled_once_per_version(report):
    """``assess_all_attributes`` builds plans/tables once per network version."""
    network = throughput_network(32)
    assessor = MappingQualityAssessor(
        network, delta=None, ttl=3, include_parallel_paths=False, seed=0
    )
    for _ in range(3):
        assessor.assess_all_attributes()
        assessor.update_priors()
    assert assessor.plan_compile_count == 1
    assert assessor.structure_cache.statistics.probes == 1

    # A topology mutation recompiles exactly once more.
    removed = network.mapping_names[0]
    network.remove_mapping(removed)
    assessor.assess_all_attributes()
    assert assessor.plan_compile_count == 2
    report(
        "EX_batched_plan_reuse",
        "plan compiles: 1 across 3 assess+EM passes, 2 after remove_mapping\n"
        f"probes: {assessor.structure_cache.statistics.probes} full, "
        f"{assessor.structure_cache.statistics.partial_refreshes} partial",
    )
