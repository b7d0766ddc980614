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
from repro.evaluation.experiments import run_batched_assessment
from repro.evaluation.reporting import format_table
from repro.generators.scenarios import generate_scenario

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


def _row(point, label):
    return (
        point.peer_count,
        label,
        point.attribute_count,
        point.structure_count,
        f"{point.sequential_seconds * 1e3:.1f}",
        f"{point.batched_seconds * 1e3:.1f}",
        f"{point.speedup:.1f}x",
        f"{point.max_posterior_difference:.1e}",
    )


@pytest.mark.parametrize("peer_count", SIZES)
def test_bench_batched_assessment(benchmark, report, report_json, peer_count):
    scenario = generate_scenario(
        topology="scale-free",
        peer_count=peer_count,
        attribute_count=10,
        error_rate=0.15,
        seed=peer_count,
    )
    assessor = MappingQualityAssessor(
        scenario.network, delta=None, ttl=3, include_parallel_paths=False, seed=0
    )
    assessor.structure_cache.structures()
    benchmark(assessor.assess_all_attributes)

    lossless = run_batched_assessment(
        peer_counts=(peer_count,), repeats=PAIRS
    ).point_for(peer_count)
    lossy = run_batched_assessment(
        peer_counts=(peer_count,),
        repeats=1,
        send_probability=LOSSY_SEND_PROBABILITY,
    ).point_for(peer_count)

    lines = format_table(
        (
            "peers",
            "transport",
            "attributes",
            "structures",
            "one-lane runs ms",
            "stacked lanes ms",
            "speedup",
            "max |Δposterior|",
        ),
        [
            _row(lossless, "lossless"),
            _row(lossy, f"P(send)={LOSSY_SEND_PROBABILITY}"),
        ],
        title=(
            f"Batched assessment — attribute lanes in one run vs one-lane runs "
            f"per attribute on the {peer_count}-peer scale-free network"
        ),
    )
    pairs = " ".join(f"{ratio:.2f}x" for ratio in lossless.pair_speedups)
    lines += (
        f"\nlossless speedup = median of {len(lossless.pair_speedups)} "
        f"alternating pairs: {pairs}"
    )
    report(f"EX_batched_assessment_{peer_count}_peers", lines)
    report_json(
        f"batched_assessment_{peer_count}_peers",
        {
            "peer_count": peer_count,
            "attribute_count": lossless.attribute_count,
            "structure_count": lossless.structure_count,
            "mapping_count": lossless.mapping_count,
            "sequential_seconds": lossless.sequential_seconds,
            "batched_seconds": lossless.batched_seconds,
            "speedup": lossless.speedup,
            "pair_speedups": list(lossless.pair_speedups),
            "batched_attributes_per_second": lossless.batched_attributes_per_second,
            "lossy_speedup": lossy.speedup,
            "max_posterior_difference": lossless.max_posterior_difference,
            "lossy_max_posterior_difference": lossy.max_posterior_difference,
        },
    )

    # Both paths must see the exact same inference problems.
    assert lossless.attribute_count >= 5
    assert lossless.plan_compiles == 1
    assert lossy.plan_compiles == 1
    assert lossless.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    assert lossy.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    if peer_count >= 32:
        assert len(lossless.pair_speedups) >= PAIRS
        assert lossless.speedup >= MIN_SPEEDUP_AT_32_PEERS, (
            f"stacked lanes are only {lossless.speedup:.1f}x faster than "
            f"one-lane runs at {peer_count} peers in the median of {pairs} "
            f"(floor {MIN_SPEEDUP_AT_32_PEERS}x)"
        )


def test_bench_plan_compiled_once_per_version(report):
    """``assess_all_attributes`` builds plans/tables once per network version."""
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
