"""Extra ablation — batched all-attribute assessment vs engine-per-attribute.

PR 2 left the per-attribute embedded engine *construction* as the top
remaining perf lever: ``assess_all_attributes`` rebuilt factor tables, index
plans and einsum operands for every attribute even though the cached
cycle/parallel-path structures are shared.  This benchmark times the full
multi-attribute sweep on a 32-peer scale-free network with the sequential
engine-per-attribute path and with the batched
:class:`~repro.core.batched.BatchedEmbeddedMessagePassing` over one compiled
:class:`~repro.factorgraph.plan.SweepPlan`, lossless and lossy, and doubles
as a regression tripwire: the batched sweep must stay ≥3x ahead of the
sequential one at 32 peers while reproducing its posteriors to ``1e-9`` and
compiling the plan exactly once.
"""

import pytest

from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import run_batched_assessment
from repro.evaluation.reporting import format_table
from repro.generators.scenarios import generate_scenario

SIZES = (16, 32)

#: Acceptance floor for the batched sweep over per-attribute construction
#: at 32 peers (measured ~4x; the floor leaves noise headroom).
MIN_SPEEDUP_AT_32_PEERS = 3.0

#: Both engines seed one transport per attribute identically and consume the
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
        peer_counts=(peer_count,), repeats=3
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
            f"Batched assessment — one stacked engine vs engine-per-attribute "
            f"on the {peer_count}-peer scale-free network"
        ),
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
            "batched_attributes_per_second": lossless.batched_attributes_per_second,
            "lossy_speedup": lossy.speedup,
            "max_posterior_difference": lossless.max_posterior_difference,
            "lossy_max_posterior_difference": lossy.max_posterior_difference,
        },
    )

    # The sequential engines must see the exact same inference problem.
    assert lossless.attribute_count >= 5
    assert lossless.plan_compiles == 1
    assert lossy.plan_compiles == 1
    assert lossless.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    assert lossy.max_posterior_difference <= MAX_POSTERIOR_DIVERGENCE
    if peer_count >= 32:
        assert lossless.speedup >= MIN_SPEEDUP_AT_32_PEERS, (
            f"batched sweep is only {lossless.speedup:.1f}x faster than the "
            f"engine-per-attribute path at {peer_count} peers "
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
