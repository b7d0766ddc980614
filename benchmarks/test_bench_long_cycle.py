"""Extra ablation — count-space kernels on long cycles vs the loop reference.

Before this benchmark existed the workload it times was impossible: every
structure above the dense einsum limit (``MAX_COMPILED_ARITY`` = 25 slots)
rejected compilation, and the sequential fallback could not even build its
``(2,)**arity`` CPTs.  The count-space kernels
(:class:`~repro.factorgraph.compiled.CountFactorBatch` /
:class:`~repro.factorgraph.compiled.StackedCountFactorBatch`) evaluate the
same sum–product sweep from the ``arity + 1`` count-value vector in
O(arity²) time and O(arity) table memory per structure, so a network of
30- and 40-mapping rings now compiles and runs on the vectorized engine
and on the lane engine's attribute and per-origin lanes alike.

Doubles as a regression tripwire: the vectorized count kernels must stay
≥5x ahead of the loop reference at cycle length 30 while matching its
marginals to ``1e-9``; the attribute lanes must match the same marginals,
and every origin's local view the loops sum-product on that origin's own
evidence, with every long bucket on the count kernel (no dense table).  A
second test pins the per-origin compaction: per-round work must
*decrease* as origins converge instead of every row riding the sweeps
until the last origin finishes.
"""

import pytest

from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import run_long_cycle_throughput
from repro.evaluation.reporting import format_table
from repro.generators.scenarios import generate_scenario

CYCLE_LENGTHS = (30, 40)
RINGS = 10

#: Acceptance floor for the vectorized count kernels over the loop
#: reference at cycle length 30 (measured ~8x with 10 rings; the floor
#: leaves noise headroom).
MIN_SPEEDUP_AT_30 = 5.0

#: All engine families evaluate the same count-space expression, so
#: marginals may only differ by accumulated floating-point noise (in
#: practice they match bit for bit).
MAX_DIVERGENCE = 1e-9


@pytest.mark.parametrize("cycle_length", CYCLE_LENGTHS)
def test_bench_long_cycle(benchmark, report, report_json, cycle_length):
    result = run_long_cycle_throughput(
        cycle_lengths=(cycle_length,), rings=RINGS, repeats=3
    )
    point = result.point_for(cycle_length)

    # Time the vectorized path once more under pytest-benchmark for the
    # harness' own statistics (the speedup assertion uses the best-of-N
    # timings inside the runner, which include the loop reference).
    benchmark(
        run_long_cycle_throughput,
        cycle_lengths=(cycle_length,),
        rings=RINGS,
        repeats=1,
    )

    lines = format_table(
        (
            "cycle length",
            "rings",
            "edges",
            "loop msg/s",
            "count-kernel msg/s",
            "speedup",
            "max |Δmarginal|",
            "max |Δbatched|",
            "max |Δlocal|",
        ),
        [
            (
                point.cycle_length,
                point.ring_count,
                point.edge_count,
                f"{point.loop_messages_per_second:,.0f}",
                f"{point.vectorized_messages_per_second:,.0f}",
                f"{point.speedup:.1f}x",
                f"{point.max_marginal_difference:.1e}",
                f"{point.batched_max_difference:.1e}",
                f"{point.local_max_difference:.1e}",
            )
        ],
        title=(
            f"Long cycles — count-space kernels vs loop reference, "
            f"{point.ring_count} rings of {point.cycle_length} mappings"
        ),
    )
    report(f"EX_long_cycle_{cycle_length}", lines)
    report_json(
        f"long_cycle_{cycle_length}",
        {
            "cycle_length": point.cycle_length,
            "ring_count": point.ring_count,
            "structure_count": point.structure_count,
            "edge_count": point.edge_count,
            "iterations": point.iterations,
            "loop_seconds": point.loop_seconds,
            "vectorized_seconds": point.vectorized_seconds,
            "speedup": point.speedup,
            "loop_messages_per_second": point.loop_messages_per_second,
            "vectorized_messages_per_second": point.vectorized_messages_per_second,
            "max_marginal_difference": point.max_marginal_difference,
            "batched_max_difference": point.batched_max_difference,
            "local_max_difference": point.local_max_difference,
            "count_kernel_buckets": point.count_kernel_buckets,
            "dense_kernel_buckets": point.dense_kernel_buckets,
            "compaction_edge_counts": list(point.compaction_edge_counts),
        },
    )

    # Long buckets must run on the count kernels — no dense (2,)**arity
    # table — and every path must agree with the loops sum-product.
    assert point.structure_count == RINGS
    assert point.count_kernel_buckets >= 1
    assert point.dense_kernel_buckets == 0
    assert point.max_marginal_difference <= MAX_DIVERGENCE
    assert point.batched_max_difference <= MAX_DIVERGENCE
    assert point.local_max_difference <= MAX_DIVERGENCE
    if cycle_length == 30:
        assert point.speedup >= MIN_SPEEDUP_AT_30, (
            f"count kernels are only {point.speedup:.1f}x faster than the "
            f"loop reference at cycle length 30 (floor {MIN_SPEEDUP_AT_30}x)"
        )


def test_bench_long_cycle_compaction(report, report_json):
    """Per-origin compaction: per-round work decreases as origins freeze.

    On a heterogeneous network origins converge at different rounds; the
    shared slice must shed each frozen origin's rows, so the per-round
    edge-row trajectory is non-increasing and strictly smaller by the end.
    """
    scenario = generate_scenario(
        topology="scale-free",
        peer_count=32,
        attribute_count=10,
        error_rate=0.15,
        seed=32,
    )
    network = scenario.network
    attribute = network.attribute_universe()[0]
    assessor = MappingQualityAssessor(
        network, delta=None, ttl=3, include_parallel_paths=False, seed=0
    )
    assessor.assess_local_all(attribute)
    trajectory = assessor.last_local_round_edge_counts
    assert trajectory, "the batched local sweep recorded no rounds"
    assert all(a >= b for a, b in zip(trajectory, trajectory[1:])), (
        f"per-round work grew: {trajectory}"
    )
    assert trajectory[-1] < trajectory[0], (
        f"no compaction happened over {len(trajectory)} rounds: {trajectory}"
    )
    report(
        "EX_long_cycle_compaction",
        "per-origin lane compaction (32-peer scale-free, "
        f"{len(trajectory)} rounds)\n"
        f"edge rows per round: {list(trajectory)}\n"
        f"first {trajectory[0]} -> last {trajectory[-1]} rows "
        f"({1.0 - trajectory[-1] / trajectory[0]:.0%} shed)",
    )
    report_json(
        "long_cycle_compaction",
        {
            "peer_count": 32,
            "rounds": len(trajectory),
            "round_edge_counts": list(trajectory),
            "first_round_rows": trajectory[0],
            "last_round_rows": trajectory[-1],
        },
    )
