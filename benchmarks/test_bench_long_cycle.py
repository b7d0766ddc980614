"""Extra ablation — the lane engine's count-space kernels on long cycles
vs the centralised loops oracle.

Structures above the dense einsum limit (``MAX_COMPILED_ARITY`` = 25
slots) cannot be represented as ``(2,)**arity`` tables at all.  The
count-space kernel
(:class:`~repro.factorgraph.compiled.StackedCountFactorBatch`) evaluates
the same sum–product sweep from the ``arity + 1`` count-value vector in
O(arity²) time and O(arity) table memory per structure, so a network of
30- and 40-mapping rings runs on the lane engine's one-lane, attribute
and per-origin lanes alike.

Each pair times exactly ``ITERATIONS`` one-lane embedded rounds against
exactly ``ITERATIONS`` iterations of the centralised loops sum-product on
the same evidence, with both engines built outside the timed region and
the side that runs first flipped every pair; the speedup is the median
of the per-pair ratios.  It doubles as a regression tripwire: the lane
rounds must stay ≥5x ahead of the loops at cycle length 30, the attribute
lanes must match a converged loops run to ``1e-9``, and every origin's
local view the loops sum-product on that origin's own evidence, with
every long bucket on the count kernel (no dense table).  A second test
pins the per-origin compaction: per-round work must *decrease* as origins
converge instead of every row riding the sweeps until the last origin
finishes.
"""

import pytest

from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import run_long_cycle_throughput, throughput_network

CYCLE_LENGTHS = (30, 40)
RINGS = 10
ITERATIONS = 25

#: Alternating loops/lane timing pairs behind the speedup.
PAIRS = 7

#: Acceptance floor for one-lane count-kernel rounds over loops iterations
#: at cycle length 30, asserted on the median of ``PAIRS`` pairs.  A 2-core
#: host read a median of 34.9x (slowest pair 30.9x) with 10 rings and 25
#: rounds, and 27.9x (slowest 26.0x) at length 40; the floor leaves noise
#: headroom.
MIN_SPEEDUP_AT_30 = 5.0

#: The lane engine evaluates the same count-space expression as the
#: loops' scalar ``CountFactor.message_to``, so posteriors may only differ
#: by accumulated floating-point noise (in practice they match bit for
#: bit).
MAX_DIVERGENCE = 1e-9


@pytest.mark.parametrize("cycle_length", CYCLE_LENGTHS)
def test_bench_long_cycle(benchmark, report_points, cycle_length):
    (point,) = benchmark.pedantic(
        run_long_cycle_throughput,
        kwargs=dict(
            cycle_lengths=(cycle_length,),
            rings=RINGS,
            iterations=ITERATIONS,
            repeats=PAIRS,
        ),
        rounds=1,
        iterations=1,
    )
    report_points(
        f"long_cycle_{cycle_length}",
        (point,),
        f"Long cycles — one-lane count-kernel rounds vs loops oracle "
        f"iterations, {RINGS} rings of {cycle_length} mappings, median of "
        f"{PAIRS} alternating pairs",
    )

    # Every timed run ran exactly the rounds its rate is computed from.
    assert point.rounds == ITERATIONS
    assert len(point.ratios) == PAIRS
    # Long buckets must run on the count kernels — no dense (2,)**arity
    # table — and every lane must agree with the loops sum-product.
    assert point.structure_count == RINGS
    assert point.count_kernel_buckets >= 1
    assert point.dense_kernel_buckets == 0
    assert point.batched_max_difference <= MAX_DIVERGENCE
    assert point.local_max_difference <= MAX_DIVERGENCE
    if cycle_length == 30:
        assert point.speedup >= MIN_SPEEDUP_AT_30, (
            f"one-lane count-kernel rounds are only {point.speedup:.1f}x "
            f"faster than loops iterations at cycle length 30 (median of "
            f"{PAIRS} pairs {point.ratios}; floor {MIN_SPEEDUP_AT_30}x)"
        )


def test_bench_long_cycle_compaction(report):
    """Per-origin compaction: per-round work decreases as origins freeze.

    On a heterogeneous network origins converge at different rounds; the
    shared slice must shed each frozen origin's rows, so the per-round
    edge-row trajectory is non-increasing and strictly smaller by the end.
    """
    network = throughput_network(32)
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
