"""Probe throughput — full-probe structure discovery.

This benchmark times one full-probe
:class:`~repro.pdms.discovery.ProbePlan` — every peer's cycles-through and
paths-from work units at ttl 3 — on scale-free networks of 256 and 1024
peers, run by :func:`~repro.pdms.discovery.run_plan`, and doubles as a
regression tripwire: serial discovery must sustain a minimum
structure-enumeration rate (catches accidental quadratic regressions in
the walkers).
"""

import os

import pytest

from repro.evaluation.experiments import run_probe_throughput
from repro.evaluation.reporting import format_table

SIZES = (256, 1024)

TTL = 3

#: Serial enumeration floor, structures per second, both sizes (measured
#: ~47k/s at 256 peers and ~32k/s at 1024 on the baseline machine; the
#: floor leaves an order of magnitude of headroom for slow CI runners).
MIN_SERIAL_STRUCTURES_PER_SECOND = 4_000

#: Timing repeats (best-of).  One repeat at 1024 peers keeps the benchmark
#: wall time sane; the enumeration is long enough to be noise-free.
REPEATS = {256: 2, 1024: 1}


@pytest.mark.parametrize("peer_count", SIZES)
def test_bench_probe_throughput(benchmark, report, report_json, peer_count):
    result = run_probe_throughput(
        peer_counts=(peer_count,),
        ttl=TTL,
        repeats=REPEATS[peer_count],
    )
    point = result.point_for(peer_count)

    # Time the enumeration under pytest-benchmark as well, so the walkers'
    # raw cost is tracked alongside the best-of timing.
    from repro.pdms.discovery import plan_full_probe, run_plan
    from repro.generators.topologies import scale_free_network

    network = scale_free_network(peer_count, seed=peer_count)
    plan = plan_full_probe(network, ttl=TTL, include_parallel_paths=True)
    benchmark(run_plan, plan)

    lines = format_table(
        (
            "peers",
            "mappings",
            "work units",
            "structures",
            "serial ms",
            "structures/s",
        ),
        [
            (
                point.peer_count,
                point.mapping_count,
                point.work_units,
                point.structure_count,
                f"{point.serial_seconds * 1e3:.1f}",
                f"{point.serial_structures_per_second:,.0f}",
            )
        ],
        title=(
            f"Probe throughput — full-probe structure discovery on the "
            f"{peer_count}-peer scale-free network (ttl={TTL})"
        ),
    )
    report(f"EX_probe_throughput_{peer_count}_peers", lines)
    report_json(
        f"probe_throughput_{peer_count}_peers",
        {
            "peer_count": point.peer_count,
            "ttl": point.ttl,
            "mapping_count": point.mapping_count,
            "work_units": point.work_units,
            "cycle_count": point.cycle_count,
            "parallel_path_count": point.parallel_path_count,
            "structure_count": point.structure_count,
            "serial_seconds": point.serial_seconds,
            "serial_structures_per_second": point.serial_structures_per_second,
            "cpu_count": os.cpu_count(),
        },
    )

    # Assert the run actually enumerated a non-trivial frontier.
    assert point.work_units == 2 * peer_count
    assert point.structure_count > peer_count
    assert (
        point.serial_structures_per_second >= MIN_SERIAL_STRUCTURES_PER_SECOND
    ), (
        f"serial discovery enumerates only "
        f"{point.serial_structures_per_second:,.0f} structures/s at "
        f"{peer_count} peers (floor {MIN_SERIAL_STRUCTURES_PER_SECOND:,})"
    )
