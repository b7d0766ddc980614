"""Probe throughput — full-probe structure discovery.

This benchmark times full-probe
:class:`~repro.pdms.discovery.ProbePlan` runs — every peer's
cycles-through and paths-from work units at ttl 3 — on scale-free networks
of 256 and 1024 peers, run by :func:`~repro.pdms.discovery.run_plan`, and
doubles as a regression tripwire: the median run must sustain a minimum
structure-enumeration rate (catches accidental quadratic regressions in
the walkers).
"""

import pytest

from repro.evaluation.experiments import run_probe_throughput
from repro.generators.topologies import scale_free_network
from repro.pdms.discovery import TopologySnapshot, plan_full_probe, run_plan

SIZES = (256, 1024)

TTL = 3

#: Serial enumeration floor, structures per second, both sizes, on the
#: median of ``RUNS`` runs.  A 2-core container read medians of 36k-40k/s
#: at 256 peers (0.57-0.63 s per run) and 28.5k/s at 1024, the paths-from
#: units taking most of the time; the floor leaves about 7x headroom for
#: slow CI runners.
MIN_SERIAL_STRUCTURES_PER_SECOND = 4_000

#: Timed runs behind the median.  One run at 1024 peers keeps the benchmark
#: wall time sane; the enumeration is long enough to be noise-free.
RUNS = {256: 3, 1024: 1}

#: pytest-benchmark rounds, each on a fresh snapshot.
ROUNDS = {256: 3, 1024: 1}


@pytest.mark.parametrize("peer_count", SIZES)
def test_bench_probe_throughput(benchmark, report_points, peer_count):
    (point,) = run_probe_throughput(
        peer_counts=(peer_count,), ttl=TTL, repeats=RUNS[peer_count]
    )

    # Time the enumeration under pytest-benchmark as well, so the walkers'
    # raw cost is tracked alongside the median.  Every round plans on a
    # fresh snapshot: a snapshot remembers its walks, so rerunning one plan
    # would time lookups.
    network = scale_free_network(peer_count, seed=peer_count)

    def fresh_plan():
        snapshot = TopologySnapshot.of(network)
        return (plan_full_probe(snapshot, ttl=TTL, include_parallel_paths=True),), {}

    benchmark.pedantic(run_plan, setup=fresh_plan, rounds=ROUNDS[peer_count])

    report_points(
        f"probe_throughput_{peer_count}_peers",
        (point,),
        f"Probe throughput — full-probe structure discovery on the "
        f"{peer_count}-peer scale-free network (ttl={TTL}), median of "
        f"{RUNS[peer_count]} runs",
    )

    # Assert the run actually enumerated a non-trivial frontier.
    assert point.work_units == 2 * peer_count
    assert point.structure_count > peer_count
    assert point.structures_per_second >= MIN_SERIAL_STRUCTURES_PER_SECOND, (
        f"serial discovery enumerates only {point.structures_per_second:,.0f} "
        f"structures/s at {peer_count} peers in the median of "
        f"{RUNS[peer_count]} runs (floor {MIN_SERIAL_STRUCTURES_PER_SECOND:,})"
    )
