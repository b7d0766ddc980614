"""Extra ablation — round throughput of the embedded lane engine.

Times full decentralised rounds of one-lane
:class:`~repro.core.embedded.EmbeddedMessagePassing` runs on growing
scale-free cycle evidence, lossless and lossy, and doubles as a regression
tripwire: the median of ``RUNS`` timed runs must stay at or above
``MIN_ROUNDS_PER_SECOND`` rounds per second at every size.  A second test
pins the probe-once structure cache of
:class:`~repro.core.quality.MappingQualityAssessor`: assessing every
attribute of a 32-peer network must enumerate the cycle structures exactly
once, where one fresh assessor per attribute probes once per attribute.
"""

import pytest

from repro.core.embedded import EmbeddedMessagePassing
from repro.evaluation.experiments import (
    run_assessor_amortization,
    run_embedded_throughput,
    throughput_feedbacks,
)

SIZES = (16, 32, 64)

#: Absolute floor on the median rounds per second, lossless and lossy.  A
#: 2-core host ran 64 peers at a median of about 3k rounds/s lossless and
#: 2.4k lossy (the per-message dict loop this engine replaced ran about 100).
MIN_ROUNDS_PER_SECOND = 500.0

#: Timed runs behind each median.
RUNS = 5

LOSSY_SEND_PROBABILITY = 0.7


@pytest.mark.parametrize("peer_count", SIZES)
def test_bench_embedded_round_throughput(benchmark, report_points, peer_count):
    feedbacks = throughput_feedbacks(peer_count, ttl=3)
    engine = EmbeddedMessagePassing(feedbacks, priors=0.5, delta=0.1)
    benchmark(engine.run_round)

    points = run_embedded_throughput(
        peer_counts=(peer_count,), rounds=25, repeats=RUNS
    ) + run_embedded_throughput(
        peer_counts=(peer_count,),
        rounds=25,
        repeats=RUNS,
        send_probability=LOSSY_SEND_PROBABILITY,
    )
    report_points(
        f"embedded_throughput_{peer_count}_peers",
        points,
        f"Embedded throughput — one-lane rounds, median of {RUNS} runs, "
        f"on the {peer_count}-peer scale-free cycle evidence",
    )

    for point in points:
        assert point.timing.pairs >= RUNS
        assert point.rounds_per_second >= MIN_ROUNDS_PER_SECOND, (
            f"the lane engine runs {point.rounds_per_second:,.0f} rounds/s at "
            f"{peer_count} peers (floor {MIN_ROUNDS_PER_SECOND:,.0f})"
        )


def test_bench_assessor_amortization(report_points):
    points = run_assessor_amortization(peer_count=32, attribute_count=10, ttl=3)
    report_points(
        "assessor_amortization_32_peers",
        points,
        "Assessor amortization — structure cache + batched engine, 32 peers "
        "(speedup vs probe-per-attribute)",
    )

    uncached, cached, batched = points
    assert uncached.attribute_count >= 5
    assert cached.probes == 1
    assert batched.probes == 1
    assert batched.plan_compiles == 1
    assert uncached.probes == uncached.attribute_count * cached.probes
    assert cached.max_posterior_difference == 0.0
    assert batched.max_posterior_difference <= 1e-9
