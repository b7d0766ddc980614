"""Extra ablation — round throughput of the embedded lane engine.

Times full decentralised rounds of one-lane
:class:`~repro.core.embedded.EmbeddedMessagePassing` runs on growing
scale-free cycle evidence, lossless and lossy, and doubles as a regression
tripwire: the median of ``RUNS`` timed runs must stay at or above
``MIN_ROUNDS_PER_SECOND`` rounds per second at every size.  A second test
pins the probe-once structure cache of
:class:`~repro.core.quality.MappingQualityAssessor`: assessing every
attribute of a 32-peer network must enumerate the cycle structures exactly
once.
"""

import pytest

from repro.core.embedded import EmbeddedMessagePassing, EmbeddedOptions
from repro.evaluation.experiments import (
    run_assessor_amortization,
    run_embedded_throughput,
    throughput_feedbacks,
)
from repro.evaluation.reporting import format_table

SIZES = (16, 32, 64)

#: Absolute floor on the median rounds per second, lossless and lossy.  A
#: 2-core host ran 64 peers at a median of about 3k rounds/s lossless and
#: 2.4k lossy (the per-message dict loop this engine replaced ran about 100).
MIN_ROUNDS_PER_SECOND = 500.0

#: Timed runs behind each median.
RUNS = 5

LOSSY_SEND_PROBABILITY = 0.7


def _row(point, label):
    return (
        point.peer_count,
        label,
        point.feedback_count,
        point.remote_messages_per_round,
        f"{point.rounds_per_second:,.0f}",
        f"{point.messages_per_second:,.0f}",
        f"{min(point.rounds / s for s in point.run_seconds):,.0f}",
    )


@pytest.mark.parametrize("peer_count", SIZES)
def test_bench_embedded_round_throughput(benchmark, report, report_json, peer_count):
    feedbacks = throughput_feedbacks(peer_count, ttl=3)
    engine = EmbeddedMessagePassing(
        feedbacks,
        priors=0.5,
        delta=0.1,
        options=EmbeddedOptions(record_history=False),
    )
    benchmark(engine.run_round)

    lossless = run_embedded_throughput(
        peer_counts=(peer_count,), rounds=25, repeats=RUNS
    ).point_for(peer_count)
    lossy = run_embedded_throughput(
        peer_counts=(peer_count,),
        rounds=25,
        repeats=RUNS,
        send_probability=LOSSY_SEND_PROBABILITY,
    ).point_for(peer_count)

    lines = format_table(
        (
            "peers",
            "transport",
            "feedbacks",
            "remote msgs/round",
            "rounds/s (median)",
            "messages/s (median)",
            "rounds/s (slowest run)",
        ),
        [
            _row(lossless, "lossless"),
            _row(lossy, f"P(send)={LOSSY_SEND_PROBABILITY}"),
        ],
        title=(
            f"Embedded throughput — one-lane rounds, median of {RUNS} runs, "
            f"on the {peer_count}-peer scale-free cycle evidence"
        ),
    )
    report(f"EX_embedded_throughput_{peer_count}_peers", lines)
    report_json(
        f"embedded_throughput_{peer_count}_peers",
        {
            "peer_count": peer_count,
            "feedback_count": lossless.feedback_count,
            "remote_messages_per_round": lossless.remote_messages_per_round,
            "rounds_per_second": lossless.rounds_per_second,
            "messages_per_second": lossless.messages_per_second,
            "run_seconds": list(lossless.run_seconds),
            "lossy_rounds_per_second": lossy.rounds_per_second,
            "lossy_run_seconds": list(lossy.run_seconds),
        },
    )

    for point in (lossless, lossy):
        assert len(point.run_seconds) >= RUNS
        assert point.rounds_per_second >= MIN_ROUNDS_PER_SECOND, (
            f"the lane engine runs {point.rounds_per_second:,.0f} rounds/s at "
            f"{peer_count} peers (floor {MIN_ROUNDS_PER_SECOND:,.0f})"
        )


def test_bench_assessor_amortization(report, report_json):
    result = run_assessor_amortization(peer_count=32, attribute_count=10, ttl=3)

    lines = format_table(
        (
            "mode",
            "peers",
            "attributes",
            "probes",
            "plan compiles",
            "seconds",
            "max |Δposterior|",
        ),
        [
            (
                "probe per attribute",
                result.peer_count,
                result.attribute_count,
                result.uncached_probe_count,
                "-",
                f"{result.uncached_seconds:.3f}",
                "-",
            ),
            (
                "cached + sequential",
                result.peer_count,
                result.attribute_count,
                result.cached_probe_count,
                "-",
                f"{result.cached_seconds:.3f}",
                f"{result.max_posterior_difference:.1e}",
            ),
            (
                "cached + batched",
                result.peer_count,
                result.attribute_count,
                result.batched_probe_count,
                result.batched_plan_compiles,
                f"{result.batched_seconds:.3f}",
                f"{result.batched_max_posterior_difference:.1e}",
            ),
        ],
        title=(
            "Assessor amortization — structure cache + batched engine, "
            "32 peers"
        ),
    )
    report("EX_assessor_amortization_32_peers", lines)
    report_json(
        "assessor_amortization_32_peers",
        {
            "peer_count": result.peer_count,
            "attribute_count": result.attribute_count,
            "uncached_seconds": result.uncached_seconds,
            "cached_seconds": result.cached_seconds,
            "batched_seconds": result.batched_seconds,
            "cache_speedup": result.speedup,
            "batched_speedup": result.batched_speedup,
            "max_posterior_difference": result.max_posterior_difference,
            "batched_max_posterior_difference": (
                result.batched_max_posterior_difference
            ),
        },
    )

    assert result.attribute_count >= 5
    assert result.cached_probe_count == 1
    assert result.batched_probe_count == 1
    assert result.batched_plan_compiles == 1
    assert result.probe_amortization == result.attribute_count
    assert result.max_posterior_difference == 0.0
    assert result.batched_max_posterior_difference <= 1e-9
