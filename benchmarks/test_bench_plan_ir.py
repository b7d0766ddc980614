"""Plan IR — the fused count kernel the lane engine runs.

The :mod:`repro.factorgraph.plan` IR gives the lane engine its lowered
sweep: edge row space, segment plans, transmission list and
arity-bucketed kernel batches, run through the plan's own round phases.
This benchmark pins the performance lever of its count-space buckets: the
*fused all-targets kernel*
(:meth:`~repro.factorgraph.compiled.StackedCountFactorBatch.messages_all`),
evaluating a count bucket's messages toward every target slot from one
pre-gathered operand array, instead of re-stacking ``arity - 1`` operand
matrices per target — the O(arity²) constant of a per-target sweep loop.
It runs on a one-slice stack, the layout of a one-lane embedded run, and
must stay ≥3x ahead of the per-target loop at small bucket sizes while
matching it bit for bit.
"""

import time

import numpy as np

from repro.factorgraph.plan import StackedCountFactorBatch

#: The fused-kernel measurement point: one count bucket far past the
#: crossover with few structures — where the per-target Python loop's
#: operand re-stacking dominates.  A 2-core host read a median of 8.6x
#: over 9 alternating pairs (IQR 8.4–8.8x; per-target loop 5.9 ms, fused
#: kernel 0.70 ms); the floor leaves noise headroom.
KERNEL_ARITY = 40
KERNEL_BUCKET_SIZE = 16
MIN_KERNEL_SPEEDUP = 3.0

#: Alternating per-target/fused timing pairs behind the speedup, and the
#: kernel calls timed per side of each pair.
PAIRS = 9
CALLS_PER_SAMPLE = 10


def _timed(fn):
    start = time.perf_counter()
    for _ in range(CALLS_PER_SAMPLE):
        fn()
    return (time.perf_counter() - start) / CALLS_PER_SAMPLE


def test_bench_plan_ir_fused_kernel(benchmark, report, report_json):
    arity, size = KERNEL_ARITY, KERNEL_BUCKET_SIZE
    values = np.array([1.0, 0.0] + [0.1] * (arity - 1))
    kernel = StackedCountFactorBatch(np.tile(values, (1, size, 1)))
    rng = np.random.default_rng(0)
    incoming = rng.uniform(0.1, 1.0, size=(arity, 1, size, 2))
    # The (stack, arity, arity - 1, size, 2) layout the plan's gather_all
    # produces: for each target, the non-target operands in ascending slot
    # order.
    gathered = np.stack(
        [incoming[[s for s in range(arity) if s != t], 0] for t in range(arity)]
    )[None]

    def per_target():
        return np.stack(
            [
                kernel.messages_toward(
                    t, [incoming[s] if s != t else None for s in range(arity)]
                )
                for t in range(arity)
            ],
            axis=1,
        )

    def fused():
        return kernel.messages_all(gathered)

    # The fused path is a reshuffle of the same float operations: bitwise
    # identity, not approximation, for every target slot.
    assert np.array_equal(per_target(), fused())

    per_target_seconds = []
    fused_seconds = []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            per_target_seconds.append(_timed(per_target))
            fused_seconds.append(_timed(fused))
        else:
            fused_seconds.append(_timed(fused))
            per_target_seconds.append(_timed(per_target))
    ratios = [a / b for a, b in zip(per_target_seconds, fused_seconds)]
    speedup = float(np.median(ratios))
    q1, q3 = np.percentile(ratios, [25, 75])
    benchmark(fused)

    lines = (
        f"count bucket: arity {arity}, {size} structures, one slice\n"
        f"per-target sweep loop: {np.median(per_target_seconds) * 1e3:.3f} ms "
        f"(median of {PAIRS})\n"
        f"fused messages_all:    {np.median(fused_seconds) * 1e3:.3f} ms "
        f"(median of {PAIRS})\n"
        f"speedup: {speedup:.1f}x median of {PAIRS} alternating pairs "
        f"(IQR {q1:.1f}–{q3:.1f}x, min {min(ratios):.1f}x; floor "
        f"{MIN_KERNEL_SPEEDUP}x), bitwise identical"
    )
    report("EX_plan_ir_fused_kernel", lines)
    report_json(
        "plan_ir_fused_kernel",
        {
            "arity": arity,
            "bucket_size": size,
            "stack": 1,
            "pairs": PAIRS,
            "per_target_seconds": per_target_seconds,
            "fused_seconds": fused_seconds,
            "pair_speedups": ratios,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"fused messages_all is only {speedup:.1f}x faster than the "
        f"per-target sweep loop (median of {PAIRS} pairs {ratios}; floor "
        f"{MIN_KERNEL_SPEEDUP}x)"
    )
