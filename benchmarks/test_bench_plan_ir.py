"""Plan IR — the shared compiled core's kernel lever.

The :mod:`repro.factorgraph.plan` IR gives every engine the same lowered
sweep: edge row space, segment plans, transmission list and arity-bucketed
kernel batches, run through the plan's own round phases.  This benchmark
pins the performance lever that landed with it: the *fused all-targets
kernel* (``messages_all``), evaluating a count bucket's messages toward
every target slot from one pre-gathered operand array, instead of
re-stacking ``arity - 1`` operand matrices per target — the O(arity²)
constant of the historical sweep loop.  It must stay ≥3x ahead of the
per-target loop at small bucket sizes and match it bit for bit.
"""

import time

import numpy as np

from repro.factorgraph.plan import CountFactorBatch
from repro.factorgraph.factors import CountFactor
from repro.factorgraph.variables import BinaryVariable

#: The fused-kernel measurement point: one count bucket far past the
#: crossover with few structures — where the per-target Python loop's
#: operand re-stacking dominates (measured ~7x; the floor leaves noise
#: headroom).
KERNEL_ARITY = 40
KERNEL_BUCKET_SIZE = 16
MIN_KERNEL_SPEEDUP = 3.0

REPEATS = 30


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_plan_ir_fused_kernel(benchmark, report, report_json):
    arity, size = KERNEL_ARITY, KERNEL_BUCKET_SIZE
    values = np.array([1.0, 0.0] + [0.1] * (arity - 1))
    factors = [
        CountFactor(
            f"f{i}",
            [BinaryVariable(f"v{i}_{slot}") for slot in range(arity)],
            values,
        )
        for i in range(size)
    ]
    kernel = CountFactorBatch(factors)
    rng = np.random.default_rng(0)
    incoming = rng.uniform(0.1, 1.0, size=(arity, size, 2))
    # The (arity, arity - 1, size, 2) layout the plan's gather_all produces:
    # for each target, the non-target operands in ascending slot order.
    gathered = np.stack(
        [incoming[[s for s in range(arity) if s != t]] for t in range(arity)]
    )

    def per_target():
        return np.stack(
            [
                kernel.messages_toward(
                    t, [incoming[s] if s != t else None for s in range(arity)]
                )
                for t in range(arity)
            ]
        )

    def fused():
        return kernel.messages_all(gathered)

    # The fused path is a reshuffle of the same float operations: bitwise
    # identity, not approximation, for every target slot.
    assert np.array_equal(per_target(), fused())

    per_target_seconds = _best_of(per_target)
    fused_seconds = _best_of(fused)
    benchmark(fused)
    speedup = per_target_seconds / fused_seconds

    lines = (
        f"count bucket: arity {arity}, {size} structures\n"
        f"per-target sweep loop: {per_target_seconds * 1e3:.3f} ms\n"
        f"fused messages_all:    {fused_seconds * 1e3:.3f} ms\n"
        f"speedup: {speedup:.1f}x (floor {MIN_KERNEL_SPEEDUP}x), "
        "bitwise identical"
    )
    report("EX_plan_ir_fused_kernel", lines)
    report_json(
        "plan_ir_fused_kernel",
        {
            "arity": arity,
            "bucket_size": size,
            "per_target_seconds": per_target_seconds,
            "fused_seconds": fused_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"fused messages_all is only {speedup:.1f}x faster than the "
        f"per-target sweep loop (floor {MIN_KERNEL_SPEEDUP}x)"
    )
