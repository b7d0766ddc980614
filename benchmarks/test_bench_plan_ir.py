"""Plan IR — the fused bucket sweeps the lane engine runs.

The :mod:`repro.factorgraph.plan` IR gives the lane engine its lowered
sweep: edge row space, segment plans, transmission list and
arity-bucketed kernel batches, run through the plan's own round phases.
Every bucket sweeps in one path: one gather through its ``gather_all``
plan, one ``messages_all`` kernel call, one normalisation and one
scatter.  This benchmark pins that path against the per-target loop it
replaced, at two points, both on a one-slice stack (the layout of a
one-lane embedded run) and both bit for bit identical to the loop:

* the *fused count kernel*
  (:meth:`~repro.factorgraph.compiled.StackedCountFactorBatch.messages_all`)
  on one long count bucket, instead of re-stacking ``arity - 1`` operand
  matrices per target — the O(arity²) constant of a per-target loop;
  it must stay ≥3x ahead at small bucket sizes;
* the *dense bucket sweep* (:meth:`~repro.factorgraph.plan.BucketPlan.sweep`
  over a :class:`~repro.factorgraph.compiled.StackedFactorBatch`) on one
  arity-3 bucket of 20 structures — the shape of an EON one-origin local
  plan, where numpy call overhead, not arithmetic, sets the cost.
"""

import time

import numpy as np

from repro.core.local_graph import mapping_owner
from repro.factorgraph.plan import (
    KIND_NEGATIVE,
    KIND_POSITIVE,
    StackedCountFactorBatch,
    bucket_kernel,
    bucket_tables,
    compile_sweep_plan,
    cpt_levels,
    normalize_rows,
)

#: The fused-kernel measurement point: one count bucket far past the
#: crossover with few structures — where the per-target Python loop's
#: operand re-stacking dominates.  A 2-core host read a median of 8.6x
#: over 9 alternating pairs (IQR 8.4–8.8x; per-target loop 5.9 ms, fused
#: kernel 0.70 ms); the floor leaves noise headroom.
KERNEL_ARITY = 40
KERNEL_BUCKET_SIZE = 16
MIN_KERNEL_SPEEDUP = 3.0

#: The dense sweep point: one slice, one arity-3 bucket of 20 structures,
#: the EON one-origin local shape.  A 2-core host read a median of 1.63x
#: over 9 alternating pairs (IQR 1.60–1.65x; per-target loop 105 µs,
#: fused sweep 64 µs; three runs read medians of 1.61–1.69x); the floor
#: leaves noise headroom.
DENSE_ARITY = 3
DENSE_BUCKET_SIZE = 20
MIN_DENSE_SWEEP_SPEEDUP = 1.3

#: Alternating per-target/fused timing pairs behind each speedup, and the
#: calls timed per side of each pair (a dense sweep takes tens of µs, so
#: its samples run more calls).
PAIRS = 9
CALLS_PER_SAMPLE = 10
DENSE_CALLS_PER_SAMPLE = 200


def _timed(fn, calls=CALLS_PER_SAMPLE):
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _alternating_pairs(baseline, candidate, calls=CALLS_PER_SAMPLE):
    """Per-pair seconds of both sides, alternating which side runs first."""
    baseline_seconds, candidate_seconds = [], []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            baseline_seconds.append(_timed(baseline, calls))
            candidate_seconds.append(_timed(candidate, calls))
        else:
            candidate_seconds.append(_timed(candidate, calls))
            baseline_seconds.append(_timed(baseline, calls))
    return baseline_seconds, candidate_seconds


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

    per_target_seconds, fused_seconds = _alternating_pairs(per_target, fused)
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


def test_bench_plan_ir_dense_sweep(benchmark, report, report_json):
    arity, size = DENSE_ARITY, DENSE_BUCKET_SIZE
    # Three-peer cycles, one mapping per peer: every operand of a sweep is
    # a received remote copy, as in the decentralised runs.
    plan = compile_sweep_plan(
        [
            (f"s{i}", tuple(f"q{i}_{k}->q{i}_{(k + 1) % arity}" for k in range(arity)))
            for i in range(size)
        ],
        default_owner=mapping_owner,
    )
    (bucket,) = plan.batches
    assert not bucket.use_count_kernel
    rng = np.random.default_rng(0)
    kinds = rng.choice([KIND_POSITIVE, KIND_NEGATIVE], size=(1, size))
    kernel = bucket_kernel(bucket_tables(cpt_levels(kinds, 0.1), bucket), bucket)
    pool = rng.uniform(0.1, 1.0, size=(1, plan.edge_count + plan.recv_count, 2))
    fused_out = np.full((1, plan.edge_count, 2), 0.5)
    loop_out = fused_out.copy()

    def per_target():
        for target in range(arity):
            sources = [slot for slot in range(arity) if slot != target]
            incoming = [None] * arity
            for slot, ids in zip(sources, bucket.gather_all[target]):
                incoming[slot] = pool[..., ids, :]
            loop_out[..., bucket.scatter_all[target], :] = normalize_rows(
                kernel.messages_toward(target, incoming)
            )

    def fused():
        bucket.sweep(kernel, pool, fused_out)

    # Same float operations in both: bitwise identity for every edge row.
    per_target()
    fused()
    assert np.array_equal(loop_out, fused_out)

    per_target_seconds, fused_seconds = _alternating_pairs(
        per_target, fused, DENSE_CALLS_PER_SAMPLE
    )
    ratios = [a / b for a, b in zip(per_target_seconds, fused_seconds)]
    speedup = float(np.median(ratios))
    q1, q3 = np.percentile(ratios, [25, 75])
    benchmark(fused)

    lines = (
        f"dense bucket: arity {arity}, {size} structures, one slice\n"
        f"per-target sweep loop: {np.median(per_target_seconds) * 1e6:.1f} µs "
        f"(median of {PAIRS})\n"
        f"fused bucket sweep:    {np.median(fused_seconds) * 1e6:.1f} µs "
        f"(median of {PAIRS})\n"
        f"speedup: {speedup:.2f}x median of {PAIRS} alternating pairs "
        f"(IQR {q1:.2f}–{q3:.2f}x, min {min(ratios):.2f}x; floor "
        f"{MIN_DENSE_SWEEP_SPEEDUP}x), bitwise identical"
    )
    report("EX_plan_ir_dense_sweep", lines)
    report_json(
        "plan_ir_dense_sweep",
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
    assert speedup >= MIN_DENSE_SWEEP_SPEEDUP, (
        f"the fused dense bucket sweep is only {speedup:.2f}x faster than the "
        f"per-target sweep loop (median of {PAIRS} pairs {ratios}; floor "
        f"{MIN_DENSE_SWEEP_SPEEDUP}x)"
    )
