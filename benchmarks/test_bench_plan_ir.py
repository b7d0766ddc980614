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

from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from repro.core.local_graph import mapping_owner
from repro.evaluation.reporting import Column
from repro.evaluation.timing import Measurement, measure
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


@dataclass(frozen=True)
class SweepPoint:
    """The per-target loop (``timing`` side 0) against the fused path
    (side 1) on one bucket, each sample ``calls`` back-to-back calls."""

    bucket: str
    arity: int
    bucket_size: int
    calls: int
    timing: Measurement

    COLUMNS: ClassVar[Tuple[Column, ...]] = (
        Column("bucket", "bucket"),
        Column("arity", "arity"),
        Column("structures", "bucket_size"),
        Column("per-target µs", "per_target_seconds", "{:.1f}", 1e6),
        Column("fused µs", "fused_seconds", "{:.1f}", 1e6),
        Column("median speedup", "speedup", "{:.2f}x"),
        Column("min speedup", "min_speedup", "{:.2f}x"),
    )

    @property
    def per_target_seconds(self) -> float:
        return self.timing.median(0) / self.calls

    @property
    def fused_seconds(self) -> float:
        return self.timing.median(1) / self.calls

    @property
    def speedup(self) -> float:
        return self.timing.speedup(0, 1)

    @property
    def min_speedup(self) -> float:
        return min(self.timing.ratios(0, 1))


def _compare(per_target, fused, calls):
    """Time ``calls`` calls of each side in alternating pairs; the timed
    calls return their last output."""

    def samples(fn):
        def run():
            for _ in range(calls):
                out = fn()
            return out

        return lambda: run

    return measure([samples(per_target), samples(fused)], PAIRS)


def test_bench_plan_ir_fused_kernel(benchmark, report_points):
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

    timing = _compare(per_target, fused, CALLS_PER_SAMPLE)
    benchmark(fused)
    point = SweepPoint("count", arity, size, CALLS_PER_SAMPLE, timing)
    report_points(
        "plan_ir_fused_kernel",
        (point,),
        f"Fused count kernel vs the per-target sweep loop, one slice, median "
        f"of {PAIRS} alternating pairs (floor {MIN_KERNEL_SPEEDUP}x)",
    )

    # The fused path is a reshuffle of the same float operations: bitwise
    # identity, not approximation, for every target slot.
    assert np.array_equal(*timing.values)
    assert point.speedup >= MIN_KERNEL_SPEEDUP, (
        f"fused messages_all is only {point.speedup:.1f}x faster than the "
        f"per-target sweep loop (median of {PAIRS} pairs "
        f"{timing.ratios(0, 1)}; floor {MIN_KERNEL_SPEEDUP}x)"
    )


def test_bench_plan_ir_dense_sweep(benchmark, report_points):
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
        return loop_out

    def fused():
        bucket.sweep(kernel, pool, fused_out)
        return fused_out

    timing = _compare(per_target, fused, DENSE_CALLS_PER_SAMPLE)
    benchmark(fused)
    point = SweepPoint("dense", arity, size, DENSE_CALLS_PER_SAMPLE, timing)
    report_points(
        "plan_ir_dense_sweep",
        (point,),
        f"Fused dense bucket sweep vs the per-target sweep loop, one slice, "
        f"median of {PAIRS} alternating pairs (floor "
        f"{MIN_DENSE_SWEEP_SPEEDUP}x)",
    )

    # Same float operations in both: bitwise identity for every edge row.
    assert np.array_equal(*timing.values)
    assert point.speedup >= MIN_DENSE_SWEEP_SPEEDUP, (
        f"the fused dense bucket sweep is only {point.speedup:.2f}x faster "
        f"than the per-target sweep loop (median of {PAIRS} pairs "
        f"{timing.ratios(0, 1)}; floor {MIN_DENSE_SWEEP_SPEEDUP}x)"
    )
