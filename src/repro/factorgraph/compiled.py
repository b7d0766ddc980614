"""Compiled, vectorized sum–product kernels of the embedded lane engine.

The lane engine (:mod:`repro.core.batched`) runs every sweep of a
:class:`~repro.factorgraph.plan.SweepPlan` as a small, fixed number of
batched array operations over stacked ``(slices, rows, 2)`` message state.
This module holds the kernels those sweeps are made of; engines reach them
through the plan IR (:mod:`repro.factorgraph.plan`), never directly.

* **Stacked factor kernels** — one per arity bucket, both with the same
  two entry points: ``messages_all`` evaluates every target slot of a
  bucket from one pre-gathered ``(stack, arity, arity - 1, size, 2)``
  operand array (the sweep's one call per bucket), ``messages_toward``
  one target from per-slot operand matrices (the per-target reference the
  kernel tests compare ``messages_all`` against).
  :class:`StackedFactorBatch` evaluates a ``(stack, factors, *(2,)*arity)``
  array of dense tables with one ``einsum`` per target slot.
  :class:`StackedCountFactorBatch` evaluates count-symmetric factors (the
  paper's feedback CPTs over long cycles and parallel paths) from their
  ``arity + 1`` count-value vectors in count space, so it never builds a
  ``(2,)**arity`` table and has no arity limit; its ``messages_all`` runs
  every target slot of a bucket in one fused evaluation.
* **Segment products** — variable→factor messages are exclusive products of
  the factor→variable messages incident to each variable, computed with
  ``np.multiply.reduceat`` over variable-sorted segments (a zero-aware
  product-of-others, so factor tables with exact zeros — e.g. the paper's
  feedback CPTs with ``P(f+| one error) = 0`` — never trigger a 0/0).
* **Row normalisation** — :func:`normalize_rows` normalises every message
  vector of a batched stack at once.

The segment and normalisation kernels first test whether their input
needs the guarded formula at all (an exact zero in a segment, a zero or
non-finite row total); when it does not, they run the operations that
formula reduces to on such input, so both paths return the same floats.

Equivalence contract
--------------------
Every kernel evaluates exactly the sum–product expression the scalar
:meth:`repro.factorgraph.factors.Factor.message_to` (and
:meth:`repro.factorgraph.factors.CountFactor.message_to`) evaluates, per
stack element and factor; the kernel tests pin the agreement with those
scalar oracles to ``1e-12``, and ``messages_all`` to ``messages_toward``
bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..constants import COUNT_KERNEL_MIN_ARITY, MAX_COMPILED_ARITY
from ..exceptions import FactorGraphError, FactorShapeError

__all__ = [
    "MAX_COMPILED_ARITY",
    "COUNT_KERNEL_MIN_ARITY",
    "normalize_rows",
    "segment_products",
    "segment_exclusive_products",
    "StackedFactorBatch",
    "StackedCountFactorBatch",
]

#: One einsum subscript letter per factor slot; ``z`` is reserved for the
#: factor batch axis and ``A`` for the stack (slice) axis of
#: :class:`StackedFactorBatch`.  Plans never build dense buckets of higher
#: arity: from :data:`~repro.constants.COUNT_KERNEL_MIN_ARITY` on they use
#: the count-space kernels below, which need no subscript letters at all.
_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxy"
_STACK_LETTER = "A"
if MAX_COMPILED_ARITY != len(_EINSUM_LETTERS):  # pragma: no cover - config guard
    raise RuntimeError(
        f"repro.constants.MAX_COMPILED_ARITY ({MAX_COMPILED_ARITY}) is out of "
        f"sync with the einsum alphabet ({len(_EINSUM_LETTERS)} letters)"
    )


def _einsum_specs(arity: int) -> Tuple[str, ...]:
    """Per-target einsum subscripts of a stacked dense bucket: the table,
    then the non-target slots in ascending order, toward the target."""
    letters = _EINSUM_LETTERS[:arity]
    prefix = _STACK_LETTER + "z"
    specs = []
    for target in range(arity):
        operands = "".join(
            "," + prefix + letters[slot] for slot in range(arity) if slot != target
        )
        specs.append(prefix + letters + operands + "->" + prefix + letters[target])
    return tuple(specs)


#: :func:`_einsum_specs` of every compilable arity, built once.
_SPECS_BY_ARITY = tuple(
    _einsum_specs(arity) for arity in range(MAX_COMPILED_ARITY + 1)
)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Normalise the last axis of a non-negative array to sum to one.

    Works on ``(rows, cardinality)`` matrices and on arbitrarily batched
    stacks of them (e.g. the ``(attributes, rows, cardinality)`` state of the
    batched embedded engine) — every vector along the last axis is scaled
    independently.  Vectors that are identically zero (or non-finite, which
    can only arise from degenerate factor tables) become uniform — the same
    policy as :func:`repro.factorgraph.messages.normalize`, applied
    batch-wise.
    """
    matrix = np.asarray(matrix, dtype=float)
    totals = matrix.sum(axis=-1, keepdims=True)
    # Every total positive and finite (NaN fails both comparisons): the
    # guarded division below would divide by these very totals.
    if totals.size and 0.0 < totals.min() and totals.max() < np.inf:
        return matrix / totals
    bad = (totals <= 0.0) | ~np.isfinite(totals)
    safe_totals = np.where(bad, 1.0, totals)
    normalized = matrix / safe_totals
    if np.any(bad):
        normalized = np.where(bad, 1.0 / matrix.shape[-1], normalized)
    return normalized


def segment_products(grouped: np.ndarray, segment_starts: np.ndarray) -> np.ndarray:
    """Per-segment row products of an already segment-grouped matrix.

    ``grouped`` is an ``(rows, cardinality)`` matrix — or a batched
    ``(..., rows, cardinality)`` stack of them sharing one segment layout —
    whose rows are sorted so that each segment occupies a contiguous block
    starting at the offsets in ``segment_starts``.  Returns one product row
    per segment (per batch element).
    """
    grouped = np.asarray(grouped, dtype=float)
    if len(segment_starts) == 0:
        return np.empty(grouped.shape[:-2] + (0,) + grouped.shape[-1:], dtype=float)
    return np.multiply.reduceat(grouped, segment_starts, axis=-2)


def segment_exclusive_products(
    grouped: np.ndarray,
    segment_starts: np.ndarray,
    segment_of_row: np.ndarray,
) -> np.ndarray:
    """For every row, the product of the *other* rows of its segment.

    Zero-aware: a zero entry elsewhere in the segment forces the product to
    zero without ever dividing by zero (factor tables with exact zeros —
    e.g. the paper's feedback CPTs with ``P(f+ | one error) = 0`` — would
    otherwise trigger a 0/0).  ``grouped`` must already be segment-sorted
    along its second-to-last axis (leading axes are independent batch
    dimensions sharing one segment layout); ``segment_of_row`` maps each row
    to its segment index.
    """
    grouped = np.asarray(grouped, dtype=float)
    if grouped.all():
        # No exact zero anywhere: the zero-aware formula below reduces to
        # these very operations (nothing masked, nothing forced to zero).
        product = np.multiply.reduceat(grouped, segment_starts, axis=-2)
        return np.take(product, segment_of_row, axis=-2) / grouped
    # Exact-zero detection is the point of the zero-aware kernels:
    # only true zeros are masked out of the product.
    zeros = grouped == 0.0  # lint: disable=numeric-float-equality
    safe = np.where(zeros, 1.0, grouped)
    segment_product = np.multiply.reduceat(safe, segment_starts, axis=-2)
    segment_zeros = np.add.reduceat(
        zeros.astype(np.int64), segment_starts, axis=-2
    )
    product_here = np.take(segment_product, segment_of_row, axis=-2)
    zeros_here = np.take(segment_zeros, segment_of_row, axis=-2)
    exclusive = np.where(zeros, product_here, product_here / safe)
    return np.where((zeros_here - zeros) > 0, 0.0, exclusive)


class StackedFactorBatch:
    """Same-shape factor tables stacked along a leading batch axis.

    This kernel evaluates a ``(stack, factors, *shape)`` array — one table
    *per factor per stack element* — with one ``einsum`` per target slot
    (the subscripts are built once per arity).  It is the dense compiled
    core of the embedded lane engine (:mod:`repro.core.batched`): the stack
    axis carries the engine's slices, whose factor tables share a topology
    (which factors exist, which variables they span) but differ in content
    (feedback sign and Δ vary per lane).  A sweep calls
    :meth:`messages_all` once per bucket; :meth:`messages_toward` is the
    per-target form it is checked against.

    For every stack element and factor the computation is exactly the
    sum–product expression :meth:`~repro.factorgraph.factors.Factor.message_to`
    evaluates on that factor's table.
    """

    def __init__(self, tables: np.ndarray) -> None:
        tables = np.asarray(tables, dtype=float)
        if tables.ndim < 3:
            raise FactorGraphError(
                f"StackedFactorBatch needs a (stack, factors, *shape) table "
                f"array, got ndim={tables.ndim}"
            )
        self.tables = tables
        self.stack = tables.shape[0]
        self.size = tables.shape[1]
        self.shape: Tuple[int, ...] = tables.shape[2:]
        self.arity = len(self.shape)
        if self.arity > MAX_COMPILED_ARITY:
            raise FactorGraphError(
                f"factor arity {self.arity} exceeds the compiled limit "
                f"{MAX_COMPILED_ARITY}"
            )
        self._specs = _SPECS_BY_ARITY[self.arity]

    def messages_toward(
        self, target_slot: int, incoming: Sequence[Optional[np.ndarray]]
    ) -> np.ndarray:
        """Batched messages from every (stack element, factor) to a slot.

        ``incoming`` holds one ``(stack, size, cardinality_of_slot)`` matrix
        per slot (the entry at ``target_slot`` is ignored and may be
        ``None``).  Returns the unnormalised ``(stack, size,
        cardinality_of_target)`` message array.
        """
        if not 0 <= target_slot < self.arity:
            raise FactorGraphError(
                f"target slot {target_slot} out of range for arity {self.arity}"
            )
        operands = []
        for slot in range(self.arity):
            if slot == target_slot:
                continue
            matrix = incoming[slot]
            if matrix is None:
                raise FactorShapeError(
                    f"missing incoming message matrix for slot {slot}"
                )
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (self.stack, self.size, self.shape[slot]):
                raise FactorShapeError(
                    f"incoming matrix for slot {slot} has shape {matrix.shape}, "
                    f"expected {(self.stack, self.size, self.shape[slot])}"
                )
            operands.append(matrix)
        return np.einsum(self._specs[target_slot], self.tables, *operands)

    def messages_all(self, gathered: np.ndarray) -> np.ndarray:
        """Messages toward every slot of every stack element.

        ``gathered`` is the ``(stack, arity, arity - 1, size, 2)`` operand
        array of binary factors (per target slot, the non-target operands
        in ascending slot order); the result is the unnormalised ``(stack,
        arity, size, 2)`` message array.  Each target runs its
        :meth:`messages_toward` einsum on the slices of ``gathered``, so
        ``[:, target]`` is bitwise ``messages_toward(target, ...)`` without
        the per-target operand gathers.
        """
        gathered = np.asarray(gathered, dtype=float)
        if self.shape != (2,) * self.arity:
            raise FactorShapeError(
                f"messages_all needs binary factors, got table shape {self.shape}"
            )
        expected = (self.stack, self.arity, self.arity - 1, self.size, 2)
        if gathered.shape != expected:
            raise FactorShapeError(
                f"gathered operand array has shape {gathered.shape}, "
                f"expected {expected}"
            )
        messages = np.empty((self.stack, self.arity, self.size, 2))
        sources = range(self.arity - 1)
        for target, spec in enumerate(self._specs):
            operands = gathered[:, target]
            # A one-slice view is already contiguous; across several slices
            # a contiguous operand lets einsum take its contiguous loops.
            messages[:, target] = np.einsum(
                spec,
                self.tables,
                *[np.ascontiguousarray(operands[:, slot]) for slot in sources],
            )
        return messages


def _count_space_messages(
    count_tables: np.ndarray, operands: Sequence[np.ndarray]
) -> np.ndarray:
    """Count-space sum–product messages toward one slot, fully vectorized.

    ``count_tables`` holds the count-value vectors ``f(k)`` of a bucket of
    same-arity count-symmetric factors — shape ``(..., size, arity + 1)``
    with arbitrary leading batch axes — and ``operands`` the binary incoming
    message matrices of the non-target slots, each shaped like
    ``count_tables[..., :2]``.  The message toward the target is

    ``µ(v) = Σ_k f(k + v) · C_k``,

    where ``C_k`` is the coefficient of ``x**k`` in
    ``∏_s (m_s[0] + m_s[1]·x)`` over the non-target slots.  Because the
    feedback CPTs have a constant tail (``f(k) = f(2)`` for ``k ≥ 2``,
    enforced by :class:`~repro.factorgraph.factors.CountFactor` and the
    kernel constructors), only ``C_0``, ``C_1`` and the aggregated tail mass
    are needed; they come out of prefix/suffix products over the slot axis
    in O(arity) operations — no ``(2,)**arity`` table, no divisions (exact
    zeros in the messages are safe by construction).
    """
    return _count_space_from_stacked(count_tables, np.stack(operands, axis=0))


def _count_space_from_stacked(
    count_tables: np.ndarray, stacked: np.ndarray
) -> np.ndarray:
    """:func:`_count_space_messages` over pre-stacked operands.

    ``stacked`` carries the non-target incoming messages along its leading
    axis (at least one: the kernels take two slots or more).  Every
    reduction below runs along that axis elementwise in the trailing axes,
    so evaluating *all* targets of a bucket at once — an extra target axis
    inside ``...`` — produces, per target, bitwise the same floats as the
    one-target-at-a-time calls.
    """
    low = stacked[..., 0]
    high = stacked[..., 1]
    coeff0 = np.multiply.reduce(low, axis=0)
    total = np.multiply.reduce(low + high, axis=0)
    # Exclusive products of `low` along the slot axis (prefix × suffix
    # cumulative products), feeding C_1 = Σ_u m_u[1]·∏_{s≠u} m_s[0].
    exclusive = np.ones_like(low)
    if low.shape[0] > 1:
        np.cumprod(low[:-1], axis=0, out=exclusive[1:])
        exclusive[:-1] *= np.cumprod(low[:0:-1], axis=0)[::-1]
    coeff1 = (high * exclusive).sum(axis=0)
    # Σ_{k≥1} and Σ_{k≥2} coefficient masses.  The subtractions only
    # cancel when the tail mass is negligible against C_0/C_1, where the
    # absolute error is ~1e-16 of the (normalised) message; the clamp
    # keeps float rounding from producing small negative masses.
    tail1 = np.maximum(total - coeff0, 0.0)
    tail2 = np.maximum(tail1 - coeff1, 0.0)
    f0 = count_tables[..., 0]
    f1 = count_tables[..., 1]
    tail = count_tables[..., 2]
    return np.stack(
        (f0 * coeff0 + f1 * coeff1 + tail * tail2, f1 * coeff0 + tail * tail1),
        axis=-1,
    )


def _require_constant_tail(tables: np.ndarray, where: str) -> None:
    """Reject count-value tables whose tail is not constant beyond k = 2.

    The truncated-coefficient evaluation of :func:`_count_space_messages` is
    exact only for the paper's CPT family (``f(k)`` identical for all
    ``k ≥ 2``); general count tables would need full prefix/suffix
    coefficient convolutions, which nothing in the model requires.
    """
    if tables.shape[-1] > 3 and np.ptp(tables[..., 2:], axis=-1).any():
        raise FactorGraphError(
            f"{where} requires count tables with a constant tail "
            "(f(k) identical for all k >= 2)"
        )


class StackedCountFactorBatch:
    """Count-value tables stacked along a leading batch axis.

    The count-space counterpart of :class:`StackedFactorBatch`: where that
    kernel evaluates a ``(stack, factors, *(2,)*arity)`` dense table array,
    this one evaluates ``(stack, factors, arity + 1)`` count-value vectors —
    one per factor per stack element — with the same ``messages_toward``
    contract.  It is what lets the embedded lane engine
    (:mod:`repro.core.batched`) run arity buckets beyond
    the dense crossover without ever materialising a ``(2,)**arity`` CPT.
    """

    def __init__(self, tables: np.ndarray) -> None:
        tables = np.asarray(tables, dtype=float)
        if tables.ndim != 3:
            raise FactorGraphError(
                f"StackedCountFactorBatch needs a (stack, factors, arity + 1) "
                f"count-table array, got ndim={tables.ndim}"
            )
        if tables.shape[-1] < 3:
            raise FactorGraphError(
                f"count tables need at least two slots (three count values), "
                f"got shape {tables.shape}"
            )
        if np.any(tables < 0):
            raise FactorGraphError("count tables must be non-negative")
        _require_constant_tail(tables, "StackedCountFactorBatch")
        self.tables = tables
        self.stack = tables.shape[0]
        self.size = tables.shape[1]
        self.arity = tables.shape[2] - 1
        self.shape: Tuple[int, ...] = (2,) * self.arity

    def messages_toward(
        self, target_slot: int, incoming: Sequence[Optional[np.ndarray]]
    ) -> np.ndarray:
        """Batched count-space messages from every (stack element, factor).

        Same contract as :meth:`StackedFactorBatch.messages_toward`: one
        ``(stack, size, 2)`` matrix per non-target slot in, the unnormalised
        ``(stack, size, 2)`` message array out.
        """
        if not 0 <= target_slot < self.arity:
            raise FactorGraphError(
                f"target slot {target_slot} out of range for arity {self.arity}"
            )
        operands = []
        for slot in range(self.arity):
            if slot == target_slot:
                continue
            matrix = incoming[slot]
            if matrix is None:
                raise FactorShapeError(
                    f"missing incoming message matrix for slot {slot}"
                )
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (self.stack, self.size, 2):
                raise FactorShapeError(
                    f"incoming matrix for slot {slot} has shape {matrix.shape}, "
                    f"expected {(self.stack, self.size, 2)}"
                )
            operands.append(matrix)
        return _count_space_messages(self.tables, operands)

    def messages_all(self, gathered: np.ndarray) -> np.ndarray:
        """Count-space messages toward every slot of every stack element.

        ``gathered`` is the ``(stack, arity, arity - 1, size, 2)`` operand
        array (per target slot, the non-target operands in ascending slot
        order); the result is the unnormalised ``(stack, arity, size, 2)``
        message array, slice ``[:, target]`` bitwise identical to
        ``messages_toward(target, ...)``, but the per-target operand
        re-stacking — an O(arity²) constant of a per-target sweep loop — is
        replaced by one strided gather.
        """
        gathered = np.asarray(gathered, dtype=float)
        expected = (self.stack, self.arity, self.arity - 1, self.size, 2)
        if gathered.shape != expected:
            raise FactorShapeError(
                f"gathered operand array has shape {gathered.shape}, "
                f"expected {expected}"
            )
        return _count_space_from_stacked(
            self.tables[:, None], np.moveaxis(gathered, -3, 0)
        )
