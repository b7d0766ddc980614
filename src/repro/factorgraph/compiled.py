"""Compiled, vectorized sum–product kernels.

The reference :class:`~repro.factorgraph.sum_product.SumProduct` engine walks
Python dicts edge by edge and performs a handful of tiny numpy operations per
directed message, so one synchronous round on a modest PDMS graph already
costs thousands of interpreter round-trips.  This module flattens a
:class:`~repro.factorgraph.graph.FactorGraph` once into index arrays and runs
every sweep as a small, fixed number of batched array operations:

* **Edge layout** — every (factor, variable) edge gets a dense id in the same
  factor-major order the loop engine uses, and both directed message families
  live in stacked ``(edges, cardinality)`` matrices.
* **Arity buckets** — factors are grouped by table shape
  (:class:`FactorBatch`); each bucket's factor→variable messages for one
  target slot are a single ``einsum`` over the stacked tables and the
  incoming message matrices of the other slots.  Count-symmetric factors
  (:class:`~repro.factorgraph.factors.CountFactor` — the paper's feedback
  CPTs over long cycles and parallel paths) are bucketed by arity instead
  and evaluated by the count-space kernels (:class:`CountFactorBatch`),
  which never build a ``(2,)**arity`` table and therefore compile at any
  arity.
* **Segment products** — variable→factor messages are exclusive products of
  the factor→variable messages incident to each variable, computed with
  ``np.multiply.reduceat`` over variable-sorted segments (a zero-aware
  product-of-others, so factor tables with exact zeros — e.g. the paper's
  feedback CPTs with ``P(f+| one error) = 0`` — never trigger a 0/0).
* **Message loss** — the Bernoulli keep/send decisions of a round are drawn
  as one vectorized mask array, in the same edge order (and from the same
  ``random.Random`` stream) as the loop engine, so lossy runs with a shared
  seed are reproducible across backends.
* **Damping and convergence** — damped updates and the per-round convergence
  delta are whole-matrix expressions (``np.abs(new - old).max()``).
* **Marginal snapshots** — per-iteration beliefs are segment products over
  the factor→variable matrix, i.e. plain matrix slices, which makes history
  recording cheap.

Equivalence contract
--------------------
For every graph it can compile, the vectorized engine performs exactly the
same Jacobi-style update schedule as the loop engine and therefore produces
the same messages, marginals and iteration counts up to floating-point
rounding (parity tests pin the agreement to well below ``1e-9``).  Graphs it
cannot compile (mixed variable cardinalities, *dense* factors of arity
beyond :data:`~repro.constants.MAX_COMPILED_ARITY` — count-symmetric
:class:`~repro.factorgraph.factors.CountFactor` tables compile at any
arity) are reported via :func:`compile_factor_graph` returning ``None``,
and :class:`~repro.factorgraph.sum_product.SumProduct` transparently falls
back to the loop reference.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import COUNT_KERNEL_MIN_ARITY, MAX_COMPILED_ARITY
from ..exceptions import FactorGraphError, FactorShapeError, VariableDomainError
from .factors import CountFactor, Factor
from .graph import FactorGraph

__all__ = [
    "MAX_COMPILED_ARITY",
    "COUNT_KERNEL_MIN_ARITY",
    "normalize_rows",
    "segment_products",
    "segment_exclusive_products",
    "FactorBatch",
    "StackedFactorBatch",
    "CountFactorBatch",
    "StackedCountFactorBatch",
    "CompiledFactorGraph",
    "compile_factor_graph",
]

#: One einsum subscript letter per factor slot; ``z`` is reserved for the
#: factor batch axis and ``A`` for the stacked (attribute) axis of
#: :class:`StackedFactorBatch`.  Dense factors of higher arity fall back to
#: the loop engine; count-symmetric factors switch to the count-space
#: kernels below, which need no subscript letters at all.
_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxy"
_STACK_LETTER = "A"
if MAX_COMPILED_ARITY != len(_EINSUM_LETTERS):  # pragma: no cover - config guard
    raise RuntimeError(
        f"repro.constants.MAX_COMPILED_ARITY ({MAX_COMPILED_ARITY}) is out of "
        f"sync with the einsum alphabet ({len(_EINSUM_LETTERS)} letters)"
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


class FactorBatch:
    """A stack of same-shape factors evaluated with one ``einsum`` per slot.

    This is the shared compiled kernel: both the global vectorized engine and
    the embedded per-peer engine (:mod:`repro.core.embedded`) route their
    factor→variable sweeps through it, which is what guarantees the two
    implementations compute identical messages.
    """

    def __init__(self, factors: Sequence[Factor]) -> None:
        factors = tuple(factors)
        if not factors:
            raise FactorGraphError("FactorBatch needs at least one factor")
        shapes = {factor.table.shape for factor in factors}
        if len(shapes) != 1:
            raise FactorGraphError(
                f"FactorBatch requires factors of identical shape, got {sorted(shapes)}"
            )
        self.shape: Tuple[int, ...] = factors[0].table.shape
        self.arity = len(self.shape)
        if self.arity > MAX_COMPILED_ARITY:
            raise FactorGraphError(
                f"factor arity {self.arity} exceeds the compiled limit "
                f"{MAX_COMPILED_ARITY}"
            )
        self.factors = factors
        self.size = len(factors)
        self.tables = np.stack([factor.table for factor in factors])
        letters = _EINSUM_LETTERS[: self.arity]
        self._specs: List[str] = []
        for target in range(self.arity):
            operands = ",".join(
                "z" + letters[slot] for slot in range(self.arity) if slot != target
            )
            spec = "z" + letters
            if operands:
                spec += "," + operands
            self._specs.append(spec + "->z" + letters[target])

    def messages_toward(
        self, target_slot: int, incoming: Sequence[Optional[np.ndarray]]
    ) -> np.ndarray:
        """Batched sum–product messages from every factor to ``target_slot``.

        ``incoming`` holds one ``(size, cardinality_of_slot)`` matrix per
        slot (the entry at ``target_slot`` is ignored and may be ``None``).
        The result is the unnormalised ``(size, cardinality_of_target)``
        message matrix.
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
            if matrix.shape != (self.size, self.shape[slot]):
                raise FactorShapeError(
                    f"incoming matrix for slot {slot} has shape {matrix.shape}, "
                    f"expected {(self.size, self.shape[slot])}"
                )
            operands.append(matrix)
        return np.einsum(self._specs[target_slot], self.tables, *operands)


class StackedFactorBatch:
    """Same-shape factor tables stacked along a leading batch axis.

    Where :class:`FactorBatch` evaluates one ``(factors, *shape)`` stack of
    tables, this kernel evaluates a ``(stack, factors, *shape)`` array — one
    table *per factor per stack element* — with a single ``einsum`` per
    target slot.  It is the compiled core of the batched multi-attribute
    embedded engine (:mod:`repro.core.batched`): the stack axis carries the
    attributes, whose factor tables share a topology (which factors exist,
    which variables they span) but differ in content (feedback sign and Δ
    vary per attribute).

    For every stack element the computation is exactly the per-factor
    sum–product expression :meth:`FactorBatch.messages_toward` evaluates, so
    slicing one stack element reproduces the single-attribute kernel.
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
        letters = _EINSUM_LETTERS[: self.arity]
        prefix = _STACK_LETTER + "z"
        self._specs: List[str] = []
        for target in range(self.arity):
            operands = ",".join(
                prefix + letters[slot] for slot in range(self.arity) if slot != target
            )
            spec = prefix + letters
            if operands:
                spec += "," + operands
            self._specs.append(spec + "->" + prefix + letters[target])

    def messages_toward(
        self,
        target_slot: int,
        incoming: Sequence[Optional[np.ndarray]],
        stack: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched messages from every (stack element, factor) to a slot.

        ``incoming`` holds one ``(stack, size, cardinality_of_slot)`` matrix
        per slot (the entry at ``target_slot`` is ignored and may be
        ``None``).  ``stack`` optionally restricts the evaluation to a
        subset of stack elements (an index array; the incoming matrices must
        then carry ``len(stack)`` leading rows) — a convenience for callers
        that keep one full-size kernel while evaluating changing subsets.
        (The embedded lane engine instead compacts converged lanes' slices
        and rows out of its kernels entirely; see
        ``repro.core.batched.BatchedEmbeddedMessagePassing._compact``.)
        Returns the unnormalised ``(stack, size, cardinality_of_target)``
        message array.
        """
        if not 0 <= target_slot < self.arity:
            raise FactorGraphError(
                f"target slot {target_slot} out of range for arity {self.arity}"
            )
        tables = self.tables if stack is None else self.tables[stack]
        expected_stack = tables.shape[0]
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
            if matrix.shape != (expected_stack, self.size, self.shape[slot]):
                raise FactorShapeError(
                    f"incoming matrix for slot {slot} has shape {matrix.shape}, "
                    f"expected {(expected_stack, self.size, self.shape[slot])}"
                )
            operands.append(matrix)
        return np.einsum(self._specs[target_slot], tables, *operands)


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
    stacked = np.stack(operands, axis=0) if operands else None
    return _count_space_from_stacked(count_tables, stacked)


def _count_space_from_stacked(
    count_tables: np.ndarray, stacked: Optional[np.ndarray]
) -> np.ndarray:
    """:func:`_count_space_messages` over pre-stacked operands.

    ``stacked`` carries the non-target incoming messages along its leading
    axis (``None`` for arity-1 factors, which have no operands).  Every
    reduction below runs along that axis elementwise in the trailing axes,
    so evaluating *all* targets of a bucket at once — an extra target axis
    inside ``...`` — produces, per target, bitwise the same floats as the
    historical one-target-at-a-time calls.
    """
    lead_shape = count_tables.shape[:-1]
    if stacked is not None:
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
    else:
        coeff0 = np.ones(lead_shape)
        coeff1 = np.zeros(lead_shape)
        tail1 = np.zeros(lead_shape)
        tail2 = np.zeros(lead_shape)
    f0 = count_tables[..., 0]
    f1 = count_tables[..., 1]
    tail = count_tables[..., 2] if count_tables.shape[-1] > 2 else 0.0
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


class CountFactorBatch:
    """Same-arity count-symmetric factors evaluated in count space.

    The drop-in counterpart of :class:`FactorBatch` for
    :class:`~repro.factorgraph.factors.CountFactor` tables: the same
    ``messages_toward`` contract, but each sweep runs the O(arity)
    truncated-coefficient evaluation of :func:`_count_space_messages`
    instead of an einsum over stacked ``(2,)**arity`` tables, so there is no
    compiled arity limit and per-structure memory stays O(arity).
    """

    def __init__(self, factors: Sequence[Factor]) -> None:
        factors = tuple(factors)
        if not factors:
            raise FactorGraphError("CountFactorBatch needs at least one factor")
        for factor in factors:
            if not isinstance(factor, CountFactor):
                raise FactorGraphError(
                    f"CountFactorBatch requires CountFactor instances, got "
                    f"{type(factor).__name__} for {factor.name!r}"
                )
        arities = {factor.arity for factor in factors}
        if len(arities) != 1:
            raise FactorGraphError(
                f"CountFactorBatch requires factors of identical arity, got "
                f"{sorted(arities)}"
            )
        self.arity = arities.pop()
        self.shape: Tuple[int, ...] = (2,) * self.arity
        self.factors = factors
        self.size = len(factors)
        #: ``(size, arity + 1)`` count-value vectors — the whole kernel state.
        self.tables = np.stack([factor.count_values for factor in factors])
        _require_constant_tail(self.tables, "CountFactorBatch")

    def messages_toward(
        self, target_slot: int, incoming: Sequence[Optional[np.ndarray]]
    ) -> np.ndarray:
        """Batched count-space messages from every factor to ``target_slot``.

        Same contract as :meth:`FactorBatch.messages_toward`: one
        ``(size, 2)`` matrix per non-target slot in, the unnormalised
        ``(size, 2)`` message matrix out.
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
            if matrix.shape != (self.size, 2):
                raise FactorShapeError(
                    f"incoming matrix for slot {slot} has shape {matrix.shape}, "
                    f"expected {(self.size, 2)}"
                )
            operands.append(matrix)
        return _count_space_messages(self.tables, operands)

    def messages_all(self, gathered: np.ndarray) -> np.ndarray:
        """Count-space messages toward *every* slot in one fused evaluation.

        ``gathered`` is the ``(arity, arity - 1, size, 2)`` array of
        incoming messages — for each target slot, the non-target operands
        in ascending slot order (the gather plans of
        :mod:`repro.factorgraph.plan` produce exactly this layout).  The
        result is the unnormalised ``(arity, size, 2)`` message array;
        slice ``[target]`` is bitwise identical to
        ``messages_toward(target, ...)``, but the per-target operand
        re-stacking — the O(arity²) constant of the historical sweep loop —
        is replaced by one strided gather.
        """
        gathered = np.asarray(gathered, dtype=float)
        expected = (self.arity, self.arity - 1, self.size, 2)
        if gathered.shape != expected:
            raise FactorShapeError(
                f"gathered operand array has shape {gathered.shape}, "
                f"expected {expected}"
            )
        if self.arity == 1:
            return _count_space_from_stacked(self.tables, None)[None]
        return _count_space_from_stacked(
            self.tables, np.moveaxis(gathered, -3, 0)
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
        if tables.shape[-1] < 2:
            raise FactorGraphError(
                f"count tables need at least two count values, got shape "
                f"{tables.shape}"
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
        self,
        target_slot: int,
        incoming: Sequence[Optional[np.ndarray]],
        stack: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched count-space messages from every (stack element, factor).

        Same contract as :meth:`StackedFactorBatch.messages_toward`: one
        ``(stack, size, 2)`` matrix per non-target slot in, the unnormalised
        ``(stack, size, 2)`` message array out; ``stack`` optionally
        restricts the evaluation to a subset of stack elements.
        """
        if not 0 <= target_slot < self.arity:
            raise FactorGraphError(
                f"target slot {target_slot} out of range for arity {self.arity}"
            )
        tables = self.tables if stack is None else self.tables[stack]
        expected_stack = tables.shape[0]
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
            if matrix.shape != (expected_stack, self.size, 2):
                raise FactorShapeError(
                    f"incoming matrix for slot {slot} has shape {matrix.shape}, "
                    f"expected {(expected_stack, self.size, 2)}"
                )
            operands.append(matrix)
        return _count_space_messages(tables, operands)

    def messages_all(self, gathered: np.ndarray) -> np.ndarray:
        """Count-space messages toward every slot of every stack element.

        ``gathered`` is the ``(stack, arity, arity - 1, size, 2)`` operand
        array (per target slot, the non-target operands in ascending slot
        order); the result is the unnormalised ``(stack, arity, size, 2)``
        message array, slice ``[:, target]`` bitwise identical to
        ``messages_toward(target, ...)``.
        """
        gathered = np.asarray(gathered, dtype=float)
        expected = (self.stack, self.arity, self.arity - 1, self.size, 2)
        if gathered.shape != expected:
            raise FactorShapeError(
                f"gathered operand array has shape {gathered.shape}, "
                f"expected {expected}"
            )
        tables = self.tables[:, None]
        if self.arity == 1:
            return _count_space_from_stacked(tables, None)
        return _count_space_from_stacked(tables, np.moveaxis(gathered, -3, 0))


class CompiledFactorGraph:
    """A :class:`FactorGraph` flattened into batched message-passing arrays.

    The compiled form owns the message state (two ``(edges, cardinality)``
    matrices) and exposes the same update schedule as the loop engine:
    :meth:`iterate_once` runs one synchronous round, :meth:`marginals` reads
    the current beliefs.  Construction raises :class:`FactorGraphError` for
    graphs that cannot be compiled — use :func:`compile_factor_graph` for the
    soft-failure variant.
    """

    def __init__(self, graph: FactorGraph) -> None:
        # Imported lazily: repro.factorgraph.plan imports the kernels from
        # this module at import time.
        from .plan import lower_factor_graph

        graph.validate()
        self.graph = graph
        variables = graph.variables
        cardinalities = {variable.cardinality for variable in variables}
        if len(cardinalities) > 1:
            raise FactorGraphError(
                f"cannot compile graph {graph.name!r}: variables have mixed "
                f"cardinalities {sorted(cardinalities)} (use the loops backend)"
            )
        self.cardinality = cardinalities.pop() if cardinalities else 2
        self.variable_names: Tuple[str, ...] = tuple(v.name for v in variables)
        self.domains: Dict[str, Tuple[str, ...]] = {
            v.name: v.domain for v in variables
        }
        self._variable_index = {name: i for i, name in enumerate(self.variable_names)}

        # -- lower to the shared sweep-plan IR ---------------------------------
        # Edge layout, arity buckets (dense einsum vs count space), the
        # variable segment plans and the sweep phases all come out of the
        # one lowering every engine shares.
        plan, kernels = lower_factor_graph(graph)
        self.plan = plan
        self._kernels = kernels
        self.edge_count = plan.edge_count
        self.edge_variable = plan.edge_mapping
        self._order = plan.edge_order
        self._segment_starts = plan.segment_starts
        self._segment_of_edge = plan.segment_of_edge
        self._segment_variable = plan.segment_mapping
        #: Historical ``(kernel, (size, arity) edge-id table)`` view of the
        #: plan's buckets, kept for introspection.
        self.batches: List[Tuple[FactorBatch | CountFactorBatch, np.ndarray]] = [
            (kernel, np.stack(bucket.scatter, axis=1))
            for bucket, kernel in zip(plan.batches, kernels)
        ]

        self.reset()

    # -- state -----------------------------------------------------------------

    def reset(self) -> None:
        """(Re)initialise both message matrices to unit messages."""
        uniform = 1.0 / self.cardinality
        self.variable_to_factor = np.full(
            (self.edge_count, self.cardinality), uniform
        )
        self.factor_to_variable = np.full(
            (self.edge_count, self.cardinality), uniform
        )

    # -- kernels ----------------------------------------------------------------

    def variable_to_factor_sweep(self) -> np.ndarray:
        """µ_{x→f} for every edge, from the current factor→variable matrix."""
        return self.plan.variable_sweep(self.factor_to_variable)

    def factor_to_variable_sweep(self, variable_to_factor: np.ndarray) -> np.ndarray:
        """µ_{f→x} for every edge, from the given variable→factor matrix."""
        fresh = np.empty_like(variable_to_factor)
        self.plan.factor_sweep(self._kernels, variable_to_factor, fresh)
        return fresh

    def draw_send_mask(self, rng: random.Random, send_probability: float) -> np.ndarray:
        """One vectorized Bernoulli mask over all edges.

        The underlying uniforms are drawn from ``rng`` in edge order, so a
        loop engine consuming the same ``random.Random`` stream edge by edge
        makes identical keep/send decisions.
        """
        uniforms = np.fromiter(
            (rng.random() for _ in range(self.edge_count)),
            dtype=float,
            count=self.edge_count,
        )
        return uniforms < send_probability

    def iterate_once(
        self,
        rng: Optional[random.Random] = None,
        send_probability: float = 1.0,
        damping: float = 0.0,
    ) -> float:
        """One synchronous round; returns the largest message change.

        Mirrors :meth:`repro.factorgraph.sum_product.SumProduct.iterate_once`:
        a Jacobi variable→factor sweep from the previous factor→variable
        messages, then a factor→variable sweep from the fresh messages, with
        optional damping and per-edge message loss.
        """
        old_variable_to_factor = self.variable_to_factor
        old_factor_to_variable = self.factor_to_variable

        new_variable_to_factor = self.variable_to_factor_sweep()
        lossy = send_probability < 1.0
        if lossy:
            if rng is None:
                raise FactorGraphError("message loss requires an rng")
            mask = self.draw_send_mask(rng, send_probability)
            new_variable_to_factor = np.where(
                mask[:, None], new_variable_to_factor, old_variable_to_factor
            )

        new_factor_to_variable = self.factor_to_variable_sweep(new_variable_to_factor)
        if damping > 0.0:
            new_factor_to_variable = normalize_rows(
                damping * old_factor_to_variable
                + (1.0 - damping) * new_factor_to_variable
            )
        if lossy:
            mask = self.draw_send_mask(rng, send_probability)
            new_factor_to_variable = np.where(
                mask[:, None], new_factor_to_variable, old_factor_to_variable
            )

        self.variable_to_factor = new_variable_to_factor
        self.factor_to_variable = new_factor_to_variable
        if self.edge_count == 0:
            return 0.0
        return float(
            max(
                np.abs(new_variable_to_factor - old_variable_to_factor).max(),
                np.abs(new_factor_to_variable - old_factor_to_variable).max(),
            )
        )

    # -- beliefs ----------------------------------------------------------------

    def marginal_matrix(self) -> np.ndarray:
        """Beliefs of all variables as one ``(variables, cardinality)`` matrix.

        Variables without any factor keep the uniform belief, matching the
        loop engine's treatment of isolated variables.
        """
        beliefs = np.full(
            (len(self.variable_names), self.cardinality), 1.0 / self.cardinality
        )
        if self.edge_count:
            products = segment_products(
                self.factor_to_variable[self._order], self._segment_starts
            )
            beliefs[self._segment_variable] = normalize_rows(products)
        return beliefs

    def marginals(self) -> Dict[str, np.ndarray]:
        """Current belief of every variable, keyed by name.

        Each vector is a row slice of :meth:`marginal_matrix`, which is what
        makes per-iteration history snapshots cheap.
        """
        matrix = self.marginal_matrix()
        return {
            name: matrix[index].copy()
            for index, name in enumerate(self.variable_names)
        }

    def marginal(self, variable_name: str) -> np.ndarray:
        """Belief of one variable (raises for names not in the graph)."""
        index = self._variable_index.get(variable_name)
        if index is None:
            raise VariableDomainError(
                f"unknown variable {variable_name!r} in compiled graph "
                f"{self.graph.name!r}"
            )
        return self.marginal_matrix()[index].copy()


def compile_factor_graph(graph: FactorGraph) -> Optional[CompiledFactorGraph]:
    """Compile ``graph``, or return ``None`` when it is not compilable.

    The only graphs the vectorized backend rejects are those with mixed
    variable cardinalities or *dense* factors of arity beyond
    :data:`~repro.constants.MAX_COMPILED_ARITY`; callers are expected to
    fall back to the loop reference for those.  Count-symmetric
    :class:`~repro.factorgraph.factors.CountFactor` tables (the feedback
    CPTs of long cycles and parallel paths) compile at any arity through
    the count-space kernels.
    """
    try:
        return CompiledFactorGraph(graph)
    except FactorGraphError:
        return None
