"""Unit tests for the compiled kernels of the lane engine.

The stacked kernels (see ``repro/factorgraph/compiled.py``) must evaluate,
per stack element and factor, exactly the sum–product expression the
scalar :meth:`Factor.message_to` oracle evaluates, and ``messages_all``
exactly what ``messages_toward`` evaluates target by target; the segment
and normalisation kernels must treat every slice of a batched stack
independently, and return on either side of their shortcuts exactly what
their guarded formulas (kept below as references) return.
"""

import numpy as np
import pytest

from repro.exceptions import FactorGraphError, FactorShapeError
from repro.factorgraph.compiled import (
    StackedFactorBatch,
    normalize_rows,
    segment_exclusive_products,
    segment_products,
)
from repro.factorgraph.factors import Factor
from repro.factorgraph.variables import BinaryVariable


def _normalize_rows_guarded(matrix):
    """``normalize_rows`` as it read before its positive-totals shortcut."""
    matrix = np.asarray(matrix, dtype=float)
    totals = matrix.sum(axis=-1, keepdims=True)
    bad = (totals <= 0.0) | ~np.isfinite(totals)
    safe_totals = np.where(bad, 1.0, totals)
    normalized = matrix / safe_totals
    if np.any(bad):
        normalized = np.where(bad, 1.0 / matrix.shape[-1], normalized)
    return normalized


def _segment_exclusive_zero_aware(grouped, segment_starts, segment_of_row):
    """``segment_exclusive_products`` as it read before its zero-free
    shortcut."""
    grouped = np.asarray(grouped, dtype=float)
    zeros = grouped == 0.0
    safe = np.where(zeros, 1.0, grouped)
    segment_product = np.multiply.reduceat(safe, segment_starts, axis=-2)
    segment_zeros = np.add.reduceat(
        zeros.astype(np.int64), segment_starts, axis=-2
    )
    product_here = np.take(segment_product, segment_of_row, axis=-2)
    zeros_here = np.take(segment_zeros, segment_of_row, axis=-2)
    exclusive = np.where(zeros, product_here, product_here / safe)
    return np.where((zeros_here - zeros) > 0, 0.0, exclusive)


class TestKernelShortcuts:
    """Both sides of each shortcut return the guarded formula's floats."""

    @pytest.mark.parametrize(
        "total", ["positive", 0.0, np.inf, np.nan], ids=str
    )
    def test_normalize_rows(self, total):
        rng = np.random.default_rng(5)
        stacked = rng.uniform(0.0, 3.0, size=(3, 7, 2))
        if total != "positive":
            stacked[1, 4] = [total, 0.0]
            stacked[2, 0] = [0.0, total]
        with np.errstate(invalid="ignore"):
            expected = _normalize_rows_guarded(stacked)
            got = normalize_rows(stacked)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)

    def test_normalize_rows_empty(self):
        empty = np.empty((2, 0, 2))
        np.testing.assert_array_equal(
            normalize_rows(empty), _normalize_rows_guarded(empty)
        )

    @pytest.mark.parametrize(
        "zeros", [(), ((0, 1, 0),), ((1, 3, 1), (1, 4, 1)), ((2, 5, 0),)]
    )
    @pytest.mark.parametrize("special", [None, np.inf, np.nan], ids=str)
    def test_segment_exclusive_products(self, zeros, special):
        segment_of_row = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        segment_starts = np.array([0, 3, 5], dtype=np.int64)
        rng = np.random.default_rng(13)
        stacked = rng.uniform(0.1, 1.0, size=(3, 6, 2))
        for index in zeros:
            stacked[index] = 0.0
        if special is not None:
            stacked[0, 3, 1] = special
        with np.errstate(invalid="ignore"):
            expected = _segment_exclusive_zero_aware(
                stacked, segment_starts, segment_of_row
            )
            got = segment_exclusive_products(
                stacked, segment_starts, segment_of_row
            )
        np.testing.assert_array_equal(got, expected)


class TestNormalizeRows:
    def test_rows_sum_to_one(self):
        matrix = np.array([[2.0, 2.0], [1.0, 3.0]])
        normalized = normalize_rows(matrix)
        assert normalized.sum(axis=1) == pytest.approx([1.0, 1.0])

    def test_zero_row_becomes_uniform(self):
        matrix = np.array([[0.0, 0.0], [1.0, 1.0]])
        normalized = normalize_rows(matrix)
        assert normalized[0] == pytest.approx([0.5, 0.5])
        assert normalized[1] == pytest.approx([0.5, 0.5])

    def test_batched_stack_normalizes_per_slice(self):
        rng = np.random.default_rng(3)
        stacked = rng.uniform(0.0, 1.0, size=(4, 6, 2))
        stacked[1, 2] = 0.0  # a zero vector inside one slice
        normalized = normalize_rows(stacked)
        assert normalized.shape == stacked.shape
        assert normalized.sum(axis=-1) == pytest.approx(np.ones((4, 6)))
        for index in range(stacked.shape[0]):
            assert normalized[index] == pytest.approx(
                normalize_rows(stacked[index]), abs=1e-15
            )


class TestBatchedSegmentKernels:
    """The segment kernels accept a leading batch axis per slice."""

    def _layout(self):
        segment_of_row = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        segment_starts = np.array([0, 3, 5], dtype=np.int64)
        return segment_starts, segment_of_row

    def test_segment_products_match_per_slice(self):
        starts, _ = self._layout()
        rng = np.random.default_rng(7)
        stacked = rng.uniform(0.1, 1.0, size=(5, 6, 2))
        batched = segment_products(stacked, starts)
        assert batched.shape == (5, 3, 2)
        for index in range(stacked.shape[0]):
            assert batched[index] == pytest.approx(
                segment_products(stacked[index], starts), abs=1e-15
            )

    def test_segment_exclusive_products_match_per_slice(self):
        starts, segment_of_row = self._layout()
        rng = np.random.default_rng(11)
        stacked = rng.uniform(0.1, 1.0, size=(5, 6, 2))
        stacked[2, 1, 0] = 0.0  # exercise the zero-aware path in one slice
        batched = segment_exclusive_products(stacked, starts, segment_of_row)
        assert batched.shape == stacked.shape
        for index in range(stacked.shape[0]):
            assert batched[index] == pytest.approx(
                segment_exclusive_products(stacked[index], starts, segment_of_row),
                abs=1e-15,
            )


class TestStackedFactorBatch:
    def test_matches_scalar_message_to(self):
        """Every (stack element, factor) reproduces the scalar oracle."""
        variables = [BinaryVariable(n) for n in "xyz"]
        names = [variable.name for variable in variables]
        rng = np.random.default_rng(0)
        tables = rng.uniform(0.1, 1.0, size=(3, 4, 2, 2, 2))
        stacked = StackedFactorBatch(tables)
        incoming = [rng.uniform(0.1, 1.0, size=(3, 4, 2)) for _ in range(3)]
        for target, name in enumerate(names):
            out = stacked.messages_toward(target, incoming)
            assert out.shape == (3, 4, 2)
            for index in range(3):
                for row in range(4):
                    scalar = Factor(
                        "f", variables, tables[index, row]
                    ).message_to(
                        name,
                        {
                            other: incoming[slot][index, row]
                            for slot, other in enumerate(names)
                            if slot != target
                        },
                    )
                    assert out[index, row] == pytest.approx(scalar, abs=1e-12)

    @pytest.mark.parametrize("arity", range(1, 10))
    @pytest.mark.parametrize("stack", [1, 3])
    @pytest.mark.parametrize("size", [1, 5])
    def test_messages_all_matches_messages_toward(self, arity, stack, size):
        """Every target of the all-targets kernel is bitwise the per-target
        kernel, and within 1e-12 of the scalar oracle — exact zeros in the
        tables included."""
        rng = np.random.default_rng(arity * 100 + stack * 10 + size)
        tables = rng.uniform(0.1, 1.0, size=(stack, size) + (2,) * arity)
        # The feedback CPTs' exact zeros: P(f+ | exactly one slot incorrect).
        one_incorrect = np.indices((2,) * arity).sum(axis=0) == 1
        tables[0, :, one_incorrect] = 0.0
        stacked = StackedFactorBatch(tables)
        incoming = [rng.uniform(0.1, 1.0, size=(stack, size, 2)) for _ in range(arity)]
        # Per target, the non-target operands in ascending slot order.
        gathered = np.empty((stack, arity, arity - 1, size, 2))
        for target in range(arity):
            sources = [slot for slot in range(arity) if slot != target]
            for position, slot in enumerate(sources):
                gathered[:, target, position] = incoming[slot]
        fused = stacked.messages_all(gathered)
        assert fused.shape == (stack, arity, size, 2)
        variables = [BinaryVariable(f"x{slot}") for slot in range(arity)]
        for target in range(arity):
            per_target = stacked.messages_toward(target, incoming)
            assert np.array_equal(fused[:, target], per_target)
            for index in range(stack):
                for row in range(size):
                    scalar = Factor(
                        "f", variables, tables[index, row]
                    ).message_to(
                        f"x{target}",
                        {
                            f"x{slot}": incoming[slot][index, row]
                            for slot in range(arity)
                            if slot != target
                        },
                    )
                    assert fused[index, target, row] == pytest.approx(
                        scalar, abs=1e-12
                    )

    def test_messages_all_rejects_bad_shapes(self):
        stacked = StackedFactorBatch(np.ones((2, 3, 2, 2)))
        with pytest.raises(FactorShapeError):
            stacked.messages_all(np.ones((2, 2, 1, 4, 2)))
        with pytest.raises(FactorShapeError):
            StackedFactorBatch(np.ones((2, 3, 3, 2))).messages_all(
                np.ones((2, 2, 1, 3, 2))
            )

    def test_rejects_flat_tables_and_bad_shapes(self):
        with pytest.raises(FactorGraphError):
            StackedFactorBatch(np.ones((2, 2)))
        stacked = StackedFactorBatch(np.ones((2, 3, 2, 2)))
        with pytest.raises(FactorShapeError):
            stacked.messages_toward(0, [None, np.ones((2, 2, 2))])
        with pytest.raises(FactorShapeError):
            stacked.messages_toward(1, [None, None])
        with pytest.raises(FactorGraphError):
            stacked.messages_toward(5, [None, np.ones((2, 3, 2))])
