"""The sweep-plan IR of the embedded lane engine.

One engine runs the paper's compiled sum–product sweep: the lane engine of
:mod:`repro.core.batched`, which runs every decentralised run (one lane,
one lane per attribute, one lane per origin).  It lowers structure lists
to one set of compilation artefacts — edge layout, segment index plans,
transmission lists, arity buckets with gather/scatter operands, and the
dense-vs-count kernel choice — and runs a three-phase round on top.  The
centralised :class:`~repro.factorgraph.sum_product.SumProduct` loops are
the oracle it is checked against, not a second lowering.  This module is
that one IR:

* :class:`SweepPlan` — the topology-only compilation: a stacked edge row
  space (owner edges first, received cells after), per-mapping segment
  plans for the exclusive/inclusive products, the phase-2 transmission
  list in rng consumption order, and per-arity :class:`BucketPlan` buckets
  whose kernel family is decided **once**, here: dense einsum below the
  :data:`repro.constants.COUNT_KERNEL_MIN_ARITY` crossover, count-space
  from it on (no dense table, no arity limit).
* :func:`compile_sweep_plan` — the one lowering, from ``(identifier,
  mapping names)`` structure lists, with edge rows built grouped by
  mapping.
* :func:`assemble_sweep_plan` — the block-diagonal plan of already
  compiled, mapping-disjoint blocks, equal to the lowering of their
  concatenated structure lists without lowering them again.
* The round phases themselves — :meth:`SweepPlan.variable_sweep`,
  :meth:`SweepPlan.message_pool` and :meth:`SweepPlan.factor_sweep` — which
  the engine calls directly, interleaving its own bookkeeping (selection
  masks, transport exchanges, posterior snapshots) between them.

Every bucket carries an all-targets gather plan
(:attr:`BucketPlan.gather_all`) and sweeps in one path, whatever its
kernel family: one gather, one ``messages_all`` call of its stacked kernel
(one einsum per target over the gathered operands for dense buckets,
one fused count-space evaluation for count buckets), one normalisation and
one scatter.  The tests check it against a per-target ``messages_toward``
loop: every float operation, and therefore every bit of the result, is
the same.

Engines import kernels (``segment_products``, ``StackedFactorBatch``, …)
from *this* module rather than :mod:`repro.factorgraph.compiled`; the
``layering-plan-kernels`` lint rule (checked by
``tests/core/test_plan_ir.py``) enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Dict,
    List,
    Mapping as TMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..constants import COUNT_KERNEL_MIN_ARITY, MAX_COMPILED_ARITY
from ..exceptions import FeedbackError
from .compiled import (
    StackedCountFactorBatch,
    StackedFactorBatch,
    normalize_rows,
    segment_exclusive_products,
    segment_products,
)

__all__ = [
    "MAX_COMPILED_ARITY",
    "COUNT_KERNEL_MIN_ARITY",
    "KIND_NEUTRAL",
    "KIND_POSITIVE",
    "KIND_NEGATIVE",
    "normalize_rows",
    "segment_products",
    "segment_exclusive_products",
    "StackedFactorBatch",
    "StackedCountFactorBatch",
    "BucketPlan",
    "SweepPlan",
    "assemble_sweep_plan",
    "bucket_tables",
    "bucket_kernel",
    "cpt_levels",
    "compile_sweep_plan",
    "make_bucket",
    "segment_plan",
]

#: Integer codes of the per-(lane, structure) feedback kinds, shared by the
#: CPT builder (:func:`cpt_levels`) and its callers in
#: :mod:`repro.core.batched`.
KIND_NEUTRAL, KIND_POSITIVE, KIND_NEGATIVE = 0, 1, 2

#: Rows by kind code: the no-incorrect and one-incorrect CPT levels of
#: :func:`cpt_levels` (the Δ level is filled in per structure).
_LEVEL_VALUES = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# The IR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BucketPlan:
    """One arity bucket of a compiled sweep plan.

    ``gather_all[target, k]`` holds, per structure of the bucket, the pool
    id of the message feeding the ``k``-th non-target slot (in ascending
    slot order) of the sweep toward slot ``target`` — ids below the plan's
    edge count select the owner's own fresh µ_{v→F} row, ids above it the
    last received remote copy.  Shape ``(arity, arity - 1, size)``; the
    operand order is exactly that of a per-target ``messages_toward`` loop.
    ``scatter_all[target]`` holds the µ_{F→v} edge rows the fresh messages
    toward ``target`` are written back to, shape ``(arity, size)``.

    ``incorrect_counts`` feeds the evidence-time CPT builder
    (:func:`bucket_tables`): the ``arange(arity + 1)`` count axis for
    count-space buckets, the dense ``(2,)*arity`` count tensor for short
    dense buckets.
    """

    arity: int
    feedback_indices: np.ndarray
    gather_all: np.ndarray
    scatter_all: np.ndarray
    incorrect_counts: np.ndarray
    use_count_kernel: bool = False

    @property
    def size(self) -> int:
        return int(self.feedback_indices.size)

    def sweep(self, kernel, pool: np.ndarray, out: np.ndarray) -> None:
        """This bucket's factor→variable messages, scattered into ``out``.

        Scatter rows are disjoint across buckets and targets (every edge
        belongs to exactly one (factor, slot)), and normalisation is per
        row, so normalising the whole bucket at once equals per-target
        normalisation bit for bit.
        """
        out[..., self.scatter_all, :] = normalize_rows(
            kernel.messages_all(pool[..., self.gather_all, :])
        )


@dataclass(frozen=True)
class SweepPlan:
    """Topology-only compilation of the lane engine's sweeps.

    Holds everything the engine derives from the structure list alone —
    the directed owner-edge layout grouped by mapping, the segment index
    plans behind the exclusive/inclusive products, the received-cell
    layout, the phase-2 transmission list in rng consumption order, and
    the arity-bucketed gather/scatter operands — so it is compiled exactly
    once per topology and shared across attributes, origins and EM rounds.

    ``edge_mapping[row]`` is the mapping (variable) id of each edge row and
    ``edge_structure[row]`` its structure (factor) id.  Edge rows are
    built grouped by mapping, so ``segment_starts`` / ``segment_of_edge``
    describe the per-mapping segments directly in row order.
    ``segment_mapping[k]`` is the mapping id owning segment ``k`` (the row
    behind each posterior snapshot).  ``recv_structure[cell]`` is the
    structure id of each received cell (the compaction's filter).
    ``tx_mapping`` carries the sender mapping id of each transmission (the
    partial round's filter).  ``block_bounds`` cuts the structure list into
    its *blocks*: ``block_bounds[j]:block_bounds[j + 1]`` is block ``j``,
    the cuts are every structure offset no mapping straddles, so distinct
    blocks share no mapping (the lane engine's placement reads them).
    """

    identifiers: Tuple[str, ...]
    structure_mappings: Tuple[Tuple[str, ...], ...]
    owners: TMapping[str, str]
    mapping_names: Tuple[str, ...]
    mapping_index: TMapping[str, int]
    edge_mapping: np.ndarray
    edge_structure: np.ndarray
    segment_starts: np.ndarray
    segment_of_edge: np.ndarray
    segment_mapping: np.ndarray
    edge_count: int
    recv_count: int
    recv_structure: np.ndarray
    tx_src: np.ndarray
    tx_dest: np.ndarray
    tx_feedback: np.ndarray
    tx_mapping: np.ndarray
    batches: Tuple[BucketPlan, ...]
    block_bounds: np.ndarray

    @property
    def structure_count(self) -> int:
        return len(self.identifiers)

    @property
    def mapping_count(self) -> int:
        return len(self.mapping_names)

    # -- the round phases ------------------------------------------------------
    #
    # A round is ``variable_sweep`` → (the engine's exchange, if any) →
    # ``factor_sweep`` over ``message_pool``.  The phases accept any leading
    # slice axes (``(..., rows, 2)``): the lane engine's slices.

    def variable_sweep(
        self, f2v: np.ndarray, prior_edges: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Fresh µ_{v→F} rows: normalised exclusive segment products,
        optionally scaled by per-edge prior rows."""
        if self.edge_count == 0:
            exclusive = f2v.copy()
        else:
            exclusive = segment_exclusive_products(
                f2v, self.segment_starts, self.segment_of_edge
            )
        if prior_edges is None:
            return normalize_rows(exclusive)
        return normalize_rows(prior_edges * exclusive)

    @staticmethod
    def message_pool(v2f: np.ndarray, recv: Optional[np.ndarray]) -> np.ndarray:
        """The gather pool: owner rows first, received cells stacked after."""
        if recv is not None and recv.shape[-2]:
            return np.concatenate((v2f, recv), axis=-2)
        return v2f

    def factor_sweep(
        self, kernels: Sequence, pool: np.ndarray, out: np.ndarray
    ) -> None:
        """All buckets' factor→variable messages, scattered into ``out``;
        ``kernels`` is aligned with :attr:`batches`."""
        for bucket, kernel in zip(self.batches, kernels):
            bucket.sweep(kernel, pool, out)


def segment_plan(
    grouped_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment layout of an already-grouped id array.

    Returns ``(segment_starts, segment_of_row, segment_ids)``: the start
    offsets of each contiguous run, the run index of every row, and the id
    each run carries.  The single home of the ``is_start``/``cumsum``
    pattern the engines used to re-derive.
    """
    grouped_ids = np.asarray(grouped_ids, dtype=np.int64)
    if grouped_ids.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    is_start = np.empty(grouped_ids.size, dtype=bool)
    is_start[0] = True
    is_start[1:] = grouped_ids[1:] != grouped_ids[:-1]
    starts = np.flatnonzero(is_start)
    return starts, np.cumsum(is_start) - 1, grouped_ids[starts]


def make_bucket(
    arity: int,
    feedback_indices: np.ndarray,
    gather_all,
    scatter_all,
    use_count_kernel: bool,
    incorrect_counts: np.ndarray,
) -> BucketPlan:
    """Assemble a :class:`BucketPlan` from its gather and scatter plans.

    ``gather_all`` and ``scatter_all`` are any int array-likes of the
    :class:`BucketPlan` layouts; the lowering and compaction funnel through
    this so the two plans are always int64 arrays of exactly the
    ``(arity, arity - 1, size)`` and ``(arity, size)`` shapes.
    """
    feedback_indices = np.asarray(feedback_indices, dtype=np.int64)
    size = feedback_indices.size
    return BucketPlan(
        arity=arity,
        feedback_indices=feedback_indices,
        gather_all=np.asarray(gather_all, dtype=np.int64).reshape(
            arity, arity - 1, size
        ),
        scatter_all=np.asarray(scatter_all, dtype=np.int64).reshape(arity, size),
        incorrect_counts=incorrect_counts,
        use_count_kernel=use_count_kernel,
    )


# ---------------------------------------------------------------------------
# Lowering: structure lists (the embedded lane engine)
# ---------------------------------------------------------------------------


def compile_sweep_plan(
    structures: Sequence[Tuple[str, Sequence[str]]],
    owners: Optional[TMapping[str, str]] = None,
    default_owner: Optional[Callable[[str], str]] = None,
) -> SweepPlan:
    """Compile ``(identifier, mapping names)`` structures into a plan.

    ``structures`` lists the network's cycles and parallel paths in the
    order :func:`repro.core.analysis.analyze_network` numbers them, so the
    per-attribute :class:`~repro.core.feedback.Feedback` evidence derived
    from the same structures aligns with the plan index for index.

    Every structure needs at least two mappings, the floor of the
    :class:`~repro.core.feedback.Feedback` it is evaluated into (a cycle
    or parallel path over a single mapping is a caller bug, and raises
    :class:`~repro.exceptions.FeedbackError` naming it).
    ``default_owner`` maps a mapping name to its owning peer when
    ``owners`` does not list it; without one, every name must be covered
    by ``owners``.
    """
    normalized: List[Tuple[str, Tuple[str, ...]]] = [
        (identifier, tuple(names)) for identifier, names in structures
    ]
    owner_map: Dict[str, str] = {}
    mapping_list: List[str] = []
    for identifier, names in normalized:
        if len(names) < 2:
            raise FeedbackError(
                f"structure {identifier!r} needs at least two mappings, "
                f"got {names!r}"
            )
        for name in names:
            if name not in owner_map:
                if owners is not None and name in owners:
                    owner_map[name] = owners[name]
                elif default_owner is not None:
                    owner_map[name] = default_owner(name)
                else:
                    raise FeedbackError(
                        f"no owner supplied for mapping {name!r}"
                    )
                mapping_list.append(name)
    mapping_index = {name: index for index, name in enumerate(mapping_list)}

    # Directed owner edges (mapping, structure), grouped contiguously by
    # mapping so phase 1 and the posterior read are single segment products.
    structures_of: Dict[str, List[int]] = {name: [] for name in mapping_list}
    for structure_index, (_, names) in enumerate(normalized):
        for name in names:
            structures_of[name].append(structure_index)
    edge_rows: Dict[Tuple[str, int], int] = {}
    edge_mapping_list: List[int] = []
    edge_structure_list: List[int] = []
    for m_index, name in enumerate(mapping_list):
        for structure_index in structures_of[name]:
            edge_rows[(name, structure_index)] = len(edge_mapping_list)
            edge_mapping_list.append(m_index)
            edge_structure_list.append(structure_index)
    edge_mapping = np.asarray(edge_mapping_list, dtype=np.int64)
    segment_starts, segment_of_edge, segment_mapping = segment_plan(
        edge_mapping
    )
    edge_count = len(edge_mapping)

    # Received cells (peer, structure, remote mapping): one per replica a
    # peer holds of a structure it does not own every mapping of.
    recv_rows: Dict[Tuple[str, int, str], int] = {}
    for structure_index, (_, names) in enumerate(normalized):
        for peer in dict.fromkeys(owner_map[name] for name in names):
            for name in names:
                if owner_map[name] != peer:
                    recv_rows.setdefault(
                        (peer, structure_index, name), len(recv_rows)
                    )

    # Transmission list in the order a per-message loop walks it
    # (structure → sender mapping → recipient mapping), the order every
    # lane consumes its rng stream in.
    tx_src: List[int] = []
    tx_dest: List[int] = []
    tx_feedback: List[int] = []
    tx_mapping: List[int] = []
    for structure_index, (_, names) in enumerate(normalized):
        for name in names:
            sender = owner_map[name]
            source_edge = edge_rows[(name, structure_index)]
            for other in names:
                recipient = owner_map[other]
                if recipient == sender:
                    continue
                tx_src.append(source_edge)
                tx_dest.append(recv_rows[(recipient, structure_index, name)])
                tx_feedback.append(structure_index)
                tx_mapping.append(mapping_index[name])

    # Arity buckets with index-array gather/scatter plans; the kernel
    # family — dense einsum vs count space — is decided here, once, by the
    # COUNT_KERNEL_MIN_ARITY crossover (long structures are never rejected:
    # count-value vectors replace the (2,)**arity CPTs).
    by_arity: Dict[int, List[int]] = {}
    for structure_index, (_, names) in enumerate(normalized):
        by_arity.setdefault(len(names), []).append(structure_index)
    batches: List[BucketPlan] = []
    for arity, structure_indices in by_arity.items():
        use_count_kernel = arity >= COUNT_KERNEL_MIN_ARITY
        gather_all: List[List[List[int]]] = []
        scatter_all: List[List[int]] = []
        for target in range(arity):
            per_source: List[List[int]] = []
            for source in range(arity):
                if source == target:
                    continue
                pool_ids: List[int] = []
                for si in structure_indices:
                    names = normalized[si][1]
                    target_name, source_name = names[target], names[source]
                    owner = owner_map[target_name]
                    if owner_map[source_name] == owner:
                        pool_ids.append(edge_rows[(source_name, si)])
                    else:
                        pool_ids.append(
                            edge_count + recv_rows[(owner, si, source_name)]
                        )
                per_source.append(pool_ids)
            gather_all.append(per_source)
            scatter_all.append(
                [edge_rows[(normalized[si][1][target], si)] for si in structure_indices]
            )
        batches.append(
            make_bucket(
                arity=arity,
                feedback_indices=np.asarray(structure_indices, dtype=np.int64),
                gather_all=gather_all,
                scatter_all=scatter_all,
                use_count_kernel=use_count_kernel,
                incorrect_counts=(
                    np.arange(arity + 1, dtype=np.int64)
                    if use_count_kernel
                    else np.indices((2,) * arity).sum(axis=0)
                ),
            )
        )

    edge_structure = np.asarray(edge_structure_list, dtype=np.int64)
    return SweepPlan(
        identifiers=tuple(identifier for identifier, _ in normalized),
        structure_mappings=tuple(names for _, names in normalized),
        owners=owner_map,
        mapping_names=tuple(mapping_list),
        mapping_index=mapping_index,
        edge_mapping=edge_mapping,
        edge_structure=edge_structure,
        segment_starts=segment_starts,
        segment_of_edge=segment_of_edge,
        segment_mapping=segment_mapping,
        edge_count=edge_count,
        recv_count=len(recv_rows),
        # The cell table lists its cells in row order.
        recv_structure=np.fromiter(
            (structure for _, structure, _ in recv_rows),
            dtype=np.int64,
            count=len(recv_rows),
        ),
        tx_src=np.asarray(tx_src, dtype=np.int64),
        tx_dest=np.asarray(tx_dest, dtype=np.int64),
        tx_feedback=np.asarray(tx_feedback, dtype=np.int64),
        tx_mapping=np.asarray(tx_mapping, dtype=np.int64),
        batches=tuple(batches),
        block_bounds=_block_bounds(edge_structure, segment_starts, len(normalized)),
    )


def _block_bounds(
    edge_structure: np.ndarray, segment_starts: np.ndarray, structure_count: int
) -> np.ndarray:
    """Every structure offset no mapping straddles, ``0`` and
    ``structure_count`` included (``[0]`` for no structures).

    Each mapping's edge rows list its structures in increasing order, so
    its first and last row bound the structures it spans; a cut ``b``
    falls between structures when no mapping has ``first < b <= last``.
    """
    if not structure_count:
        return np.zeros(1, dtype=np.int64)
    first = edge_structure[segment_starts]
    last = np.empty_like(first)
    last[:-1] = edge_structure[segment_starts[1:] - 1]
    last[-1] = edge_structure[-1]
    straddling = (
        np.bincount(first + 1, minlength=structure_count + 1)
        - np.bincount(last + 1, minlength=structure_count + 1)
    ).cumsum()
    # Position 0 and the end are never straddled.
    return (straddling == 0).nonzero()[0]


def assemble_sweep_plan(blocks: Sequence[SweepPlan]) -> SweepPlan:
    """The block-diagonal plan of compiled ``blocks``, without lowering.

    Blocks that share no mapping share no edge row, received cell or
    transmission, so :func:`compile_sweep_plan` of their concatenated
    structure lists lays each block out exactly as its own plan does,
    shifted past the blocks before it: structure, mapping, edge, segment
    and received-cell ids (and block bounds) move by the counts those
    blocks hold, and a gather id naming a received cell also moves past
    the later blocks' edge rows.  Applying those shifts to the blocks' index arrays gives
    that compilation in every field — array values, dtypes and shapes, the
    order of ``owners`` and ``mapping_index``, and bucket order by
    first-seen arity.  One block is returned as it is; a mapping
    in two blocks raises :class:`~repro.exceptions.FeedbackError`.
    """
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return compile_sweep_plan(())
    owners: Dict[str, str] = {}
    for block in blocks:
        if not owners.keys().isdisjoint(block.owners):
            shared = next(name for name in block.owners if name in owners)
            raise FeedbackError(
                f"mapping {shared!r} appears in more than one plan block"
            )
        owners.update(block.owners)
    mapping_names = tuple(owners)

    # Per block: how many structures, mappings, edge rows, received cells,
    # segments and transmissions it holds, where its run of each starts,
    # and, per row of each, the block it comes from.
    counts = np.array(
        [
            (
                len(block.identifiers),
                len(block.mapping_names),
                block.edge_count,
                block.recv_count,
                block.segment_mapping.size,
                block.tx_src.size,
            )
            for block in blocks
        ],
        dtype=np.int64,
    )
    structure_start, mapping_start, edge_start, recv_start, segment_start, _ = (
        np.cumsum(counts, axis=0) - counts
    ).T
    edge_counts = counts[:, 2]
    edge_count = int(edge_counts.sum())
    edge_block, recv_block, segment_block, tx_block = (
        np.repeat(np.arange(len(blocks)), counts[:, column]) for column in (2, 3, 4, 5)
    )

    def joined(arrays: List[np.ndarray], shift: np.ndarray) -> np.ndarray:
        return np.concatenate(arrays) + shift

    # Buckets by first-seen arity: blocks in order, each block's own
    # buckets in its own (first-seen) order.
    by_arity: Dict[int, List[Tuple[int, BucketPlan]]] = {}
    for position, block in enumerate(blocks):
        for bucket in block.batches:
            by_arity.setdefault(bucket.arity, []).append((position, bucket))
    batches: List[BucketPlan] = []
    for arity, members in by_arity.items():
        buckets = [bucket for _, bucket in members]
        column_block = np.repeat(
            [position for position, _ in members],
            [bucket.feedback_indices.size for bucket in buckets],
        )
        # Pool ids below a block's edge count are its edge rows; the rest
        # are its received cells, stacked after every block's edge rows.
        gather_all = np.concatenate(
            [bucket.gather_all for bucket in buckets], axis=-1
        )
        block_edges = edge_counts[column_block]
        gather_all += np.where(
            gather_all < block_edges,
            edge_start[column_block],
            edge_count + recv_start[column_block] - block_edges,
        )
        batches.append(
            make_bucket(
                arity=arity,
                feedback_indices=joined(
                    [bucket.feedback_indices for bucket in buckets],
                    structure_start[column_block],
                ),
                gather_all=gather_all,
                scatter_all=np.concatenate(
                    [bucket.scatter_all for bucket in buckets], axis=-1
                )
                + edge_start[column_block],
                use_count_kernel=buckets[0].use_count_kernel,
                incorrect_counts=buckets[0].incorrect_counts,
            )
        )

    return SweepPlan(
        identifiers=tuple(chain.from_iterable(b.identifiers for b in blocks)),
        structure_mappings=tuple(
            chain.from_iterable(b.structure_mappings for b in blocks)
        ),
        owners=owners,
        mapping_names=mapping_names,
        mapping_index={name: index for index, name in enumerate(mapping_names)},
        edge_mapping=joined(
            [b.edge_mapping for b in blocks], mapping_start[edge_block]
        ),
        edge_structure=joined(
            [b.edge_structure for b in blocks], structure_start[edge_block]
        ),
        segment_starts=joined(
            [b.segment_starts for b in blocks], edge_start[segment_block]
        ),
        segment_of_edge=joined(
            [b.segment_of_edge for b in blocks], segment_start[edge_block]
        ),
        segment_mapping=joined(
            [b.segment_mapping for b in blocks], mapping_start[segment_block]
        ),
        edge_count=edge_count,
        recv_count=int(counts[:, 3].sum()),
        recv_structure=joined(
            [b.recv_structure for b in blocks], structure_start[recv_block]
        ),
        tx_src=joined([b.tx_src for b in blocks], edge_start[tx_block]),
        tx_dest=joined([b.tx_dest for b in blocks], recv_start[tx_block]),
        tx_feedback=joined([b.tx_feedback for b in blocks], structure_start[tx_block]),
        tx_mapping=joined([b.tx_mapping for b in blocks], mapping_start[tx_block]),
        batches=tuple(batches),
        block_bounds=np.concatenate(
            [b.block_bounds[:-1] + start for b, start in zip(blocks, structure_start)]
            + [np.array([structure_start[-1] + counts[-1, 0]], dtype=np.int64)]
        ),
    )


# ---------------------------------------------------------------------------
# Evidence-time CPT builders
# ---------------------------------------------------------------------------


def cpt_levels(kinds: np.ndarray, deltas) -> np.ndarray:
    """``P(f | kind)`` of every structure at its three incorrect-count levels.

    ``kinds`` holds kind codes and ``deltas`` the matching Δ values
    (broadcastable against ``kinds``); the result has shape ``kinds.shape
    + (3,)``: with no, exactly one, and two or more incorrect mappings —
    positive 1 / 0 / Δ, negative 0 / 1 / 1 − Δ, neutral all ones.  A
    structure's CPT depends on its incorrect count only through these
    levels; :func:`bucket_tables` expands them per bucket.
    """
    deltas = np.asarray(deltas, dtype=float)
    levels = _LEVEL_VALUES[kinds]
    levels[..., 2] = np.choose(kinds, (1.0, deltas, 1.0 - deltas))
    return levels


def bucket_tables(levels: np.ndarray, bucket: BucketPlan) -> np.ndarray:
    """Per-(row, structure) CPT tables of one plan bucket.

    ``levels`` holds the ``(..., structures, 3)`` :func:`cpt_levels` of
    every plan structure.  Dense buckets yield ``(..., size, *(2,)*arity)``
    tables for the einsum kernels; count-space buckets yield
    ``(..., size, arity + 1)`` count-value vectors — ``P(f± | k incorrect)``
    — for the :class:`~repro.factorgraph.compiled.StackedCountFactorBatch`
    kernel, never touching ``2**arity`` memory.  Neutral structures are
    all-ones either way, which is what masks them out of the sum–product.
    The tables come out C-contiguous, the layout the kernels sum over.
    """
    return np.take(
        levels[..., bucket.feedback_indices, :],
        np.minimum(bucket.incorrect_counts, 2),
        axis=-1,
    )


def bucket_kernel(
    tables: np.ndarray, bucket: BucketPlan
) -> StackedFactorBatch | StackedCountFactorBatch:
    """The stacked kernel evaluating one bucket's tables."""
    if bucket.use_count_kernel:
        return StackedCountFactorBatch(tables)
    return StackedFactorBatch(tables)
