"""Batched multi-attribute embedded message passing.

The self-organizing assessment loop of the paper runs the decentralised
message passing of §4 for *every* attribute of the schema network.  The
cycle / parallel-path structures those runs are built from are
attribute-independent (§3.2.1) — only the feedback *signs* (and therefore
the factor tables) change per attribute — yet the per-attribute
:class:`~repro.core.embedded.EmbeddedMessagePassing` engine re-derives the
full topology machinery (edge layouts, segment index plans, factor-batch
gather/scatter operands, factor tables) from scratch for each attribute.

This module splits that work along the topology/evidence boundary, as
one of the plan lowerings :mod:`repro.core.embedded` documents (normative
statement of the underlying layering/determinism/process-safety
contracts: ``ARCHITECTURE.md`` at the repository root, enforced by
``repro-lint`` / :mod:`repro.lintkit`; the structure lists compiled here
arrive from the discovery frontier of :mod:`repro.pdms.discovery`):

* :func:`compile_assessment_plan` lowers the structures **once** into a
  shared :class:`~repro.factorgraph.plan.SweepPlan` (built by
  :func:`~repro.factorgraph.plan.compile_sweep_plan`) — everything in
  ``EmbeddedMessagePassing.__init__`` / ``_init_array_state`` /
  ``_compile_array_batches`` that depends only on which structures exist
  and which peers own their mappings: edge row space, segment index plans,
  transmission list, arity-bucketed kernel batches.  The kernel family per
  bucket follows the crossover rule stated in :mod:`repro.core.embedded`
  (dense einsum below :data:`repro.constants.COUNT_KERNEL_MIN_ARITY`,
  count space at or beyond it — structures of *any* arity compile; the
  historical arity-25 cliff is gone).
* :class:`BatchedEmbeddedMessagePassing` binds one plan to per-**lane**
  evidence and runs **all lanes simultaneously** on stacked
  ``(lanes, edges, 2)`` message matrices, running each round through the
  plan's phases: phase 1 is one zero-aware segment product over the
  stacked factor→variable state, phase 2 one Bernoulli mask per lane over
  the plan's transmission list (engine-side — the plan never touches the
  rng), phase 3 one stacked kernel sweep per arity bucket
  (:class:`~repro.factorgraph.plan.StackedFactorBatch` einsum or
  count-space :class:`~repro.factorgraph.plan.StackedCountFactorBatch`).
  Per-lane convergence masking freezes finished lanes so they stop
  contributing work.

A lane is any ``(evidence subset, priors, Δ, rng stream)`` tuple
(:class:`AssessmentLane`) bound to a subset of the plan's structures:

* the multi-attribute assessor makes one lane per *attribute*, each
  covering the full structure list (the classic keyword constructor);
* the decentralised per-peer view of §4.5 makes one lane per *origin* on a
  plan concatenating every origin's local structure block over per-origin
  mapping instances.  Such lanes are *disjoint*, so stacking them on a
  dense lane axis would waste an L× factor of permanently-uniform rows;
  :class:`BlockedEmbeddedMessagePassing` packs them block-diagonally into
  one shared row space instead, keeping per-lane rng streams, convergence
  counters and results while a round costs one set of numpy calls over the
  blocks' combined rows.  (:meth:`BatchedEmbeddedMessagePassing.from_lanes`
  remains the general engine for arbitrary — possibly overlapping — lane
  subsets.)

Equivalence with the sequential engine
--------------------------------------
The stacked state covers *all* plan structures, not only the ones a lane
binds informative evidence to.  Structures that are neutral for (or outside
the evidence subset of) a lane carry an all-ones factor table, whose
sum–product messages are exactly uniform; a uniform factor→variable row
scales both belief components by the same power of two, so every shared
message — and therefore every posterior — matches the sequential
``backend="arrays"`` engine run on the lane's informative evidence alone, to
floating-point accuracy (the parity tests pin the agreement well below
``1e-9``, lossless and lossy).  Mappings not constrained by any informative
structure of a lane are masked out of that lane's result, mirroring the
sequential engine's restriction to informative feedback.

Reproducibility contract
------------------------
The sequential assessor builds one freshly seeded
:class:`~repro.core.embedded.MessageTransport` per call — per attribute for
the global sweeps, per origin for ``assess_local``.  The batched engine
keeps that contract: each lane draws its Bernoulli keep/send masks from its
**own** ``random.Random`` stream (seeded identically to the sequential
run), and only for the transmissions of its *informative* structures, in
the same transmission order — each lane's structure indices are strictly
increasing in plan order and each structure keeps the lane's own traversal
orientation — so lossy batched runs replay the sequential drop decisions
exactly, attempt counts included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping as TMapping, Optional, Sequence, Tuple

import numpy as np

from ..constants import DEFAULT_SEED, DEFAULT_SEND_PROBABILITY
from ..exceptions import ConvergenceError, FeedbackError
from ..factorgraph.plan import (
    KIND_NEGATIVE as _KIND_NEGATIVE,
    KIND_NEUTRAL as _KIND_NEUTRAL,
    KIND_POSITIVE as _KIND_POSITIVE,
    BucketPlan,
    StackedCountFactorBatch,
    StackedFactorBatch,
    SweepPlan,
    bucket_kernel as _bucket_kernel,
    bucket_tables as _bucket_tables,
    compile_sweep_plan,
    make_bucket,
    normalize_rows,
    segment_plan,
    segment_products,
)
from .beliefs import PriorBeliefStore
from .embedded import (
    EmbeddedMessagePassing,
    EmbeddedOptions,
    EmbeddedResult,
    MessageTransport,
    required_quiet_rounds,
)
from .feedback import Feedback, FeedbackKind
from .local_graph import mapping_owner

__all__ = [
    "AssessmentLane",
    "BatchedEmbeddedMessagePassing",
    "BlockedEmbeddedMessagePassing",
    "compile_assessment_plan",
]

_KIND_CODES = {
    FeedbackKind.NEUTRAL: _KIND_NEUTRAL,
    FeedbackKind.POSITIVE: _KIND_POSITIVE,
    FeedbackKind.NEGATIVE: _KIND_NEGATIVE,
}


def _validated_lane_codes(
    plan: SweepPlan, lane: "AssessmentLane"
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate one lane's evidence against the plan.

    Shared by both batched engines so they accept exactly the same lanes.
    Returns ``(indices, codes)``: the lane's plan structure indices and a
    full-width ``(structure_count,)`` kind-code vector, neutral outside the
    lane's subset.
    """
    feedback_list = tuple(lane.feedbacks)
    if lane.structure_indices is None:
        indices = np.arange(plan.structure_count, dtype=np.int64)
    else:
        indices = np.asarray(lane.structure_indices, dtype=np.int64)
        if indices.size and (
            indices[0] < 0
            or indices[-1] >= plan.structure_count
            or (np.diff(indices) <= 0).any()
        ):
            raise FeedbackError(
                f"lane {lane.key!r} structure indices must be strictly "
                f"increasing within the plan's {plan.structure_count} "
                f"structures"
            )
    if len(feedback_list) != indices.size:
        raise FeedbackError(
            f"lane {lane.key!r} supplies {len(feedback_list)} feedbacks "
            f"for {indices.size} plan structures"
        )
    codes = np.zeros(plan.structure_count, dtype=np.int8)
    for index, feedback in zip(indices, feedback_list):
        if (
            feedback.identifier != plan.identifiers[index]
            or feedback.mapping_names != plan.structure_mappings[index]
        ):
            raise FeedbackError(
                f"feedback {feedback.identifier!r} of lane {lane.key!r} "
                f"does not match plan structure {plan.identifiers[index]!r}"
            )
        codes[index] = _KIND_CODES[feedback.kind]
    return indices, codes


def _lane_result(
    plan: SweepPlan,
    active_indices: np.ndarray,
    final_values: np.ndarray,
    snapshots: Sequence[np.ndarray],
    statistics,
    iterations: int,
    converged: bool,
    final_change: float,
) -> EmbeddedResult:
    """Assemble one lane's :class:`EmbeddedResult` (shared by both engines).

    ``final_values`` and each history ``snapshot`` are already sliced to
    the lane's ``active_indices``.
    """
    names = [plan.mapping_names[i] for i in active_indices]
    return EmbeddedResult(
        posteriors=dict(zip(names, final_values.tolist())),
        iterations=iterations,
        converged=converged,
        final_change=final_change,
        history=[dict(zip(names, snapshot.tolist())) for snapshot in snapshots],
        messages_attempted=statistics.attempted,
        messages_delivered=statistics.delivered,
    )


def compile_assessment_plan(
    structures: Sequence[Tuple[str, Sequence[str]]],
    owners: Optional[TMapping[str, str]] = None,
) -> SweepPlan:
    """Compile ``(identifier, mapping names)`` structures into a plan.

    ``structures`` lists the network's cycles and parallel paths in the
    order :func:`repro.core.analysis.analyze_network` numbers them, so the
    per-attribute :class:`~repro.core.feedback.Feedback` evidence derived
    from the same structures aligns with the plan index for index.  A thin
    assessment-flavoured wrapper over
    :func:`repro.factorgraph.plan.compile_sweep_plan`: owners default to
    the mapping-name convention (:func:`~repro.core.local_graph.
    mapping_owner`) and structures keep the historical two-mapping floor.
    """
    return compile_sweep_plan(
        structures, owners=owners, min_mappings=2, default_owner=mapping_owner
    )


@dataclass(frozen=True)
class AssessmentLane:
    """One inference lane of the stacked engine.

    A lane binds an evidence subset to its priors, Δ and rng stream.  The
    multi-attribute assessor builds one lane per attribute over the full
    plan; the decentralised view builds one lane per origin over that
    origin's block of plan structures.

    Parameters
    ----------
    key:
        Result key of the lane (attribute name, origin peer, ...); must be
        unique within one engine.
    feedbacks:
        The lane's evidence, aligned index for index with
        ``structure_indices`` (neutral feedbacks included — they mask
        themselves out via all-ones factor tables).
    structure_indices:
        The plan structure indices ``feedbacks`` binds to, **strictly
        increasing** so the lane consumes its rng stream in the plan's
        transmission order (the order the sequential engine walks).
        ``None`` binds the full plan, index for index.
    priors:
        ``None`` (0.5 everywhere), a single float, or a ``{mapping name:
        prior}`` dict — whatever the sequential engine accepts.
    delta:
        Error-compensation probability Δ of the lane's factor tables.
        ``None`` means unspecified, which is an error only if the lane
        turns out to have informative evidence (mirroring the keyword
        constructor, which never required a Δ for all-neutral attributes).
    transport:
        Optional explicit :class:`MessageTransport`; when ``None`` the
        engine seeds a fresh one per lane (matching the sequential
        assessor's per-call transports).
    """

    key: str
    feedbacks: Tuple[Feedback, ...]
    structure_indices: Optional[Tuple[int, ...]] = None
    priors: object = None
    delta: Optional[float] = 0.1
    transport: Optional[MessageTransport] = None


class BatchedEmbeddedMessagePassing:
    """All-lane embedded message passing on one compiled plan.

    The keyword constructor is the multi-attribute entry point (one lane per
    attribute, full plan alignment); :meth:`from_lanes` is the general one
    (any evidence subsets, e.g. one lane per origin for the decentralised
    per-peer view).

    Parameters
    ----------
    plan:
        The compiled topology (shared across attributes and EM rounds).
    feedback_sets:
        Per attribute, the evidence of **every** plan structure, aligned
        index for index (neutral feedbacks included — they mask themselves
        out via all-ones factor tables).  Attributes without a single
        informative feedback yield ``None`` results, like the sequential
        assessor.
    priors:
        ``None`` / a single float applied everywhere, or a mapping keyed by
        *attribute* whose values are whatever the sequential engine accepts
        (float, ``{mapping name: prior}`` dict, or ``None``).
    deltas:
        Error-compensation probability Δ, a float or per-attribute mapping.
    send_probability / seed / transports:
        One freshly seeded :class:`MessageTransport` is created per
        attribute (matching the sequential assessor); pass ``transports`` to
        supply them explicitly.
    options:
        Iteration control, shared by all lanes.
    """

    def __init__(
        self,
        plan: SweepPlan,
        feedback_sets: TMapping[str, Sequence[Feedback]],
        priors: object = None,
        deltas: TMapping[str, float] | float = 0.1,
        send_probability: float = DEFAULT_SEND_PROBABILITY,
        seed: Optional[int] = DEFAULT_SEED,
        transports: Optional[TMapping[str, MessageTransport]] = None,
        options: Optional[EmbeddedOptions] = None,
    ) -> None:
        if isinstance(priors, PriorBeliefStore):
            raise FeedbackError(
                "pass per-attribute prior dicts, not a PriorBeliefStore"
            )
        if priors is not None and not isinstance(priors, (bool, int, float)):
            # The sequential engine takes a flat {mapping: prior} dict; this
            # engine needs one prior set *per attribute*.  Reading a flat
            # dict as attribute-keyed would silently degrade every prior to
            # the 0.5 default, so reject the shape explicitly.
            misread = [key for key in priors if key in plan.mapping_index]
            if misread:
                raise FeedbackError(
                    f"priors must be keyed by attribute, but "
                    f"{misread[0]!r} is a mapping name; pass "
                    f"{{attribute: {{mapping: prior}}}} instead"
                )
        lanes: List[AssessmentLane] = []
        for attribute, feedbacks in feedback_sets.items():
            per_attribute = priors
            if priors is not None and not isinstance(priors, (int, float)):
                per_attribute = priors.get(attribute)
            lanes.append(
                AssessmentLane(
                    key=attribute,
                    feedbacks=tuple(feedbacks),
                    structure_indices=None,
                    priors=per_attribute,
                    delta=self._resolve_delta(deltas, attribute),
                    transport=transports.get(attribute) if transports else None,
                )
            )
        self._setup(plan, lanes, send_probability, seed, options)

    @classmethod
    def from_lanes(
        cls,
        plan: SweepPlan,
        lanes: Sequence[AssessmentLane],
        send_probability: float = DEFAULT_SEND_PROBABILITY,
        seed: Optional[int] = DEFAULT_SEED,
        options: Optional[EmbeddedOptions] = None,
    ) -> "BatchedEmbeddedMessagePassing":
        """Build an engine from explicit lanes (evidence subsets).

        ``send_probability`` / ``seed`` configure the per-lane transports of
        lanes that do not carry an explicit one — each lane gets its own
        freshly seeded rng stream, exactly like the sequential assessor's
        per-call transports.
        """
        engine = object.__new__(cls)
        engine._setup(plan, list(lanes), send_probability, seed, options)
        return engine

    def _setup(
        self,
        plan: SweepPlan,
        lanes: List[AssessmentLane],
        send_probability: float,
        seed: Optional[int],
        options: Optional[EmbeddedOptions],
    ) -> None:
        self.plan = plan
        self.options = options or EmbeddedOptions()
        self.lane_keys: Tuple[str, ...] = tuple(lane.key for lane in lanes)
        #: Historical alias of :attr:`lane_keys` (attribute names when built
        #: through the keyword constructor).
        self.attributes = self.lane_keys
        if len(set(self.lane_keys)) != len(self.lane_keys):
            raise FeedbackError(
                f"duplicate lane keys: {sorted(self.lane_keys)}"
            )

        kinds: Dict[str, np.ndarray] = {}
        for lane in lanes:
            _, codes = _validated_lane_codes(plan, lane)
            kinds[lane.key] = codes

        # Live lanes: those with at least one informative structure.
        live_lanes = [
            lane for lane in lanes if (kinds[lane.key] != _KIND_NEUTRAL).any()
        ]
        self._lanes: Tuple[str, ...] = tuple(lane.key for lane in live_lanes)
        lane_count = len(live_lanes)
        self._kind_matrix = (
            np.stack([kinds[lane.key] for lane in live_lanes])
            if lane_count
            else np.zeros((0, plan.structure_count), dtype=np.int8)
        )

        self._deltas = np.asarray(
            [self._check_delta(lane.delta, lane.key) for lane in live_lanes],
            dtype=float,
        )
        self._priors = self._stack_priors([lane.priors for lane in live_lanes])
        self._transports = [
            lane.transport or MessageTransport(send_probability, seed=seed)
            for lane in live_lanes
        ]
        self._lossless = all(
            transport.send_probability >= 1.0 for transport in self._transports
        )

        # Per-lane informative transmissions (positions into the plan's
        # transmission list, in list order — the rng consumption order).
        informative_tx = (
            self._kind_matrix[:, plan.tx_feedback] != _KIND_NEUTRAL
            if plan.tx_feedback.size
            else np.zeros((lane_count, 0), dtype=bool)
        )
        self._lane_tx = [np.flatnonzero(row) for row in informative_tx]

        # Per-lane active mappings: constrained by ≥1 informative structure.
        self._active_indices: List[np.ndarray] = []
        for lane in range(lane_count):
            active = np.zeros(plan.mapping_count, dtype=bool)
            for si in np.flatnonzero(self._kind_matrix[lane] != _KIND_NEUTRAL):
                for name in plan.structure_mappings[si]:
                    active[plan.mapping_index[name]] = True
            self._active_indices.append(np.flatnonzero(active))

        # Stacked per-attribute factor tables, one kernel per arity bucket
        # (dense einsum below the count-kernel crossover, count space above).
        self._kernels: List[StackedFactorBatch | StackedCountFactorBatch] = []
        for batch in plan.batches:
            kind_b = self._kind_matrix[:, batch.feedback_indices]
            tables = _bucket_tables(kind_b, self._deltas[:, None], batch)
            self._kernels.append(_bucket_kernel(tables, batch))

        # Stacked message state, one lane per attribute.  The state arrays
        # only ever hold the *live* (not yet converged) lanes: when a lane
        # freezes it is compacted out (:meth:`_compact`), so finished
        # attributes stop contributing work to every phase.  ``_live`` maps
        # state rows back to lane indices.  The per-edge prior rows are
        # gathered once — phase 1 reuses them every round.
        self._live = np.arange(lane_count)
        self._prior_edges = self._priors[:, plan.edge_mapping]
        self._v2f = np.full((lane_count, plan.edge_count, 2), 0.5)
        self._f2v = np.full((lane_count, plan.edge_count, 2), 0.5)
        self._recv = np.full((lane_count, plan.recv_count, 2), 0.5)
        self._post = normalize_rows(
            self._priors * segment_products(self._f2v, plan.segment_starts)
        )
        self._final_post = self._post[:, :, 0].copy()

    # -- construction helpers ----------------------------------------------------------

    @staticmethod
    def _resolve_delta(deltas, attribute: str) -> Optional[float]:
        """The Δ spec of one attribute; ``None`` when the dict lacks it.

        A missing Δ only becomes an error if the lane turns out to have
        informative evidence (:meth:`_check_delta` in ``_setup``), matching
        the historical behaviour of resolving Δ for live lanes only.
        """
        if isinstance(deltas, (int, float)) and not isinstance(deltas, bool):
            return float(deltas)
        try:
            return float(deltas[attribute])
        except (KeyError, TypeError):
            return None

    @staticmethod
    def _check_delta(value: Optional[float], key: str) -> float:
        if value is None:
            raise FeedbackError(f"no Δ supplied for attribute {key!r}")
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise FeedbackError(f"Δ must be in [0, 1], got {value}")
        return value

    def _stack_priors(self, prior_specs: Sequence[object]) -> np.ndarray:
        """One clipped ``(lanes, mappings, 2)`` prior matrix from the live
        lanes' prior specs (``None`` / float / ``{mapping: prior}``)."""
        validate = EmbeddedMessagePassing._validate_prior
        correct = np.empty((len(prior_specs), self.plan.mapping_count))
        for lane, spec in enumerate(prior_specs):
            if spec is None:
                correct[lane] = 0.5
            elif isinstance(spec, (bool, int, float)):
                # bools are rejected by the shared validator, like the
                # sequential engine does.
                correct[lane] = validate(spec, "*")
            elif isinstance(spec, PriorBeliefStore):
                raise FeedbackError(
                    "pass per-lane prior dicts, not a PriorBeliefStore"
                )
            else:
                get = spec.get
                correct[lane] = [
                    validate(get(name, 0.5), name)
                    for name in self.plan.mapping_names
                ]
        return np.clip(
            np.stack((correct, 1.0 - correct), axis=-1), 1e-9, 1.0
        )

    # -- introspection ------------------------------------------------------------------

    @property
    def mapping_names(self) -> Tuple[str, ...]:
        return self.plan.mapping_names

    @property
    def lane_attributes(self) -> Tuple[str, ...]:
        """Attributes with informative evidence, in state-lane order."""
        return self._lanes

    def transport_for(self, attribute: str) -> MessageTransport:
        """The per-attribute transport (for statistics inspection)."""
        try:
            lane = self._lanes.index(attribute)
        except ValueError:
            known = ", ".join(self._lanes) or "<none>"
            raise FeedbackError(
                f"no transport for attribute {attribute!r} (only attributes "
                f"with informative evidence have one; known: {known})"
            ) from None
        return self._transports[lane]

    # -- the three phases, stacked ------------------------------------------------------

    def _run_round(self) -> None:
        """One full round over every live lane (no per-lane indexing).

        Phases 1 and 3 are the shared plan's; the transport exchange runs
        between them and the posterior snapshot stays engine-side.
        """
        plan = self.plan
        self._v2f = plan.variable_sweep(self._f2v, self._prior_edges)
        self._exchange()
        pool = plan.message_pool(self._v2f, self._recv)
        plan.factor_sweep(self._kernels, pool, self._f2v)
        # Posterior snapshot of the live lanes.
        products = segment_products(self._f2v, plan.segment_starts)
        self._post = normalize_rows(self._priors * products)

    def _exchange(self) -> None:
        plan = self.plan
        if plan.tx_src.size == 0:
            return
        if self._lossless:
            # Deliver everything in one stacked scatter; neutral cells are
            # only ever read by neutral (all-ones) factor sweeps.
            self._recv[:, plan.tx_dest] = self._v2f[:, plan.tx_src]
            for row, lane in enumerate(self._live):
                count = int(self._lane_tx[lane].size)
                if count:
                    self._transports[lane].statistics.record_many(count, count)
            return
        for row, lane in enumerate(self._live):
            positions = self._lane_tx[lane]
            if positions.size == 0:
                continue
            mask = self._transports[lane].send_mask(positions.size)
            if mask.all():
                delivered = positions
            elif mask.any():
                delivered = positions[mask]
            else:
                continue
            self._recv[row, plan.tx_dest[delivered]] = self._v2f[
                row, plan.tx_src[delivered]
            ]

    def _compact(self, keep: np.ndarray) -> None:
        """Drop frozen lanes from the live state (boolean ``keep`` mask)."""
        self._live = self._live[keep]
        self._v2f = self._v2f[keep]
        self._f2v = self._f2v[keep]
        self._recv = self._recv[keep]
        self._post = self._post[keep]
        self._priors = self._priors[keep]
        self._prior_edges = self._prior_edges[keep]
        self._kernels = [
            type(kernel)(kernel.tables[keep]) for kernel in self._kernels
        ]

    # -- public API ---------------------------------------------------------------------

    def run(self) -> Dict[str, Optional[EmbeddedResult]]:
        """Iterate all attributes to convergence; one result per attribute.

        Attributes without informative evidence map to ``None``.  Every
        other attribute receives an :class:`EmbeddedResult` equal (to
        floating-point accuracy) to what a sequential
        ``EmbeddedMessagePassing(...).run()`` over its informative feedback
        would return — iteration counts, convergence flags, histories and
        transport statistics included.
        """
        results: Dict[str, Optional[EmbeddedResult]] = {
            attribute: None for attribute in self.attributes
        }
        lane_count = len(self._lanes)
        if lane_count == 0:
            return results
        options = self.options
        quiet_needed = np.asarray(
            [
                required_quiet_rounds(transport.send_probability)
                for transport in self._transports
            ],
            dtype=np.int64,
        )
        converged = np.zeros(lane_count, dtype=bool)
        quiet = np.zeros(lane_count, dtype=np.int64)
        rounds = np.zeros(lane_count, dtype=np.int64)
        final_change = np.zeros(lane_count, dtype=float)
        histories: Optional[List[List[np.ndarray]]] = (
            [[] for _ in range(lane_count)] if options.record_history else None
        )
        for round_number in range(1, options.max_rounds + 1):
            live = self._live
            if live.size == 0:
                break
            # _run_round rebinds (never mutates) the posterior matrix, so
            # views of the previous round's beliefs stay valid snapshots.
            before = self._post[:, :, 0]
            self._run_round()
            after = self._post[:, :, 0]
            if after.shape[1]:
                change = np.abs(after - before).max(axis=1)
            else:
                change = np.zeros(live.size)
            rounds[live] = round_number
            final_change[live] = change
            if histories is not None:
                for row, lane in enumerate(live):
                    histories[lane].append(after[row])
            quiet[live] = np.where(change < options.tolerance, quiet[live] + 1, 0)
            done = quiet[live] >= quiet_needed[live]
            if done.any():
                finished = live[done]
                converged[finished] = True
                self._final_post[finished] = after[done]
                self._compact(~done)
        self._final_post[self._live] = self._post[:, :, 0]
        if options.strict and not converged.all():
            stuck = ", ".join(
                self._lanes[lane] for lane in np.flatnonzero(~converged)
            )
            raise ConvergenceError(
                f"batched embedded message passing did not converge within "
                f"{options.max_rounds} rounds for: {stuck}"
            )
        for lane, attribute in enumerate(self._lanes):
            indices = self._active_indices[lane]
            results[attribute] = _lane_result(
                self.plan,
                indices,
                self._final_post[lane, indices],
                [snapshot[indices] for snapshot in histories[lane]]
                if histories is not None
                else (),
                self._transports[lane].statistics,
                int(rounds[lane]),
                bool(converged[lane]),
                float(final_change[lane]),
            )
        return results


class BlockedEmbeddedMessagePassing:
    """Disjoint-lane embedded message passing packed into one shared state.

    :class:`BatchedEmbeddedMessagePassing` stacks L lanes on ``(L, edges,
    2)`` state, every lane spanning every plan structure — the right layout
    when lanes share structures (multi-attribute sweeps over one topology).
    The per-origin decentralised view of §4.5 is the opposite regime: each
    lane binds a *disjoint* block of structures over its own per-origin
    mapping instances, so stacked lanes would carry an L× dead weight of
    permanently-uniform rows.  This engine packs such disjoint lanes
    block-diagonally into one shared row space: per-round work covers the
    *sum* of the blocks — the per-origin sequential engines' combined
    problem size — in one fixed set of numpy calls, while each lane keeps
    its own rng stream, convergence counter, history and transport
    statistics, so every lane's result equals its sequential run bit for
    bit.  When a lane converges its result is snapshotted and its block —
    edge rows, received cells, transmissions and factor structures — is
    *compacted out* of the live state (:meth:`_compact_frozen`), so
    per-round work shrinks monotonically as origins freeze instead of every
    row riding the phase-1/3 sweeps until the last origin finishes.
    Because the blocks are disjoint, dropping a frozen block leaves the
    remaining lanes' sweeps bit-identical; :attr:`round_edge_counts`
    records the per-round row counts for inspection.

    Parameters
    ----------
    plan:
        A **block-diagonal** compiled plan: every mapping must appear only
        in the structures of a single lane's block (callers rename mapping
        instances per lane — e.g. ``"origin::mapping"`` — and pass explicit
        owners to :func:`compile_assessment_plan`).
    lanes:
        :class:`AssessmentLane` entries whose ``structure_indices`` are
        strictly increasing and pairwise disjoint across lanes.  Lane priors
        are read per mapping instance of the lane's block.
    send_probability / seed / options:
        As in :meth:`BatchedEmbeddedMessagePassing.from_lanes`.
    """

    def __init__(
        self,
        plan: SweepPlan,
        lanes: Sequence[AssessmentLane],
        send_probability: float = DEFAULT_SEND_PROBABILITY,
        seed: Optional[int] = DEFAULT_SEED,
        options: Optional[EmbeddedOptions] = None,
    ) -> None:
        self.plan = plan
        self.options = options or EmbeddedOptions()
        lanes = list(lanes)
        self.lane_keys: Tuple[str, ...] = tuple(lane.key for lane in lanes)
        if len(set(self.lane_keys)) != len(self.lane_keys):
            raise FeedbackError(f"duplicate lane keys: {sorted(self.lane_keys)}")
        lane_count = len(lanes)
        structure_count = plan.structure_count

        # Kind codes and the structure → lane assignment (disjoint blocks).
        structure_lane = np.full(structure_count, -1, dtype=np.int64)
        kind_codes = np.zeros(structure_count, dtype=np.int8)
        lane_indices: List[np.ndarray] = []
        for lane_id, lane in enumerate(lanes):
            indices, codes = _validated_lane_codes(plan, lane)
            if indices.size and (structure_lane[indices] != -1).any():
                raise FeedbackError(
                    f"lane {lane.key!r} overlaps another lane's structures; "
                    "the blocked engine needs disjoint blocks (use "
                    "BatchedEmbeddedMessagePassing.from_lanes for "
                    "overlapping lanes)"
                )
            structure_lane[indices] = lane_id
            kind_codes[indices] = codes[indices]
            lane_indices.append(indices)

        # Block-diagonality: no mapping instance may span two lanes (its
        # segment products would couple the blocks).
        mapping_lane = np.full(plan.mapping_count, -1, dtype=np.int64)
        for structure_index, names in enumerate(plan.structure_mappings):
            lane_id = structure_lane[structure_index]
            for name in names:
                mapping_id = plan.mapping_index[name]
                if mapping_lane[mapping_id] == -1:
                    mapping_lane[mapping_id] = lane_id
                elif mapping_lane[mapping_id] != lane_id:
                    raise FeedbackError(
                        f"mapping {name!r} appears in structures of two "
                        "lanes; the blocked engine needs a block-diagonal "
                        "plan (rename per-lane mapping instances)"
                    )
        self._mapping_lane = mapping_lane
        self._kind_codes = kind_codes

        # Live lanes (≥1 informative structure) — needed before Δ
        # resolution, which is only required for them.
        informative = kind_codes != _KIND_NEUTRAL
        self._lane_informative = np.asarray(
            [bool(informative[indices].any()) for indices in lane_indices],
            dtype=bool,
        )

        # Per-structure Δ (the owning lane's), per-mapping priors.
        lane_deltas = np.asarray(
            [
                BatchedEmbeddedMessagePassing._check_delta(lane.delta, lane.key)
                if self._lane_informative[lane_id]
                else 0.0
                for lane_id, lane in enumerate(lanes)
            ],
            dtype=float,
        )
        structure_delta = np.where(
            structure_lane >= 0, lane_deltas[structure_lane], 0.0
        ) if structure_count else np.zeros(0)
        validate = EmbeddedMessagePassing._validate_prior
        correct = np.full(plan.mapping_count, 0.5)
        for mapping_id, name in enumerate(plan.mapping_names):
            lane_id = mapping_lane[mapping_id]
            if lane_id < 0:
                continue
            spec = lanes[lane_id].priors
            if spec is None:
                continue
            if isinstance(spec, PriorBeliefStore):
                raise FeedbackError(
                    "pass per-lane prior dicts, not a PriorBeliefStore"
                )
            if isinstance(spec, (bool, int, float)):
                correct[mapping_id] = validate(spec, name)
            else:
                correct[mapping_id] = validate(spec.get(name, 0.5), name)
        self._priors = np.clip(
            np.stack((correct, 1.0 - correct), axis=-1), 1e-9, 1.0
        )

        self._transports = [
            lane.transport or MessageTransport(send_probability, seed=seed)
            for lane in lanes
        ]

        # Per-lane informative transmissions, in plan (= rng) order.
        if plan.tx_feedback.size:
            tx_lane = structure_lane[plan.tx_feedback]
            tx_informative = informative[plan.tx_feedback]
        else:
            tx_lane = np.zeros(0, dtype=np.int64)
            tx_informative = np.zeros(0, dtype=bool)
        self._lane_tx = [
            np.flatnonzero((tx_lane == lane_id) & tx_informative)
            for lane_id in range(lane_count)
        ]

        # Per-lane active mappings: constrained by ≥1 informative structure.
        self._active_indices: List[np.ndarray] = []
        for lane_id in range(lane_count):
            active = np.zeros(plan.mapping_count, dtype=bool)
            for structure_index in lane_indices[lane_id][
                informative[lane_indices[lane_id]]
            ]:
                for name in plan.structure_mappings[structure_index]:
                    active[plan.mapping_index[name]] = True
            self._active_indices.append(np.flatnonzero(active))

        # Per-structure factor tables, stacked with a unit lane axis so the
        # shared stacked kernels (dense einsum or count space) apply
        # unchanged.  Kernels and the per-bucket structure → lane ownership
        # ride beside the live plan; compaction rebuilds all three.
        self._kernels: List[StackedFactorBatch | StackedCountFactorBatch] = []
        self._bucket_lanes: List[np.ndarray] = []
        for batch in plan.batches:
            kind_b = kind_codes[batch.feedback_indices]
            tables = _bucket_tables(
                kind_b, structure_delta[batch.feedback_indices], batch
            )
            self._kernels.append(_bucket_kernel(tables[None], batch))
            self._bucket_lanes.append(structure_lane[batch.feedback_indices])

        # Shared block-diagonal state (unit lane axis).  ``_plan_live`` is
        # the *live* view of the compiled plan: initially the plan itself,
        # and _compact_frozen rebinds it (``dataclasses.replace``, never
        # mutation) to the still-running blocks as lanes converge.  Per-row
        # lane ownership (edges via their mapping, received cells via the
        # structure of the transmissions writing them, transmissions via
        # their structure) is what compaction keys on.
        self._plan_live: SweepPlan = plan
        self._edge_lane = (
            mapping_lane[plan.edge_mapping]
            if plan.edge_count
            else np.zeros(0, dtype=np.int64)
        )
        recv_lane = np.full(plan.recv_count, -1, dtype=np.int64)
        if plan.tx_feedback.size:
            recv_lane[plan.tx_dest] = structure_lane[plan.tx_feedback]
        self._recv_lane = recv_lane
        self._tx_lane = tx_lane
        self._tx_informative = tx_informative
        # The mapping id behind each posterior row (the live plan's segment
        # owners) and their prior rows.
        self._post_priors = self._priors[plan.segment_mapping]
        #: Current posterior row of each lane's active mappings (equal to
        #: ``_active_indices`` until a compaction renumbers the rows).
        self._active_rows: List[np.ndarray] = list(self._active_indices)
        #: Lanes whose blocks have been compacted out of the live view.
        self._lane_compacted = np.zeros(lane_count, dtype=bool)
        #: Edge rows swept in each round — the per-round work trajectory the
        #: compaction exists to shrink (strictly decreasing whenever an
        #: origin froze in the previous round).
        self.round_edge_counts: List[int] = []

        self._prior_edges = self._priors[plan.edge_mapping][None]
        self._v2f = np.full((1, plan.edge_count, 2), 0.5)
        self._f2v = np.full((1, plan.edge_count, 2), 0.5)
        self._recv = np.full((1, plan.recv_count, 2), 0.5)
        self._post = normalize_rows(
            self._priors[None] * segment_products(self._f2v, plan.segment_starts)
        )

    # -- introspection ------------------------------------------------------------------

    @property
    def mapping_names(self) -> Tuple[str, ...]:
        return self.plan.mapping_names

    def transport_for(self, key: str) -> MessageTransport:
        """The per-lane transport (for statistics inspection)."""
        try:
            lane_id = self.lane_keys.index(key)
        except ValueError:
            known = ", ".join(self.lane_keys) or "<none>"
            raise FeedbackError(
                f"no transport for lane {key!r} (known: {known})"
            ) from None
        return self._transports[lane_id]

    # -- the three phases over the shared state -----------------------------------------

    def _run_round(self, sending: Sequence[int]) -> None:
        """One full round over the live view; ``sending`` lists the lane ids
        still exchanging."""
        plan = self._plan_live
        self.round_edge_counts.append(int(plan.edge_count))
        self._v2f = plan.variable_sweep(self._f2v, self._prior_edges)
        self._exchange(sending)
        pool = plan.message_pool(self._v2f, self._recv)
        plan.factor_sweep(self._kernels, pool, self._f2v)
        self._post = normalize_rows(
            self._post_priors[None]
            * segment_products(self._f2v, plan.segment_starts)
        )

    def _exchange(self, sending: Sequence[int]) -> None:
        tx_src = self._plan_live.tx_src
        tx_dest = self._plan_live.tx_dest
        for lane_id in sending:
            positions = self._lane_tx[lane_id]
            if positions.size == 0:
                continue
            transport = self._transports[lane_id]
            if transport.send_probability >= 1.0:
                self._recv[0, tx_dest[positions]] = self._v2f[
                    0, tx_src[positions]
                ]
                transport.statistics.record_many(
                    int(positions.size), int(positions.size)
                )
                continue
            mask = transport.send_mask(positions.size)
            if mask.all():
                delivered = positions
            elif mask.any():
                delivered = positions[mask]
            else:
                continue
            self._recv[0, tx_dest[delivered]] = self._v2f[
                0, tx_src[delivered]
            ]

    def _compact_frozen(self, frozen: Sequence[int]) -> None:
        """Drop the rows and structures of ``frozen`` lanes from the live view.

        The blocks are disjoint, so removing a frozen lane's edge rows,
        received cells, transmissions and factor structures leaves every
        remaining lane's segment products and kernel sweeps operating on
        exactly the same values as before — results are bit-identical —
        while per-round work shrinks to the surviving blocks.  Only the live
        view is rebound; the compiled plan is shared and never touched.
        """
        lane_count = len(self.lane_keys)
        dead = np.zeros(lane_count, dtype=bool)
        dead[np.asarray(list(frozen), dtype=np.int64)] = True
        self._lane_compacted |= dead

        def keep_rows(lane_of: np.ndarray) -> np.ndarray:
            # Rows outside every lane (lane id -1, possible when the lanes
            # cover only part of the plan) belong to no block and are kept.
            keep = np.ones(lane_of.size, dtype=bool)
            in_lane = lane_of >= 0
            keep[in_lane] = ~dead[lane_of[in_lane]]
            return keep

        old = self._plan_live
        old_edge_count = old.edge_count
        keep_edges = keep_rows(self._edge_lane)
        keep_recv = keep_rows(self._recv_lane)
        edge_renumber = np.cumsum(keep_edges) - 1
        recv_renumber = np.cumsum(keep_recv) - 1
        new_edge_count = int(keep_edges.sum())

        def remap_pool(ids: np.ndarray) -> np.ndarray:
            remapped = np.empty_like(ids)
            is_edge = ids < old_edge_count
            remapped[is_edge] = edge_renumber[ids[is_edge]]
            remapped[~is_edge] = new_edge_count + recv_renumber[
                ids[~is_edge] - old_edge_count
            ]
            return remapped

        batches: List[BucketPlan] = []
        kernels: List[StackedFactorBatch | StackedCountFactorBatch] = []
        bucket_lanes: List[np.ndarray] = []
        for bucket, kernel, lanes in zip(
            old.batches, self._kernels, self._bucket_lanes
        ):
            keep = keep_rows(lanes)
            if not keep.any():
                continue
            gather = [
                [
                    None if ids is None else remap_pool(ids[keep])
                    for ids in per_target
                ]
                for per_target in bucket.gather
            ]
            scatter = [edge_renumber[rows[keep]] for rows in bucket.scatter]
            batches.append(
                make_bucket(
                    bucket.arity,
                    bucket.feedback_indices[keep],
                    gather,
                    scatter,
                    bucket.use_count_kernel,
                    incorrect_counts=bucket.incorrect_counts,
                )
            )
            kernels.append(type(kernel)(kernel.tables[:, keep]))
            bucket_lanes.append(lanes[keep])
        self._kernels = kernels
        self._bucket_lanes = bucket_lanes

        self._v2f = self._v2f[:, keep_edges]
        self._f2v = self._f2v[:, keep_edges]
        self._recv = self._recv[:, keep_recv]
        self._prior_edges = self._prior_edges[:, keep_edges]
        self._edge_lane = self._edge_lane[keep_edges]
        self._recv_lane = self._recv_lane[keep_recv]
        edge_mapping = old.edge_mapping[keep_edges]
        starts, seg_of_edge, seg_ids = segment_plan(edge_mapping)
        self._post_priors = self._priors[seg_ids]

        keep_tx = keep_rows(self._tx_lane)
        self._plan_live = replace(
            old,
            edge_mapping=edge_mapping,
            edge_structure=old.edge_structure[keep_edges],
            segment_starts=starts,
            segment_of_edge=seg_of_edge,
            segment_mapping=seg_ids,
            edge_count=new_edge_count,
            recv_count=int(keep_recv.sum()),
            recv_cells=tuple(
                cell for cell, kept in zip(old.recv_cells, keep_recv) if kept
            ),
            tx_src=edge_renumber[old.tx_src[keep_tx]],
            tx_dest=recv_renumber[old.tx_dest[keep_tx]],
            tx_feedback=old.tx_feedback[keep_tx],
            tx_mapping=old.tx_mapping[keep_tx],
            batches=tuple(batches),
        )

        mapping_row = np.full(self.plan.mapping_count, -1, dtype=np.int64)
        mapping_row[seg_ids] = np.arange(seg_ids.size)
        self._active_rows = [
            np.empty(0, dtype=np.int64)
            if self._lane_compacted[lane_id] or not self._lane_informative[lane_id]
            else mapping_row[self._active_indices[lane_id]]
            for lane_id in range(lane_count)
        ]

        self._tx_lane = self._tx_lane[keep_tx]
        self._tx_informative = self._tx_informative[keep_tx]
        self._lane_tx = [
            np.flatnonzero((self._tx_lane == lane_id) & self._tx_informative)
            for lane_id in range(lane_count)
        ]

        # Re-derive the posterior snapshot over the compacted segments; the
        # surviving rows carry exactly the values they had before.
        self._post = normalize_rows(
            self._post_priors[None]
            * segment_products(self._f2v, starts)
        )

    # -- public API ---------------------------------------------------------------------

    def run(self) -> Dict[str, Optional[EmbeddedResult]]:
        """Iterate all lanes to their own convergence; one result per lane.

        Lanes without informative evidence map to ``None``.  Every other
        lane receives an :class:`EmbeddedResult` equal to what a sequential
        ``EmbeddedMessagePassing(...).run()`` over its informative feedback
        would return — iteration counts, convergence flags, histories and
        transport statistics included.  Because the blocks are disjoint, a
        frozen lane's block simply stops exchanging messages; its result is
        the snapshot taken the round it converged.
        """
        results: Dict[str, Optional[EmbeddedResult]] = {
            key: None for key in self.lane_keys
        }
        lane_count = len(self.lane_keys)
        live = [
            lane_id
            for lane_id in range(lane_count)
            if self._lane_informative[lane_id]
        ]
        if not live:
            return results
        # Lanes without informative evidence never run a round; their rows
        # are dead weight from the start, so compact them out immediately.
        idle = [
            lane_id
            for lane_id in range(lane_count)
            if not self._lane_informative[lane_id]
        ]
        if idle:
            self._compact_frozen(idle)
        options = self.options
        quiet_needed = np.asarray(
            [
                required_quiet_rounds(transport.send_probability)
                for transport in self._transports
            ],
            dtype=np.int64,
        )
        converged = np.zeros(lane_count, dtype=bool)
        quiet = np.zeros(lane_count, dtype=np.int64)
        rounds = np.zeros(lane_count, dtype=np.int64)
        final_change = np.zeros(lane_count, dtype=float)
        histories: Optional[List[List[np.ndarray]]] = (
            [[] for _ in range(lane_count)] if options.record_history else None
        )
        final_post = self._priors[:, 0].copy()
        for round_number in range(1, options.max_rounds + 1):
            if not live:
                break
            before = self._post[0, :, 0]
            self._run_round(live)
            after = self._post[0, :, 0]
            still_live: List[int] = []
            frozen_now: List[int] = []
            for lane_id in live:
                rows = self._active_rows[lane_id]
                change = (
                    float(np.abs(after[rows] - before[rows]).max())
                    if rows.size
                    else 0.0
                )
                rounds[lane_id] = round_number
                final_change[lane_id] = change
                if histories is not None:
                    histories[lane_id].append(after[rows])
                quiet[lane_id] = quiet[lane_id] + 1 if change < options.tolerance else 0
                if quiet[lane_id] >= quiet_needed[lane_id]:
                    converged[lane_id] = True
                    final_post[self._active_indices[lane_id]] = after[rows]
                    frozen_now.append(lane_id)
                else:
                    still_live.append(lane_id)
            live = still_live
            if frozen_now and live:
                self._compact_frozen(frozen_now)
        for lane_id in live:
            final_post[self._active_indices[lane_id]] = self._post[
                0, self._active_rows[lane_id], 0
            ]
        if options.strict and not converged[self._lane_informative].all():
            stuck = ", ".join(
                self.lane_keys[lane_id]
                for lane_id in np.flatnonzero(
                    self._lane_informative & ~converged
                )
            )
            raise ConvergenceError(
                f"blocked embedded message passing did not converge within "
                f"{options.max_rounds} rounds for: {stuck}"
            )
        for lane_id, key in enumerate(self.lane_keys):
            if not self._lane_informative[lane_id]:
                continue
            indices = self._active_indices[lane_id]
            results[key] = _lane_result(
                self.plan,
                indices,
                final_post[indices],
                histories[lane_id] if histories is not None else (),
                self._transports[lane_id].statistics,
                int(rounds[lane_id]),
                bool(converged[lane_id]),
                float(final_change[lane_id]),
            )
        return results
