"""Embedded, decentralised message passing (the paper's §4).

Every peer owns the correctness variables of its outgoing mappings, keeps a
replica of each feedback factor its mappings participate in, and exchanges
*remote messages* with the other peers involved in those feedbacks.  One
"iteration" (a round) corresponds to every peer

1. computing its variable→factor messages from its prior and the current
   factor→variable messages,
2. sending each of those messages to the other peers holding a replica of
   the same feedback factor (each transmission succeeding with probability
   ``send_probability`` — the fault-tolerance experiment of Figure 11), and
3. recomputing its factor→variable messages and mapping posteriors from the
   factor replicas, its own fresh messages and the last *received* remote
   messages (initially the unit message, as prescribed in §4.3).

Because every factor replica applies the same sum–product update as the
corresponding factor of the global graph, the fixed points coincide with
those of centralised loopy BP — which is what the tests verify.

State layout and backends
-------------------------
The engine keeps its message state in three stacked ``(rows, 2)`` matrices:

* ``_v2f_mat`` / ``_f2v_mat`` — one row per directed *owner edge*
  ``(mapping, feedback)``, grouped contiguously by mapping so phase 1 is a
  single zero-aware segment product
  (:func:`~repro.factorgraph.plan.segment_exclusive_products`) over the
  factor→variable matrix, and posteriors are one inclusive segment product.
* ``_recv_mat`` — one row per *received cell* ``(peer, feedback, remote
  mapping)``, the last remote message a peer received for a replica.

That layout is no longer derived per engine: construction lowers the
feedback list to a shared :class:`~repro.factorgraph.plan.SweepPlan`
(:func:`~repro.factorgraph.plan.compile_sweep_plan`), the plan IR capturing
once the edge row space, segment index plans, transmission list
(``tx_src`` → ``tx_dest`` index arrays) and arity-bucketed kernel batches,
and phases 1 and 3 of a round are the plan's own
(:meth:`~repro.factorgraph.plan.SweepPlan.variable_sweep` /
:meth:`~repro.factorgraph.plan.SweepPlan.factor_sweep`): phase 2 is one
vectorized Bernoulli mask over the plan's transmission list; phase 3
gathers each bucket's operands by fancy indexing into the concatenated
message pool and scatters the fresh factor→variable rows back by edge id.
The historical dict-of-dicts state survives behind ``backend="dicts"`` as
the loop reference the parity tests and the throughput benchmark compare
against;
the array backend exposes the same ``_f2v`` / ``_v2f`` / ``_received``
attributes as thin read-only dict views over the matrices, so introspection
code works against either backend.

The Bernoulli keep/send decisions are drawn from the transport's single
``random.Random`` stream in transmission order by both backends
(:meth:`MessageTransport.send_mask` versus repeated
:meth:`MessageTransport.try_send`), so lossy runs with a shared seed make
identical drop decisions and stay reproducible across backends.

Plan lowerings
--------------
Every array-state execution of the decentralised algorithm differs only in
*how the structures are lowered* to a
:class:`~repro.factorgraph.plan.SweepPlan`; the plan's round phases are
shared, so all lowerings agree on posteriors to floating-point accuracy
under shared seeds (the per-message ``backend="dicts"`` state sits beside
them as the loop reference everything is compared against).

The layering, determinism and process-safety invariants these lowerings
rest on — engines import kernels from the plan surface only, discovery flows
through probe plans, rng streams are explicitly seeded, wire payloads are
registered picklable types — are stated normatively in ``ARCHITECTURE.md``
at the repository root and enforced mechanically by ``repro-lint``
(:mod:`repro.lintkit`).

Lowering axis — who calls
:func:`~repro.factorgraph.plan.compile_sweep_plan` and with what row space:

=============================  ========================================
lowering                       plan shape / selected when
=============================  ========================================
``EmbeddedMessagePassing``     Lowers its single feedback list with
(``backend="arrays"``)         ``min_mappings=1``; one ``(edges, 2)``
                               matrix per state.  The per-call
                               reference path (``assess_attribute``,
                               ``assess_local``), schedules and
                               one-engine experiments.
``BatchedEmbeddedMessage-      Lowers the assessor's structure
Passing``                      signatures once
(:mod:`repro.core.batched`)    (``compile_assessment_plan``) and stacks
                               ``(lanes, edges, 2)`` matrices over the
                               shared plan — one lane per attribute
                               (``from_lanes`` binds arbitrary evidence
                               subsets).  Runs every multi-attribute
                               assessor sweep and EM round.
``BlockedEmbeddedMessage-      Same assessment-plan lowering over
Passing``                      *disjoint* per-origin structure blocks
(:mod:`repro.core.batched`)    packed into one shared row space
                               (``assess_locals`` /
                               ``assess_local_all``); frozen origins'
                               blocks are compacted out of the live
                               plan, so per-round work *shrinks* as
                               lanes converge.
``CompiledFactorGraph``        Lowers a centralised
(:mod:`repro.factorgraph`)     :class:`~repro.factorgraph.graph.FactorGraph`
                               (``lower_factor_graph``) for the
                               vectorized sum-product backend — same IR,
                               factor-major edge rows.
=============================  ========================================

Probe-executor row — one layer *up*: the structures every lowering
consumes are themselves discovered by a
:class:`~repro.pdms.discovery.ProbePlan` frontier run through a pluggable
discovery executor (``probe_executor=`` on the assessor and both structure
caches, defaulting to :data:`repro.constants.DEFAULT_PROBE_EXECUTOR`, i.e.
the ``REPRO_PROBE_EXECUTOR`` environment variable): ``"serial"`` walks the
frontier in-process, ``"process"`` shards it by origin over a
``multiprocessing`` pool and merges canonically.  Both yield identical
structure lists, so the lowerings above are completely independent of the
probe executor — any lowering × probe executor combination agrees.

Resilience row — chaos changes no result: under a deterministic
:class:`~repro.reliability.FaultPlan` (``fault_plan=`` on the assessor and
both structure caches, or ``REPRO_FAULT_PLAN`` process-wide) the
``"process"`` probe row upgrades to the retrying
:class:`~repro.reliability.ResilientDiscoveryExecutor` — per-shard
deadlines, bounded seeded-backoff retries, checksum-verified wire
payloads, per-shard serial quarantine fallback.  Merged structures and
posteriors stay bit-identical to the fault-free serial run; what was
injected, retried and quarantined is counted by
:class:`~repro.reliability.ReliabilityStatistics`.

The *kernel crossover rule* is stated once, in the plan IR, and applied by
every lowering: a feedback factor with ``arity >=``
:data:`repro.constants.COUNT_KERNEL_MIN_ARITY` mappings is represented as a
count-space :class:`~repro.factorgraph.factors.CountFactor` replica and its
bucket evaluated by ``CountFactorBatch`` / ``StackedCountFactorBatch`` from
the ``arity + 1`` count-value vector in O(arity) per message — which lets
every engine (and the loop references, via ``CountFactor.message_to``) run
structures far beyond the dense limit of
:data:`repro.constants.MAX_COMPILED_ARITY` slots with O(arity) factor
memory; below the crossover the dense ``FactorBatch`` /
``StackedFactorBatch`` einsum over ``(2,)**arity`` tables wins (tiny
tables, one einsum per sweep — fastest for short cycles).

Rng-stream reproducibility contract: every engine consumes its transport's
``random.Random`` uniforms in the same transmission order (structure →
sender mapping → recipient), drawing *only* for informative transmissions.
The batched engines keep one independently seeded stream per lane — exactly
the fresh per-call transport the sequential assessor builds per attribute
(global sweeps) or per origin (local sweeps); per-origin lanes additionally
keep each origin's own structure enumeration order and cycle orientation —
so for a shared seed every lowering makes identical drop decisions, lane
for lane, and lossy posteriors match bit for bit in practice (the plan's
phases never touch the rng — the exchange phase stays on the engine).

Plan-IR equivalence contract
----------------------------
The factor→variable sweep of every round is routed through the kernels
re-exported by :mod:`repro.factorgraph.plan` — the same batched
:class:`~repro.factorgraph.plan.FactorBatch` einsum / count-space kernels
that power the vectorized
:class:`~repro.factorgraph.sum_product.SumProduct` backend: the
feedback-factor replicas are grouped into arity buckets once at lowering
and each round evaluates a bucket's messages in one fused kernel call.
The kernels evaluate exactly the sum–product expression the scalar
:meth:`repro.factorgraph.factors.Factor.message_to` evaluates, so
posteriors agree with the loop formulation to floating-point accuracy.
Convergence defaults (tolerance, round cap, seeding) are shared with the
centralised engine through :mod:`repro.constants`.
"""

from __future__ import annotations

import random
from collections.abc import Mapping as ABCMapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping as TMapping, Optional, Sequence, Tuple

import numpy as np

from ..constants import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_SEED,
    DEFAULT_SEND_PROBABILITY,
    DEFAULT_TOLERANCE,
)
from ..exceptions import ConvergenceError, FeedbackError
from ..factorgraph.plan import (
    CountFactorBatch,
    FactorBatch,
    SweepPlan,
    compile_sweep_plan,
    normalize_rows,
    segment_products,
)
from ..factorgraph.factors import CountFactor, Factor
from ..factorgraph.messages import normalize, unit_message
from ..factorgraph.variables import BinaryVariable
from .beliefs import PriorBeliefStore
from .feedback import Feedback, feedback_factor
from .local_graph import LocalFactorGraph, build_local_graphs, mapping_owner
from .pdms_factor_graph import variable_name_for

__all__ = [
    "STATE_ARRAYS",
    "STATE_DICTS",
    "MessageTransport",
    "TransportStatistics",
    "EmbeddedOptions",
    "EmbeddedResult",
    "EmbeddedMessagePassing",
    "required_quiet_rounds",
]


def required_quiet_rounds(send_probability: float) -> int:
    """Consecutive sub-tolerance rounds needed to declare convergence.

    Under message loss a single quiet round may simply mean the informative
    messages were dropped, so the count grows inversely with the transport's
    send probability.  Shared by :meth:`EmbeddedMessagePassing.run` and the
    schedules so every stopping rule stays in sync.
    """
    if send_probability >= 1.0:
        return 1
    return max(2, int(round(2.0 / send_probability)))

#: Vectorized array state (default): stacked message matrices + index plans.
STATE_ARRAYS = "arrays"

#: Historical dict-of-dicts state, kept as the loop reference for parity
#: tests and the embedded throughput benchmark.
STATE_DICTS = "dicts"


@dataclass
class TransportStatistics:
    """Counts of remote messages attempted, delivered and dropped."""

    attempted: int = 0
    delivered: int = 0
    dropped: int = 0

    def record(self, delivered: bool) -> None:
        self.attempted += 1
        if delivered:
            self.delivered += 1
        else:
            self.dropped += 1

    def record_many(self, attempted: int, delivered: int) -> None:
        """Record a whole batch of attempts at once.

        ``attempted=0`` is a valid no-op (an idle round of a quiet lane);
        negative counts or ``delivered > attempted`` would corrupt the
        tallies (and could drive :attr:`delivery_rate` outside [0, 1] or
        into a division by zero), so they are rejected.
        """
        if attempted < 0 or delivered < 0 or delivered > attempted:
            raise FeedbackError(
                f"invalid transport batch: attempted={attempted}, "
                f"delivered={delivered}"
            )
        if attempted == 0:
            return
        self.attempted += attempted
        self.delivered += delivered
        self.dropped += attempted - delivered

    @property
    def delivery_rate(self) -> float:
        """Fraction of attempted messages delivered (1.0 before any attempt)."""
        if self.attempted == 0:
            return 1.0
        return self.delivered / self.attempted


class MessageTransport:
    """Unreliable transport between peers.

    Each remote message is delivered independently with probability
    ``send_probability``; dropped messages simply leave the recipient's last
    received value in place, which the algorithm tolerates by design
    (§4.3.2, Figure 11).

    ``seed`` defaults to :data:`repro.constants.DEFAULT_SEED` so lossy runs
    are reproducible unless an explicit seed is supplied (matching the
    centralised engine's fallback rng; pass a distinct seed per repetition
    for independent runs).
    """

    def __init__(
        self,
        send_probability: float = DEFAULT_SEND_PROBABILITY,
        seed: Optional[int] = DEFAULT_SEED,
    ) -> None:
        if not 0.0 < send_probability <= 1.0:
            raise FeedbackError(
                f"send_probability must be in (0, 1], got {send_probability}"
            )
        self.send_probability = send_probability
        self._rng = random.Random(seed)
        self.statistics = TransportStatistics()

    def try_send(self) -> bool:
        """Decide whether one message makes it through; update statistics."""
        delivered = (
            self.send_probability >= 1.0
            or self._rng.random() < self.send_probability
        )
        self.statistics.record(delivered)
        return delivered

    def send_mask(self, count: int) -> np.ndarray:
        """Vectorized equivalent of ``count`` consecutive :meth:`try_send`.

        The uniforms are drawn from the same ``random.Random`` stream in the
        same order as the scalar calls (and, like them, a perfectly reliable
        transport draws nothing), so the dict and array backends make
        identical drop decisions under a shared seed.
        """
        if count <= 0:
            return np.zeros(0, dtype=bool)
        if self.send_probability >= 1.0:
            mask = np.ones(count, dtype=bool)
        else:
            uniforms = np.fromiter(
                (self._rng.random() for _ in range(count)),
                dtype=float,
                count=count,
            )
            mask = uniforms < self.send_probability
        self.statistics.record_many(count, int(mask.sum()))
        return mask


@dataclass(frozen=True)
class EmbeddedOptions:
    """Tuning knobs of the embedded message-passing run.

    The defaults are shared with the centralised engine's
    :class:`~repro.factorgraph.sum_product.SumProductOptions` through
    :mod:`repro.constants`, so both formulations stop under the same rule.
    """

    max_rounds: int = DEFAULT_MAX_ITERATIONS
    tolerance: float = DEFAULT_TOLERANCE
    record_history: bool = True
    strict: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise FeedbackError("max_rounds must be >= 1")
        if self.tolerance <= 0:
            raise FeedbackError("tolerance must be positive")


@dataclass
class EmbeddedResult:
    """Outcome of an embedded message-passing run."""

    posteriors: Dict[str, float]
    iterations: int
    converged: bool
    final_change: float
    history: List[Dict[str, float]] = field(default_factory=list)
    messages_attempted: int = 0
    messages_delivered: int = 0

    def _require_known(self, mapping_name: str) -> None:
        if mapping_name not in self.posteriors:
            known = ", ".join(sorted(self.posteriors)) or "<none>"
            raise FeedbackError(
                f"unknown mapping {mapping_name!r} in embedded result; "
                f"known mappings: {known}"
            )

    def probability_correct(self, mapping_name: str) -> float:
        """Posterior P(mapping correct) for the run's attribute."""
        self._require_known(mapping_name)
        return self.posteriors[mapping_name]

    def history_of(self, mapping_name: str) -> List[float]:
        """Per-round posterior trajectory of one mapping."""
        self._require_known(mapping_name)
        return [snapshot[mapping_name] for snapshot in self.history]


class _MessageRowView(ABCMapping):
    """Read-only dict-like view over rows of a stacked message matrix.

    The matrix attribute is resolved on the owning engine at access time, so
    the view stays valid when a round replaces the whole matrix.
    """

    __slots__ = ("_engine", "_attribute", "_rows")

    def __init__(self, engine: "EmbeddedMessagePassing", attribute: str, rows: Dict) -> None:
        self._engine = engine
        self._attribute = attribute
        self._rows = rows

    def __getitem__(self, key) -> np.ndarray:
        return getattr(self._engine, self._attribute)[self._rows[key]]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_MessageRowView({dict(self)!r})"


class EmbeddedMessagePassing:
    """Decentralised sum–product over per-peer local factor graphs.

    Parameters
    ----------
    feedbacks:
        Informative feedback evidence (all for the same attribute).
    priors:
        Prior beliefs (store, dict by mapping name, single float, or None
        for the 0.5 default).
    delta:
        Error-compensation probability Δ used in all feedback factors.
    transport:
        Unreliable message transport; defaults to a perfectly reliable one.
    options:
        Iteration control.
    owners:
        Optional explicit mapping→peer ownership (defaults to each mapping's
        source peer).
    backend:
        ``"arrays"`` (default) lowers the feedback structures to a shared
        :class:`~repro.factorgraph.plan.SweepPlan` and runs the plan's
        round phases; ``"dicts"`` keeps the historical per-message dict
        state as the loop reference.  Both produce posteriors matching to
        floating-point accuracy under identical transport seeds.
    """

    def __init__(
        self,
        feedbacks: Iterable[Feedback],
        priors: PriorBeliefStore | TMapping[str, float] | float | None = None,
        delta: float = 0.1,
        transport: Optional[MessageTransport] = None,
        options: Optional[EmbeddedOptions] = None,
        owners: Optional[TMapping[str, str]] = None,
        backend: str = STATE_ARRAYS,
    ) -> None:
        if backend not in (STATE_ARRAYS, STATE_DICTS):
            raise FeedbackError(
                f"unknown embedded state backend {backend!r}; "
                f"expected {STATE_ARRAYS!r} or {STATE_DICTS!r}"
            )
        self.backend = backend
        self.options = options or EmbeddedOptions()
        self.transport = transport or MessageTransport()
        self.delta = delta
        self._feedbacks: List[Feedback] = [f for f in feedbacks if f.is_informative]
        if not self._feedbacks:
            raise FeedbackError("embedded message passing needs informative feedback")
        self.attribute = self._feedbacks[0].attribute
        self.local_graphs: Dict[str, LocalFactorGraph] = build_local_graphs(
            self._feedbacks, attribute=self.attribute, owners=owners
        )
        self._owners: Dict[str, str] = {}
        for peer, fragment in self.local_graphs.items():
            for mapping_name in fragment.owned_mappings:
                self._owners[mapping_name] = peer

        # Priors, stacked as one (mappings, 2) matrix of
        # [P(correct), P(incorrect)] rows; ``_prior_vectors`` keeps the
        # historical per-mapping dict view (rows of the matrix).
        self._mapping_list: List[str] = list(self._owners)
        self._mapping_index: Dict[str, int] = {
            name: index for index, name in enumerate(self._mapping_list)
        }
        prior_rows = []
        for mapping_name in self._mapping_list:
            prior = self._resolve_prior(priors, mapping_name)
            prior_rows.append(np.clip(np.array([prior, 1.0 - prior]), 1e-9, 1.0))
        self._prior_matrix = np.stack(prior_rows)
        self._prior_vectors: Dict[str, np.ndarray] = {
            name: self._prior_matrix[index]
            for index, name in enumerate(self._mapping_list)
        }

        # One factor object per feedback (shared by all replicas; the factor
        # table is identical everywhere so sharing is purely an optimisation).
        self._factors: Dict[str, Factor] = {}
        self._feedback_by_id: Dict[str, Feedback] = {}
        for feedback in self._feedbacks:
            variables = [
                BinaryVariable(variable_name_for(m, self.attribute))
                for m in feedback.mapping_names
            ]
            self._factors[feedback.identifier] = feedback_factor(
                feedback, delta, variables
            )
            self._feedback_by_id[feedback.identifier] = feedback

        if backend == STATE_DICTS:
            self._init_dict_state()
            self._compile_dict_batches()
        else:
            self._init_array_state()
            self._compile_array_batches()

    # -- state construction ------------------------------------------------------------

    def _init_dict_state(self) -> None:
        """Historical per-message dict state (the ``"dicts"`` backend).

        ``_f2v[mapping][feedback_id]`` holds the factor→variable messages at
        the variable's owner, ``_v2f[mapping][feedback_id]`` the fresh
        variable→factor messages, and ``_received[peer][(feedback_id,
        mapping)]`` the last remote message a peer received for a replica.
        """
        self._f2v: Dict[str, Dict[str, np.ndarray]] = {}
        self._v2f: Dict[str, Dict[str, np.ndarray]] = {}
        for mapping_name, owner in self._owners.items():
            fragment = self.local_graphs[owner]
            feedback_ids = [
                f.identifier for f in fragment.feedbacks_for(mapping_name)
            ]
            self._f2v[mapping_name] = {fid: unit_message(2) for fid in feedback_ids}
            self._v2f[mapping_name] = {fid: unit_message(2) for fid in feedback_ids}
        self._received: Dict[str, Dict[Tuple[str, str], np.ndarray]] = {}
        for peer, fragment in self.local_graphs.items():
            incoming: Dict[Tuple[str, str], np.ndarray] = {}
            for feedback in fragment.feedbacks:
                for mapping_name in feedback.mapping_names:
                    if self._owners.get(mapping_name) == peer:
                        continue
                    incoming[(feedback.identifier, mapping_name)] = unit_message(2)
            self._received[peer] = incoming

    def _init_array_state(self) -> None:
        """Stacked array state (the ``"arrays"`` backend) plus dict views.

        The layout is no longer hand-rolled: the feedback structures lower
        to a shared :class:`~repro.factorgraph.plan.SweepPlan` (edges
        grouped by mapping, received cells, transmission list in the
        sequential rng order, arity buckets) and the engine keeps only the
        name-keyed views over the plan's row space.
        """
        # Every (mapping, feedback) pair of a feedback must be replicated
        # in the mapping owner's local graph; a miss means the ownership
        # routing and the fragments disagree (a caller bug the lowering
        # cannot detect because it derives edges from the feedbacks alone).
        for feedback in self._feedbacks:
            for mapping_name in feedback.mapping_names:
                fragment = self.local_graphs[self._owners[mapping_name]]
                if all(
                    f.identifier != feedback.identifier
                    for f in fragment.feedbacks_for(mapping_name)
                ):
                    raise FeedbackError(
                        f"feedback {feedback.identifier!r} missing from the "
                        f"local graph of {mapping_name!r}'s owner"
                    )

        plan = compile_sweep_plan(
            [(f.identifier, tuple(f.mapping_names)) for f in self._feedbacks],
            owners=self._owners,
            min_mappings=1,
        )
        self._plan: SweepPlan = plan

        # Re-key the prior rows to the plan's mapping order (first
        # appearance across feedbacks) so posterior/segment rows line up
        # with the prior matrix index for index.
        self._mapping_list = list(plan.mapping_names)
        self._mapping_index = dict(plan.mapping_index)
        self._prior_matrix = np.stack(
            [self._prior_vectors[name] for name in self._mapping_list]
        )
        self._prior_vectors = {
            name: self._prior_matrix[index]
            for index, name in enumerate(self._mapping_list)
        }
        self._prior_edges = self._prior_matrix[plan.edge_mapping]

        self._edge_rows: Dict[Tuple[str, str], int] = {
            (
                plan.mapping_names[plan.edge_mapping[row]],
                plan.identifiers[plan.edge_structure[row]],
            ): row
            for row in range(plan.edge_count)
        }
        self._recv_rows: Dict[Tuple[str, str, str], int] = {
            (peer, plan.identifiers[structure_index], mapping_name): row
            for row, (peer, structure_index, mapping_name) in enumerate(
                plan.recv_cells
            )
        }

        self._v2f_mat = np.full((plan.edge_count, 2), 0.5)
        self._f2v_mat = np.full((plan.edge_count, 2), 0.5)
        self._recv_mat = np.full((plan.recv_count, 2), 0.5)
        # Posterior beliefs only change when a factor sweep rewrites
        # _f2v_mat, so the matrix is memoised between sweeps (the "after"
        # snapshot of one round doubles as the "before" of the next).
        self._posterior_cache: Optional[np.ndarray] = None

        # Read-only dict views preserving the historical attribute layout.
        per_mapping_rows: Dict[str, Dict[str, int]] = {
            name: {} for name in self._mapping_list
        }
        for (mapping_name, feedback_id), row in self._edge_rows.items():
            per_mapping_rows[mapping_name][feedback_id] = row
        self._f2v = {
            name: _MessageRowView(self, "_f2v_mat", rows)
            for name, rows in per_mapping_rows.items()
        }
        self._v2f = {
            name: _MessageRowView(self, "_v2f_mat", rows)
            for name, rows in per_mapping_rows.items()
        }
        per_peer_rows: Dict[str, Dict[Tuple[str, str], int]] = {
            peer: {} for peer in self.local_graphs
        }
        for (peer, feedback_id, mapping_name), row in self._recv_rows.items():
            per_peer_rows[peer][(feedback_id, mapping_name)] = row
        self._received = {
            peer: _MessageRowView(self, "_recv_mat", rows)
            for peer, rows in per_peer_rows.items()
        }

    def _factor_groups(self) -> List[List[Feedback]]:
        """Feedbacks grouped by compiled-kernel bucket.

        Dense factors bucket by table shape (one :class:`FactorBatch` einsum
        per bucket); count-symmetric :class:`CountFactor` replicas — long
        cycles and parallel paths past the
        :data:`~repro.constants.COUNT_KERNEL_MIN_ARITY` crossover — bucket
        by arity and run through the count-space
        :class:`~repro.factorgraph.plan.CountFactorBatch`, so the
        embedded engine never materialises a ``(2,)**arity`` table either.
        """
        groups: Dict[Tuple, List[Feedback]] = {}
        for feedback in self._feedbacks:
            factor = self._factors[feedback.identifier]
            if isinstance(factor, CountFactor):
                key: Tuple = ("count", factor.arity)
            else:
                key = factor.table.shape
            groups.setdefault(key, []).append(feedback)
        return list(groups.values())

    def _batch_for(self, group: Sequence[Feedback]) -> FactorBatch | CountFactorBatch:
        """The compiled kernel of one bucket (dense einsum or count space)."""
        factors = [self._factors[f.identifier] for f in group]
        if isinstance(factors[0], CountFactor):
            return CountFactorBatch(factors)
        return FactorBatch(factors)

    def _compile_dict_batches(self) -> None:
        """Group the feedback-factor replicas into compiled kernel batches.

        For every batch of same-shape factors we precompute a gather plan:
        for each (target slot, source slot) pair, the list of message cells —
        either the owner's own fresh µ_{v→F} or the last *received* remote
        copy — that feed the batched factor→variable kernel, plus the µ_{F→v}
        cells the results scatter back into.  The inner dicts referenced here
        are created once in ``__init__`` and only ever updated in place, so
        the plan stays valid for the lifetime of the engine.
        """
        # Each entry: (batch, gather plan, scatter plan).  gather[t][m] and
        # scatter[t] are aligned with the batch's factor order.
        self._batches: List[
            Tuple[
                FactorBatch | CountFactorBatch,
                List[List[Optional[List[Tuple[dict, object]]]]],
                List[List[Tuple[dict, str]]],
            ]
        ] = []
        for group in self._factor_groups():
            batch = self._batch_for(group)
            arity = batch.arity
            gather: List[List[Optional[List[Tuple[dict, object]]]]] = []
            scatter: List[List[Tuple[dict, str]]] = []
            for target in range(arity):
                per_source: List[Optional[List[Tuple[dict, object]]]] = []
                targets: List[Tuple[dict, str]] = []
                for feedback in group:
                    target_mapping = feedback.mapping_names[target]
                    if feedback.identifier not in self._f2v[target_mapping]:
                        raise FeedbackError(
                            f"feedback {feedback.identifier!r} missing from the "
                            f"local graph of {target_mapping!r}'s owner"
                        )
                    targets.append((self._f2v[target_mapping], feedback.identifier))
                for source in range(arity):
                    if source == target:
                        per_source.append(None)
                        continue
                    cells: List[Tuple[dict, object]] = []
                    for feedback in group:
                        target_mapping = feedback.mapping_names[target]
                        source_mapping = feedback.mapping_names[source]
                        owner = self._owners[target_mapping]
                        if self._owners[source_mapping] == owner:
                            cells.append(
                                (self._v2f[source_mapping], feedback.identifier)
                            )
                        else:
                            cells.append(
                                (
                                    self._received[owner],
                                    (feedback.identifier, source_mapping),
                                )
                            )
                    per_source.append(cells)
                gather.append(per_source)
                scatter.append(targets)
            self._batches.append((batch, gather, scatter))

    def _compile_array_batches(self) -> None:
        """Kernels for the plan's arity buckets (array backend).

        The gather/scatter index plans live in the compiled
        :class:`~repro.factorgraph.plan.SweepPlan`; the engine only binds
        each bucket to a kernel built from its factor objects — dense
        :class:`FactorBatch` below the crossover, count-space
        :class:`CountFactorBatch` from it on (the plan's bucket family
        matches :func:`~repro.core.feedback.feedback_factor`'s choice of
        factor representation, both keyed on
        :data:`~repro.constants.COUNT_KERNEL_MIN_ARITY`).
        """
        plan = self._plan
        self._kernels: List[FactorBatch | CountFactorBatch] = []
        for bucket in plan.batches:
            factors = [
                self._factors[plan.identifiers[si]]
                for si in bucket.feedback_indices
            ]
            if bucket.use_count_kernel:
                self._kernels.append(CountFactorBatch(factors))
            else:
                self._kernels.append(FactorBatch(factors))
        # Historical introspection view: (kernel, gather, scatter) triples.
        self._batches = [
            (kernel, bucket.gather, bucket.scatter)
            for bucket, kernel in zip(plan.batches, self._kernels)
        ]

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _validate_prior(value, mapping_name: str) -> float:
        if isinstance(value, bool):
            raise FeedbackError(
                f"prior for {mapping_name!r} must be a probability in [0, 1], "
                f"got boolean {value!r}"
            )
        prior = float(value)
        if not 0.0 <= prior <= 1.0:
            raise FeedbackError(
                f"prior for {mapping_name!r} must be a probability in [0, 1], "
                f"got {value!r}"
            )
        return prior

    @classmethod
    def _resolve_prior(
        cls,
        priors: PriorBeliefStore | TMapping[str, float] | float | None,
        mapping_name: str,
    ) -> float:
        if priors is None:
            return 0.5
        if isinstance(priors, PriorBeliefStore):
            # attribute is bound later; the store is queried lazily instead
            raise FeedbackError(
                "pass PriorBeliefStore priors via priors_for_attribute()"
            )
        if isinstance(priors, bool) or isinstance(priors, (int, float)):
            return cls._validate_prior(priors, mapping_name)
        return cls._validate_prior(priors.get(mapping_name, 0.5), mapping_name)

    @classmethod
    def from_prior_store(
        cls,
        feedbacks: Iterable[Feedback],
        store: PriorBeliefStore,
        delta: float = 0.1,
        **kwargs,
    ) -> "EmbeddedMessagePassing":
        """Build an engine whose priors come from a :class:`PriorBeliefStore`."""
        feedback_list = [f for f in feedbacks if f.is_informative]
        if not feedback_list:
            raise FeedbackError("embedded message passing needs informative feedback")
        attribute = feedback_list[0].attribute
        mapping_names = {m for f in feedback_list for m in f.mapping_names}
        priors = {m: store.prior(m, attribute) for m in mapping_names}
        return cls(feedback_list, priors=priors, delta=delta, **kwargs)

    @property
    def mapping_names(self) -> Tuple[str, ...]:
        """All mappings with a correctness variable in the model."""
        return tuple(self._owners)

    @property
    def peer_names(self) -> Tuple[str, ...]:
        return tuple(self.local_graphs)

    def owner_of(self, mapping_name: str) -> str:
        return self._owners[mapping_name]

    @property
    def remote_message_count(self) -> int:
        """Remote transmissions one full round attempts (the paper's
        ``Σ_ci (l_ci − 1)`` summed over all peers)."""
        total = 0
        for feedback in self._feedbacks:
            for mapping_name in feedback.mapping_names:
                sender = self._owners[mapping_name]
                total += sum(
                    1
                    for other in feedback.mapping_names
                    if self._owners[other] != sender
                )
        return total

    def _mapping_selection(self, selection: set) -> np.ndarray:
        """Boolean mask over mapping indices for a phase-1/2 restriction."""
        mask = np.zeros(len(self._mapping_list), dtype=bool)
        for name in selection:
            index = self._mapping_index.get(name)
            if index is not None:
                mask[index] = True
        return mask

    # -- the three phases of a round ----------------------------------------------------

    def _compute_variable_messages(self, mapping_names: Optional[set] = None) -> None:
        """Phase 1: owners recompute µ_{v→F} for their mapping variables.

        Array backend: one zero-aware exclusive segment product over the
        stacked factor→variable matrix, scaled by the per-edge prior rows.
        """
        if self.backend == STATE_DICTS:
            self._compute_variable_messages_dicts(mapping_names)
            return
        fresh = self._plan.variable_sweep(self._f2v_mat, self._prior_edges)
        if mapping_names is not None:
            keep = self._mapping_selection(mapping_names)[self._plan.edge_mapping]
            fresh = np.where(keep[:, None], fresh, self._v2f_mat)
        self._v2f_mat = fresh

    def _compute_variable_messages_dicts(
        self, mapping_names: Optional[set] = None
    ) -> None:
        for mapping_name, per_feedback in self._v2f.items():
            if mapping_names is not None and mapping_name not in mapping_names:
                continue
            prior = self._prior_vectors[mapping_name]
            for feedback_id in per_feedback:
                message = prior.copy()
                for other_id, incoming in self._f2v[mapping_name].items():
                    if other_id == feedback_id:
                        continue
                    message = message * incoming
                per_feedback[feedback_id] = normalize(message)

    def _exchange_messages(self, mapping_names: Optional[set] = None) -> None:
        """Phase 2: send each µ_{v→F} to the other peers replicating F.

        Array backend: one vectorized Bernoulli mask over the precomputed
        transmission list, applied as a fancy-indexed scatter from the
        variable→factor matrix into the received-cell matrix.
        """
        if self.backend == STATE_DICTS:
            self._exchange_messages_dicts(mapping_names)
            return
        plan = self._plan
        if plan.tx_src.size == 0:
            return
        if mapping_names is None:
            src, dest = plan.tx_src, plan.tx_dest
        else:
            keep = self._mapping_selection(mapping_names)[plan.tx_mapping]
            src, dest = plan.tx_src[keep], plan.tx_dest[keep]
        if src.size == 0:
            return
        delivered = self.transport.send_mask(src.size)
        if delivered.all():
            self._recv_mat[dest] = self._v2f_mat[src]
        elif delivered.any():
            self._recv_mat[dest[delivered]] = self._v2f_mat[src[delivered]]

    def _exchange_messages_dicts(self, mapping_names: Optional[set] = None) -> None:
        for feedback in self._feedbacks:
            for mapping_name in feedback.mapping_names:
                if mapping_names is not None and mapping_name not in mapping_names:
                    continue
                sender = self._owners[mapping_name]
                message = self._v2f[mapping_name][feedback.identifier]
                for other_mapping in feedback.mapping_names:
                    recipient = self._owners[other_mapping]
                    if recipient == sender:
                        continue
                    if not self.transport.try_send():
                        continue
                    self._received[recipient][(feedback.identifier, mapping_name)] = (
                        message.copy()
                    )

    def _compute_factor_messages(self) -> None:
        """Phase 3: every replica recomputes µ_{F→v} for its owned variables.

        All replicas of same-shape factors are updated together through the
        plan's arity buckets — each bucket runs its compiled
        :class:`~repro.factorgraph.plan.FactorBatch` /
        :class:`~repro.factorgraph.plan.CountFactorBatch` kernel, the same
        path the vectorized global engine uses — instead of one scalar
        :meth:`Factor.message_to` call per directed message.  The plan
        gathers the kernel operands by fancy indexing into the concatenated
        µ_{v→F} / received pool and scatters the fresh rows back by edge id.
        """
        if self.backend == STATE_DICTS:
            self._compute_factor_messages_dicts()
            return
        plan = self._plan
        pool = plan.message_pool(self._v2f_mat, self._recv_mat)
        plan.factor_sweep(self._kernels, pool, self._f2v_mat)
        self._posterior_cache = None

    def _compute_factor_messages_dicts(self) -> None:
        for batch, gather, scatter in self._batches:
            for target in range(batch.arity):
                incoming: List[Optional[np.ndarray]] = []
                for source in range(batch.arity):
                    cells = gather[target][source]
                    if cells is None:
                        incoming.append(None)
                        continue
                    incoming.append(np.stack([store[key] for store, key in cells]))
                fresh = normalize_rows(batch.messages_toward(target, incoming))
                for row, (store, key) in enumerate(scatter[target]):
                    store[key] = fresh[row]

    # -- public API ------------------------------------------------------------------------

    def _posterior_matrix(self) -> np.ndarray:
        """Beliefs of all mapping variables as one ``(mappings, 2)`` matrix.

        Memoised until the next factor sweep; never mutated in place, so
        slices handed out earlier stay valid snapshots.
        """
        if self._posterior_cache is None:
            products = segment_products(self._f2v_mat, self._plan.segment_starts)
            self._posterior_cache = normalize_rows(self._prior_matrix * products)
        return self._posterior_cache

    def posteriors(self) -> Dict[str, float]:
        """Current posterior P(correct) of every mapping variable."""
        if self.backend == STATE_ARRAYS:
            matrix = self._posterior_matrix()
            return {
                name: float(matrix[index, 0])
                for index, name in enumerate(self._mapping_list)
            }
        result: Dict[str, float] = {}
        for mapping_name in self._owners:
            belief = self._prior_vectors[mapping_name].copy()
            for incoming in self._f2v[mapping_name].values():
                belief = belief * incoming
            belief = normalize(belief)
            result[mapping_name] = float(belief[0])
        return result

    def run_round(self, mapping_names: Optional[Iterable[str]] = None) -> float:
        """Run one full round; return the largest posterior change.

        ``mapping_names`` restricts phases 1–2 to the given mappings — the
        primitive the lazy schedule uses to piggyback on query traffic.
        """
        selection = set(mapping_names) if mapping_names is not None else None
        if self.backend == STATE_ARRAYS:
            before = self._posterior_matrix()[:, 0]
            self._compute_variable_messages(selection)
            self._exchange_messages(selection)
            self._compute_factor_messages()
            after = self._posterior_matrix()[:, 0]
            return float(np.abs(after - before).max()) if after.size else 0.0
        before = self.posteriors()
        self._compute_variable_messages(selection)
        self._exchange_messages(selection)
        self._compute_factor_messages()
        after = self.posteriors()
        return max(
            abs(after[name] - before[name]) for name in after
        ) if after else 0.0

    def run(self) -> EmbeddedResult:
        """Iterate rounds until convergence or ``max_rounds``.

        Under message loss a single quiet round may simply mean the
        informative messages were dropped, so convergence requires the
        posterior change to stay below tolerance for a number of consecutive
        rounds inversely proportional to the transport's send probability.
        """
        history: List[Dict[str, float]] = []
        converged = False
        change = float("inf")
        rounds = 0
        quiet_rounds_needed = required_quiet_rounds(self.transport.send_probability)
        quiet_rounds = 0
        for rounds in range(1, self.options.max_rounds + 1):
            change = self.run_round()
            if self.options.record_history:
                history.append(self.posteriors())
            quiet_rounds = quiet_rounds + 1 if change < self.options.tolerance else 0
            if quiet_rounds >= quiet_rounds_needed:
                converged = True
                break
        if not converged and self.options.strict:
            raise ConvergenceError(
                f"embedded message passing did not converge within "
                f"{self.options.max_rounds} rounds (last change {change:.3g})"
            )
        stats = self.transport.statistics
        return EmbeddedResult(
            posteriors=self.posteriors(),
            iterations=rounds,
            converged=converged,
            final_change=change,
            history=history,
            messages_attempted=stats.attempted,
            messages_delivered=stats.delivered,
        )
