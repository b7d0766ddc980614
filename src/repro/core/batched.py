"""The lane engine: every embedded message-passing run of §4 and §4.5.

The self-organizing assessment loop of the paper runs the decentralised
message passing of §4 once per attribute of the schema network, and the
per-peer decision of §4.5 runs it once per origin.  Each such run is a
*lane* — an ``(evidence subset, priors, Δ, rng stream)`` tuple
(:class:`AssessmentLane`) bound to a subset of the structures of one
compiled :class:`~repro.factorgraph.plan.SweepPlan` — and
:class:`BatchedEmbeddedMessagePassing` runs any number of lanes at once.
It is the only engine that runs embedded rounds: the one-lane
:class:`~repro.core.embedded.EmbeddedMessagePassing` wraps it, and so do
the assessor's global and local views (:mod:`repro.core.quality`).  The
normative layering and determinism contracts are stated in
``ARCHITECTURE.md`` at the repository root and enforced by ``repro-lint``
(:mod:`repro.lintkit`); the structure lists compiled here are the walks of
the network's :class:`~repro.pdms.discovery.TopologySnapshot`.

Lanes placed on slices
----------------------
The message state is ``(slices, rows, 2)``: a *slice* is one copy of the
plan's row space (owner edges, received cells).  A lane binds a range of
plan structures, and lanes are placed in order — a lane joins the current
slice when it and the lane before it bind whole blocks of the plan
(:attr:`~repro.factorgraph.plan.SweepPlan.block_bounds`, which share no
mapping) and it starts where that lane stopped or later, otherwise it
opens a new slice — so the layout follows from the lanes:

* attribute lanes each bind the whole plan (the multi-attribute sweeps and
  EM rounds of :func:`compile_assessment_plan`), so each gets its own slice
  and the state is the stacked ``(attributes, edges, 2)`` layout;
* per-origin lanes bind the blocks of ``origin::mapping`` instances that
  :func:`~repro.factorgraph.plan.assemble_sweep_plan` lays out in origin
  order, so they share one block-diagonal slice and a round costs one set
  of numpy calls over the blocks' combined rows;
* any other lane simply lands on a slice of its own.

A lane arrives lowered: :func:`lower_feedbacks` checks its evidence against
the plan once and keeps one int8 kind code per structure, and its priors
are one array indexed by plan mapping id (or one float).  Construction
gathers the lanes' codes into one array and derives the rest with array
operations over the plan — placement, each lane's result rows, its
informative transmissions, the CPT tables and the priors — with no Python
loop per structure or mapping.  Kind codes and Δ are ``(slices,
structures)``, priors ``(slices, mappings, 2)``, and every bucket's stacked
kernel comes from
:func:`~repro.factorgraph.plan.cpt_levels` /
:func:`~repro.factorgraph.plan.bucket_tables` /
:func:`~repro.factorgraph.plan.bucket_kernel`, whatever the layout.  A
round is the plan's own phases — phase 1 one zero-aware segment product
over the stacked factor→variable state, phase 3 one fused sweep per arity
bucket (one gather through the bucket's ``gather_all`` plan, one
``messages_all`` call of its
:class:`~repro.factorgraph.plan.StackedFactorBatch` einsum or count-space
:class:`~repro.factorgraph.plan.StackedCountFactorBatch` kernel, one
normalisation and one scatter) — with the exchange of phase 2 between
them on the engine: each live lane scatters its informative transmissions
within its slice, drawing its Bernoulli keep/send mask from its own
transport in plan order, and all lossless lanes go in one scatter.

When lanes converge they freeze, and one compaction rule drops what no
live lane uses any more: the slices no live lane occupies, plus the edge
rows, received cells, transmissions and bucket entries of structures no
live lane binds (a bucket's ``gather_all`` and ``scatter_all`` plans are
renumbered with one index remap each).  It runs after any round in which
lanes froze (and at construction, for rows only lanes without informative
evidence would have used), so per-round work shrinks as lanes finish;
:attr:`round_edge_counts` records the edge rows swept each round.

Equivalence with a solo run
---------------------------
A lane's slice may carry structures the lane does not bind, or binds as
neutral evidence.  They carry all-ones factor tables, whose sum–product
messages are exactly uniform; a uniform factor→variable row scales both
belief components by the same power of two, so every message the lane
reads — and therefore every posterior — is the one the lane computes alone
on its informative evidence, bit for bit.  Dropping such rows (compaction)
leaves the lane's values untouched for the same reason, so a lane's
:class:`EmbeddedResult` does not depend on the other lanes or on the slice
it lands on.  Mappings not constrained by any informative structure of a
lane are left out of its result.

A run keeps no per-round history: each lane's result is its snapshot of
the round it stopped in.  A trajectory is read by stepping the engine —
:meth:`~BatchedEmbeddedMessagePassing.run_round`, then
:meth:`~BatchedEmbeddedMessagePassing.posteriors` — which is what
:class:`~repro.core.schedules.PeriodicSchedule` does for Figure 7.

Reproducibility contract
------------------------
Every lane draws from its **own** ``random.Random`` stream — a freshly
seeded :class:`MessageTransport` per lane unless the lane brings one — and
only for the transmissions of its *informative* structures, in the plan's
transmission order (structure → sender mapping → recipient; each lane's
structure indices are strictly increasing and each structure keeps the
lane's own traversal orientation).  A lane therefore makes the same drop
decisions, attempt counts included, as it makes alone under the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
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
    KIND_NEGATIVE,
    KIND_NEUTRAL,
    KIND_POSITIVE,
    BucketPlan,
    StackedCountFactorBatch,
    StackedFactorBatch,
    SweepPlan,
    bucket_kernel,
    bucket_tables,
    compile_sweep_plan,
    cpt_levels,
    make_bucket,
    normalize_rows,
    segment_plan,
    segment_products,
)
from ..factorgraph.sum_product import required_quiet_rounds
from .feedback import Feedback, FeedbackKind, mapping_owner

__all__ = [
    "AssessmentLane",
    "BatchedEmbeddedMessagePassing",
    "EmbeddedOptions",
    "EmbeddedResult",
    "MessageTransport",
    "TransportStatistics",
    "compile_assessment_plan",
    "lower_feedbacks",
    "lower_priors",
]

_KIND_CODES = {
    FeedbackKind.NEUTRAL: KIND_NEUTRAL,
    FeedbackKind.POSITIVE: KIND_POSITIVE,
    FeedbackKind.NEGATIVE: KIND_NEGATIVE,
}
_NO_CODES = np.zeros(0, dtype=np.int8)


@dataclass
class TransportStatistics:
    """Counts of remote messages attempted, delivered and dropped."""

    attempted: int = 0
    delivered: int = 0
    dropped: int = 0

    def record_many(self, attempted: int, delivered: int) -> None:
        """Record a whole batch of attempts at once.

        ``attempted=0`` is a valid no-op (an idle round of a quiet lane);
        negative counts or ``delivered > attempted`` would corrupt the
        tallies, so they are rejected.
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


class MessageTransport:
    """Unreliable transport between peers.

    Each remote message is delivered independently with probability
    ``send_probability``; dropped messages simply leave the recipient's last
    received value in place, which the algorithm tolerates by design
    (§4.3.2, Figure 11).

    ``seed`` defaults to :data:`repro.constants.DEFAULT_SEED` so lossy runs
    are reproducible unless an explicit seed is supplied (matching the
    centralised engine's fallback rng; pass a distinct seed per repetition
    for independent runs).  The ``random.Random`` stream is seeded on the
    first draw, so a perfectly reliable transport, which never draws, never
    seeds one.
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
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self.statistics = TransportStatistics()

    def _stream(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

    def send_mask(self, count: int) -> np.ndarray:
        """Decide which of ``count`` consecutive messages make it through;
        update statistics.

        Message ``i`` is delivered when the ``i``-th uniform drawn from the
        transport's ``random.Random`` stream falls below
        ``send_probability`` (a perfectly reliable transport draws
        nothing), so a per-message loop calling ``send_mask(1)`` and the
        lane engine make identical drop decisions under a shared seed.
        """
        if count <= 0:
            return np.zeros(0, dtype=bool)
        if self.send_probability >= 1.0:
            mask = np.ones(count, dtype=bool)
        else:
            draw = self._stream().random
            uniforms = np.fromiter(
                (draw() for _ in range(count)),
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
    the mapping-name convention (:func:`~repro.core.feedback.mapping_owner`).
    """
    return compile_sweep_plan(
        structures, owners=owners, default_owner=mapping_owner
    )


@dataclass(frozen=True)
class AssessmentLane:
    """One inference lane of the engine.

    A lane binds lowered evidence to its priors, Δ and rng stream.  The
    multi-attribute assessor builds one lane per attribute over the full
    plan; the decentralised view builds one lane per origin over that
    origin's block of plan structures; the one-lane
    :class:`~repro.core.embedded.EmbeddedMessagePassing` binds its whole
    plan.

    Parameters
    ----------
    key:
        Result key of the lane (attribute name, origin peer, ...); must be
        unique within one engine.
    codes:
        The lane's evidence lowered by :func:`lower_feedbacks`: one kind
        code per structure of ``structure_indices``, in order (neutral
        codes included — they mask themselves out via all-ones factor
        tables).
    structure_indices:
        The ``range`` of plan structures ``codes`` binds to; a range is
        strictly increasing, so the lane consumes its rng stream in the
        plan's transmission order.  ``None`` binds the full plan.
    priors:
        ``None`` (0.5 everywhere), a single float, or an array of one prior
        per plan mapping id (:func:`lower_priors` builds one from a
        ``{mapping name: prior}`` dict).  Lanes may share one array; only
        the entries of the mappings a lane binds are read for it.
    delta:
        Error-compensation probability Δ of the lane's factor tables.
        ``None`` means unspecified, which is an error only if the lane
        turns out to have informative evidence.
    transport:
        Optional explicit :class:`MessageTransport`; when ``None`` the
        engine seeds a fresh one per lane.
    """

    key: str
    codes: np.ndarray
    structure_indices: Optional[range] = None
    priors: object = None
    delta: Optional[float] = 0.1
    transport: Optional[MessageTransport] = None


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


def _checked_priors(values: np.ndarray, plan: SweepPlan) -> np.ndarray:
    """``values``, one prior per plan mapping id, under the rule of
    :func:`_validate_prior`: the first offending entry raises its error."""
    if values.shape != (plan.mapping_count,):
        raise FeedbackError(
            f"a prior array needs one value per plan mapping "
            f"({plan.mapping_count}), got shape {values.shape}"
        )
    # NaN fails both comparisons.
    if values.size and (
        values.dtype == bool or not (values.min() >= 0.0 and values.max() <= 1.0)
    ):
        first = 0
        if values.dtype != bool:
            first = int(np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))[0])
        _validate_prior(values[first].item(), plan.mapping_names[first])
    return values


def lower_priors(plan: SweepPlan, priors: TMapping[str, float]) -> np.ndarray:
    """A ``{mapping name: prior}`` dict as a lane's prior array: one value
    per plan mapping id, 0.5 for the mappings it does not name.  Names the
    plan does not hold are ignored; every named prior is validated."""
    values = np.full(plan.mapping_count, 0.5)
    index = plan.mapping_index
    for name, value in priors.items():
        if name in index:
            values[index[name]] = _validate_prior(value, name)
    return values


def _check_delta(value: Optional[float], key: str) -> float:
    if value is None:
        raise FeedbackError(f"no Δ supplied for lane {key!r}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise FeedbackError(f"Δ must be in [0, 1], got {value}")
    return value


def _structure_span(plan: SweepPlan, indices: Optional[range]) -> range:
    """The plan structures ``indices`` names: the whole plan for ``None``,
    else a step-one range within the plan."""
    if indices is None:
        return range(plan.structure_count)
    if not (
        isinstance(indices, range)
        and indices.step == 1
        and 0 <= indices.start <= indices.stop <= plan.structure_count
    ):
        raise FeedbackError(
            f"structure indices must be a step-one range within the plan's "
            f"{plan.structure_count} structures, got {indices!r}"
        )
    return indices


def lower_feedbacks(
    plan: SweepPlan,
    feedbacks: Sequence[Feedback],
    structure_indices: Optional[range] = None,
) -> np.ndarray:
    """``feedbacks`` checked against ``plan`` and lowered to a lane's codes.

    The feedbacks bind the plan structures ``structure_indices`` (the
    whole plan by default), one each, in order: each must carry its
    structure's identifier and mapping names, or
    :class:`~repro.exceptions.FeedbackError` is raised.  Returns one int8
    kind code per feedback.  This is the one lowering of evidence: the
    one-lane engine, both assessor views and the tests build every lane's
    codes here, and a caller that keeps the codes (the assessor's
    per-origin blocks) lowers each evidence list once.
    """
    span = _structure_span(plan, structure_indices)
    if len(feedbacks) != len(span):
        raise FeedbackError(
            f"{len(feedbacks)} feedbacks for {len(span)} plan structures"
        )
    identifiers, structure_mappings = plan.identifiers, plan.structure_mappings
    for index, feedback in zip(span, feedbacks):
        if (
            feedback.identifier != identifiers[index]
            or feedback.mapping_names != structure_mappings[index]
        ):
            raise FeedbackError(
                f"feedback {feedback.identifier!r} does not match plan "
                f"structure {identifiers[index]!r}"
            )
    return np.fromiter(
        (_KIND_CODES[feedback.kind] for feedback in feedbacks),
        dtype=np.int8,
        count=len(feedbacks),
    )


def _lane_span(plan: SweepPlan, lane: AssessmentLane) -> Tuple[int, int]:
    """``(start, stop)`` of the structures ``lane`` binds, one code each."""
    span = _structure_span(plan, lane.structure_indices)
    if len(lane.codes) != len(span):
        raise FeedbackError(
            f"lane {lane.key!r} supplies {len(lane.codes)} kind codes for "
            f"{len(span)} plan structures"
        )
    return span.start, span.stop


def _place(block_bounds: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The slice of every lane, in order, from its ``(start, stop)`` span.

    A lane joins the current slice when it and the lane before it each
    bind whole blocks of the plan and it starts where that lane stopped or
    later; otherwise it opens a new slice.  The lanes of one slice so bind
    disjoint runs of blocks, which share no structure and no mapping (the
    per-origin blocks of an assembled plan, in order, share one slice); a
    lane binding the whole plan gets a slice to itself.
    """
    if len(spans) == 1:
        return np.zeros(1, dtype=np.int64)
    starts, stops = spans[:, 0], spans[:, 1]
    is_bound = np.zeros(block_bounds[-1] + 1, dtype=bool)
    is_bound[block_bounds] = True
    whole = is_bound[starts] & is_bound[stops]
    opens = np.ones(len(spans), dtype=bool)
    opens[1:] = ~(whole[1:] & whole[:-1] & (starts[1:] >= stops[:-1]))
    return np.cumsum(opens) - 1


def _lane_priors(
    plan: SweepPlan, lanes: Sequence[AssessmentLane], binder: np.ndarray
):
    """P(correct) per (slice, mapping id), broadcastable to ``(slices,
    mappings)``: the prior of the lane binding the mapping on the slice
    (``binder``, per slice and segment), 0.5 where none does.

    Each distinct prior spec is validated once, so lanes sharing one
    array cost one check.
    """
    rows: Dict[object, int] = {}
    values: List[object] = []
    source = np.empty(len(lanes), dtype=np.int64)
    for lane_id, lane in enumerate(lanes):
        spec = lane.priors
        if isinstance(spec, np.ndarray):
            key = id(spec)
        elif spec is None or isinstance(spec, (bool, int, float)):
            key = (type(spec), spec)
        else:
            raise FeedbackError(
                f"priors of lane {lane.key!r} must be None, a probability or "
                f"an array indexed by plan mapping id, got "
                f"{type(spec).__name__}"
            )
        row = rows.get(key)
        if row is None:
            row = rows[key] = len(values)
            if spec is None:
                values.append(0.5)
            elif isinstance(spec, np.ndarray):
                values.append(_checked_priors(spec, plan))
            else:
                values.append(_validate_prior(spec, lane.key))
        source[lane_id] = row
    if len(values) == 1:
        # One spec serves every lane; entries no lane binds are never read.
        return values[0]
    table = np.empty((len(values), plan.mapping_count))
    for row, value in enumerate(values):
        table[row] = value
    correct = np.full((binder.shape[0], plan.mapping_count), 0.5)
    segment_mapping = plan.segment_mapping
    correct[:, segment_mapping] = np.where(
        binder >= 0, table[source[binder], segment_mapping], 0.5
    )
    return correct


def _runs(sorted_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start offset and value of every run of a sorted id array."""
    if not sorted_ids.size:
        return sorted_ids, sorted_ids
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    return starts, sorted_ids[starts]


class BatchedEmbeddedMessagePassing:
    """Embedded message passing for many lanes on one compiled plan.

    Parameters
    ----------
    plan:
        The compiled topology (shared across attributes, origins and EM
        rounds).
    lanes:
        :class:`AssessmentLane` entries.  Lanes without a single
        informative feedback are never placed; their results are ``None``.
    send_probability / seed:
        Configure the freshly seeded per-lane transports of lanes that do
        not carry an explicit one.
    options:
        Iteration control, shared by all lanes.
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
        lanes = tuple(lanes)
        self.lane_keys: Tuple[str, ...] = tuple(lane.key for lane in lanes)
        if len(set(self.lane_keys)) != len(self.lane_keys):
            raise FeedbackError(f"duplicate lane keys: {sorted(self.lane_keys)}")
        #: Edge rows swept in each round — the per-round work trajectory
        #: the compaction shrinks.
        self.round_edge_counts: List[int] = []

        # Every lane's span and codes, gathered; the placed lanes are those
        # with at least one informative (non-zero) code.
        spans = np.array(
            [_lane_span(plan, lane) for lane in lanes], dtype=np.int64
        ).reshape(-1, 2)
        sizes = spans[:, 1] - spans[:, 0]
        codes = np.concatenate([lane.codes for lane in lanes] + [_NO_CODES])
        if codes.dtype != np.int8 or (
            codes.size and codes.view(np.uint8).max() > KIND_NEGATIVE
        ):
            raise FeedbackError(
                "kind codes must be an int8 array of "
                f"{KIND_NEUTRAL}, {KIND_POSITIVE} and {KIND_NEGATIVE}; "
                "lower evidence with lower_feedbacks"
            )
        code_lane = np.arange(len(lanes)).repeat(sizes)
        informative = np.bincount(code_lane, weights=codes, minlength=len(lanes)) > 0
        placed_ids = informative.nonzero()[0].tolist()
        if len(placed_ids) < len(lanes):
            codes = codes[informative[code_lane]]
            spans, sizes = spans[informative], sizes[informative]
            code_lane = np.arange(len(spans)).repeat(sizes)
        placed = [lanes[lane] for lane in placed_ids]
        self._keys: Tuple[str, ...] = tuple(lane.key for lane in placed)
        lane_deltas = np.array(
            [_check_delta(lane.delta, lane.key) for lane in placed], dtype=float
        )
        self._transports = [
            lane.transport or MessageTransport(send_probability, seed=seed)
            for lane in placed
        ]
        self._lossless = np.asarray(
            [t.send_probability >= 1.0 for t in self._transports], dtype=bool
        )
        self._live_plan = plan
        self._live = np.zeros(0, dtype=np.int64)
        if not placed:
            return

        # Kind code, Δ and owning lane of every (slice, structure); a
        # structure no lane binds on a slice is neutral there (its Δ is
        # never read).  The lanes of one slice bind disjoint spans in plan
        # order, so one slice whose lanes bind every structure holds the
        # gathered codes as they are.
        lane_count = len(placed)
        lane_slice = _place(plan.block_bounds, spans)
        slice_count = int(lane_slice[-1]) + 1
        structure_count = plan.structure_count
        tiled = slice_count == 1 and codes.size == structure_count
        if tiled:
            kinds, owner = codes[None], code_lane[None]
        else:
            offsets = sizes.cumsum() - sizes
            flat = np.arange(codes.size) + (
                spans[:, 0] - offsets + structure_count * lane_slice
            ).repeat(sizes)
            kinds = np.zeros(slice_count * structure_count, dtype=np.int8)
            kinds[flat] = codes
            kinds = kinds.reshape(slice_count, structure_count)
            owner = np.full(slice_count * structure_count, -1, dtype=np.int64)
            owner[flat] = code_lane
            owner = owner.reshape(slice_count, structure_count)
        deltas = lane_deltas[owner]
        self._lane_slice = lane_slice
        self._owner = owner

        # Per slice and mapping (segment): the lane binding the mapping
        # there, and whether an informative structure constrains it — the
        # lane's result and convergence rows, in plan order.
        edge_structure, segment_starts = plan.edge_structure, plan.segment_starts
        binder = np.maximum.reduceat(
            owner[:, edge_structure], segment_starts, axis=1
        )
        active = np.logical_or.reduceat(
            kinds[:, edge_structure] != KIND_NEUTRAL, segment_starts, axis=1
        )
        slices, segments = active.nonzero()
        act_lane = binder[slices, segments]
        order = act_lane.argsort(kind="stable")
        self._act_lane = act_lane[order]
        self._act_mapping = plan.segment_mapping[segments[order]]
        #: Every lane's active mapping ids, kept for naming its results.
        self._lane_mappings = self._act_mapping

        # Priors, read for the mappings each lane binds.
        correct = _lane_priors(plan, placed, binder)
        priors = np.empty((slice_count, plan.mapping_count, 2))
        priors[..., 0] = correct
        priors[..., 1] = 1.0 - priors[..., 0]
        self._priors = priors.clip(1e-9, 1.0, out=priors)

        # Informative transmissions per lane, in plan (= rng) order.
        slice_ids, positions = (kinds != KIND_NEUTRAL)[:, plan.tx_feedback].nonzero()
        tx_lane = owner[slice_ids, plan.tx_feedback[positions]]
        order = tx_lane.argsort(kind="stable")
        self._tx_lane, self._tx_pos = tx_lane[order], positions[order]
        #: Informative transmissions of each lane — a round's attempts.
        self._tx_counts = np.bincount(tx_lane, minlength=lane_count).tolist()

        levels = cpt_levels(kinds, deltas)
        self._kernels: List[StackedFactorBatch | StackedCountFactorBatch] = [
            bucket_kernel(bucket_tables(levels, bucket), bucket)
            for bucket in plan.batches
        ]
        self._running = np.ones(lane_count, dtype=bool)
        self._prior_edges = self._priors[:, plan.edge_mapping]
        self._post_priors = self._priors[:, plan.segment_mapping]
        self._v2f = np.full((slice_count, plan.edge_count, 2), 0.5)
        self._f2v = np.full((slice_count, plan.edge_count, 2), 0.5)
        self._recv = np.full((slice_count, plan.recv_count, 2), 0.5)
        if not tiled and (owner < 0).all(axis=0).any():
            # Structures only lanes without informative evidence bind.
            self._compact()
        else:
            self._bind()
        #: ``_lane_mappings[bounds[l]:bounds[l + 1]]`` are lane ``l``'s.
        self._lane_bounds = self._row_starts.tolist() + [self._act_lane.size]

    # -- introspection ------------------------------------------------------------------

    @property
    def mapping_names(self) -> Tuple[str, ...]:
        return self.plan.mapping_names

    def posteriors(self) -> Dict[str, Dict[str, float]]:
        """Current posterior P(correct) of every live lane's mappings."""
        return {
            self._keys[lane]: dict(zip(self._active_names(lane), values.tolist()))
            for lane, values in zip(self._live.tolist(), self._lane_values())
        }

    def _active_names(self, lane: int) -> List[str]:
        """Names of ``lane``'s active mappings, in plan order."""
        names = self.plan.mapping_names
        ids = self._lane_mappings[self._lane_bounds[lane] : self._lane_bounds[lane + 1]]
        return [names[i] for i in ids.tolist()]

    # -- the round ----------------------------------------------------------------------

    def run_round(self, mapping_names: Optional[Iterable[str]] = None) -> np.ndarray:
        """Run one round; return each live lane's largest posterior change.

        ``mapping_names`` restricts phases 1–2 to the named mappings — the
        lazy schedule's partial round (§4.3.2).  The changes are aligned
        with the keys of :meth:`posteriors`.
        """
        if not self._live.size:
            return np.zeros(0)
        plan = self._live_plan
        self.round_edge_counts.append(int(plan.edge_count))
        fresh = plan.variable_sweep(self._f2v, self._prior_edges)
        sent: Optional[np.ndarray] = None
        if mapping_names is None:
            self._v2f = fresh
        else:
            selected = np.zeros(self.plan.mapping_count, dtype=bool)
            index = self.plan.mapping_index
            selected[[index[n] for n in mapping_names if n in index]] = True
            self._v2f = np.where(
                selected[plan.edge_mapping][:, None], fresh, self._v2f
            )
            sent = selected[plan.tx_mapping]
        self._exchange(sent)
        plan.factor_sweep(
            self._kernels, plan.message_pool(self._v2f, self._recv), self._f2v
        )
        before = self._values
        self._snapshot()
        return np.maximum.reduceat(np.abs(self._values - before), self._row_starts)

    def _exchange(self, sent: Optional[np.ndarray]) -> None:
        """Phase 2: every live lane's informative transmissions (restricted
        to the ``sent`` mask over the live transmission list, if given)."""
        plan = self._live_plan
        lanes, positions, slices, sources, destinations = self._flood
        counts = self._flood_counts
        if sent is not None:
            keep = sent[positions]
            slices, sources, destinations = slices[keep], sources[keep], destinations[keep]
            counts = self._lane_counts(lanes[keep])
        if destinations.size:
            self._recv[slices, destinations] = self._v2f[slices, sources]
        for statistics, count in counts:
            statistics.record_many(count, count)
        for lane, k, positions in self._lossy:
            if sent is not None:
                positions = positions[sent[positions]]
            mask = self._transports[lane].send_mask(positions.size)
            if not mask.any():
                continue
            if not mask.all():
                positions = positions[mask]
            self._recv[k, plan.tx_dest[positions]] = self._v2f[
                k, plan.tx_src[positions]
            ]

    # -- live-state bookkeeping ---------------------------------------------------------

    def _snapshot(self) -> None:
        """Posteriors of the live state, and of each live lane's rows."""
        posteriors = normalize_rows(
            self._post_priors
            * segment_products(self._f2v, self._live_plan.segment_starts)
        )
        self._values = posteriors.ravel()[self._rows]

    def _lane_counts(self, lanes: np.ndarray) -> List[Tuple[TransportStatistics, int]]:
        """``(statistics, transmissions)`` of every lane in ``lanes``."""
        counts = np.bincount(lanes, minlength=len(self._transports)).tolist()
        return [
            (self._transports[lane].statistics, counts[lane])
            for lane in np.flatnonzero(counts).tolist()
        ]

    def _bind(self) -> None:
        """Derive the per-round index arrays of the live lanes."""
        plan = self._live_plan
        segment_count = plan.segment_mapping.size
        mapping_row = np.empty(self.plan.mapping_count, dtype=np.int64)
        mapping_row[plan.segment_mapping] = np.arange(segment_count)
        # Flat index of P(correct) of each live lane's active mappings.
        self._rows = 2 * (
            self._lane_slice[self._act_lane] * segment_count
            + mapping_row[self._act_mapping]
        )
        self._row_starts, self._live = _runs(self._act_lane)

        # Lossless lanes: one scatter over (slice, row) index pairs.
        flood_lanes, positions = self._tx_lane, self._tx_pos
        self._lossy = []
        lossless = self._lossless[flood_lanes]
        if not lossless.all():
            lossy_lanes, lossy_positions = flood_lanes[~lossless], positions[~lossless]
            flood_lanes, positions = flood_lanes[lossless], positions[lossless]
            starts, ids = _runs(lossy_lanes)
            bounds = starts.tolist() + [lossy_lanes.size]
            self._lossy = [
                (lane, int(self._lane_slice[lane]), lossy_positions[start:end])
                for lane, start, end in zip(ids.tolist(), bounds, bounds[1:])
            ]
        self._flood = (
            flood_lanes,
            positions,
            self._lane_slice[flood_lanes],
            plan.tx_src[positions],
            plan.tx_dest[positions],
        )
        self._flood_counts = [
            (self._transports[lane].statistics, self._tx_counts[lane])
            for lane in self._live.tolist()
            if self._lossless[lane] and self._tx_counts[lane]
        ]
        self._snapshot()

    def _lane_values(self) -> List[np.ndarray]:
        """Current posteriors of each live lane's active mappings."""
        if self._row_starts.size == 1:
            return [self._values]
        return np.split(self._values, self._row_starts[1:])

    def _compact(self) -> None:
        """Drop what no live lane uses, then rebind the live lanes.

        Removes the slices no live lane occupies, plus the edge rows,
        received cells, transmissions and bucket entries of structures no
        live lane binds.  Only the live view is rebound; the compiled plan
        is shared and never touched.
        """
        keep = self._running[self._act_lane]
        self._act_lane, self._act_mapping = self._act_lane[keep], self._act_mapping[keep]
        keep = self._running[self._tx_lane]
        self._tx_lane, self._tx_pos = self._tx_lane[keep], self._tx_pos[keep]

        owner = self._owner
        owned = owner >= 0
        live_owner = np.zeros(owner.shape, dtype=bool)
        live_owner[owned] = self._running[owner[owned]]
        keep_slices = live_owner.any(axis=1)
        keep_structures = live_owner.any(axis=0)

        if not keep_slices.all():
            self._owner = owner[keep_slices]
            self._lane_slice = (np.cumsum(keep_slices) - 1)[self._lane_slice]
            for name in ("_v2f", "_f2v", "_recv", "_priors", "_prior_edges", "_post_priors"):
                setattr(self, name, getattr(self, name)[keep_slices])
            self._kernels = [
                type(kernel)(kernel.tables[keep_slices]) for kernel in self._kernels
            ]

        old = self._live_plan
        keep_edges = keep_structures[old.edge_structure]
        if not keep_edges.all():
            self._drop_rows(old, keep_structures, keep_edges)
        self._bind()

    def _drop_rows(
        self,
        old: SweepPlan,
        keep_structures: np.ndarray,
        keep_edges: np.ndarray,
    ) -> None:
        """Rebind the live plan without the rows of dropped structures."""
        keep_recv = keep_structures[old.recv_structure]
        keep_tx = keep_structures[old.tx_feedback]
        edge_renumber = np.cumsum(keep_edges) - 1
        recv_renumber = np.cumsum(keep_recv) - 1
        old_edge_count = old.edge_count
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
        for bucket, kernel in zip(old.batches, self._kernels):
            keep = keep_structures[bucket.feedback_indices]
            if not keep.any():
                continue
            batches.append(
                make_bucket(
                    bucket.arity,
                    bucket.feedback_indices[keep],
                    remap_pool(bucket.gather_all[..., keep]),
                    edge_renumber[bucket.scatter_all[:, keep]],
                    bucket.use_count_kernel,
                    incorrect_counts=bucket.incorrect_counts,
                )
            )
            kernels.append(type(kernel)(kernel.tables[:, keep]))
        self._kernels = kernels

        # Indexing the row axis leaves a strided copy; keep the state
        # C-contiguous for the sweeps.
        self._v2f = np.ascontiguousarray(self._v2f[:, keep_edges])
        self._f2v = np.ascontiguousarray(self._f2v[:, keep_edges])
        self._recv = np.ascontiguousarray(self._recv[:, keep_recv])
        self._prior_edges = np.ascontiguousarray(self._prior_edges[:, keep_edges])
        edge_mapping = old.edge_mapping[keep_edges]
        starts, segment_of_edge, segment_mapping = segment_plan(edge_mapping)
        self._post_priors = self._priors[:, segment_mapping]
        self._tx_pos = (np.cumsum(keep_tx) - 1)[self._tx_pos]
        self._live_plan = replace(
            old,
            edge_mapping=edge_mapping,
            edge_structure=old.edge_structure[keep_edges],
            segment_starts=starts,
            segment_of_edge=segment_of_edge,
            segment_mapping=segment_mapping,
            edge_count=new_edge_count,
            recv_count=int(keep_recv.sum()),
            recv_structure=old.recv_structure[keep_recv],
            tx_src=edge_renumber[old.tx_src[keep_tx]],
            tx_dest=recv_renumber[old.tx_dest[keep_tx]],
            tx_feedback=old.tx_feedback[keep_tx],
            tx_mapping=old.tx_mapping[keep_tx],
            batches=tuple(batches),
        )

    # -- the run ------------------------------------------------------------------------

    def run(self) -> Dict[str, Optional[EmbeddedResult]]:
        """Iterate every lane to its own convergence; one result per lane.

        Lanes without informative evidence map to ``None``.  Every other
        lane receives the :class:`EmbeddedResult` it computes alone —
        iteration count, convergence flag and transport statistics
        included.  A lane stops once its posterior change stays below
        tolerance for :func:`required_quiet_rounds` consecutive rounds; its
        result is the snapshot of that round, and its rows leave the
        state if other lanes keep running, so a run freezes them for good.
        """
        results: Dict[str, Optional[EmbeddedResult]] = {
            key: None for key in self.lane_keys
        }
        lane_count = len(self._keys)
        if not self._live.size:
            return results
        if self._live.size < lane_count:
            raise FeedbackError(
                "lanes of this engine froze in an earlier run; build a new engine"
            )
        options = self.options
        needed = np.asarray(
            [required_quiet_rounds(t.send_probability) for t in self._transports],
            dtype=np.int64,
        )[self._live]
        converged = np.zeros(lane_count, dtype=bool)
        rounds = np.zeros(lane_count, dtype=np.int64)
        final_change = np.zeros(lane_count)
        final: List[Optional[np.ndarray]] = [None] * lane_count
        quiet = np.zeros(self._live.size, dtype=np.int64)
        for round_number in range(1, options.max_rounds + 1):
            live = self._live
            change = self.run_round()
            quiet = np.where(change < options.tolerance, quiet + 1, 0)
            done = quiet >= needed
            if not done.any():
                continue
            values = self._lane_values()
            finished = live[done]
            converged[finished] = True
            rounds[finished] = round_number
            final_change[finished] = change[done]
            for position in np.flatnonzero(done).tolist():
                final[live[position]] = values[position]
            if done.all():
                break
            self._running[finished] = False
            self._compact()
            quiet, needed, change = quiet[~done], needed[~done], change[~done]
        else:
            # The round cap stopped the lanes still running.
            rounds[self._live] = options.max_rounds
            final_change[self._live] = change
            for lane, values in zip(self._live.tolist(), self._lane_values()):
                final[lane] = values
        if options.strict and not converged.all():
            stuck = ", ".join(
                self._keys[lane] for lane in np.flatnonzero(~converged).tolist()
            )
            raise ConvergenceError(
                f"embedded message passing did not converge within "
                f"{options.max_rounds} rounds for: {stuck}"
            )
        for lane, key in enumerate(self._keys):
            statistics = self._transports[lane].statistics
            results[key] = EmbeddedResult(
                posteriors=dict(zip(self._active_names(lane), final[lane].tolist())),
                iterations=int(rounds[lane]),
                converged=bool(converged[lane]),
                final_change=float(final_change[lane]),
                messages_attempted=statistics.attempted,
                messages_delivered=statistics.delivered,
            )
        return results
