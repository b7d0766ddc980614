"""Mapping quality assessment and θ-based routing decisions.

The :class:`MappingQualityAssessor` is the user-facing entry point of the
core contribution.  Given a PDMS network it

1. gathers cycle / parallel-path evidence for the attributes of interest
   through a :class:`~repro.core.analysis.StructureCache`, so the
   exponential structure enumeration runs at most once per topology version
   (and after a change only for the origins it touched) instead of once per
   attribute and per EM round, and each structure is evaluated once per
   attribute and version,
2. runs the decentralised embedded message passing — all attributes at once
   as lanes of one :class:`~repro.core.batched.BatchedEmbeddedMessagePassing`
   over one compiled :class:`~repro.factorgraph.plan.SweepPlan` per network
   version,
3. exposes the posterior correctness probabilities, both programmatically
   and as a quality oracle pluggable into the
   :class:`~repro.pdms.routing.QueryRouter`, and
4. optionally folds the posteriors back into the peers' prior beliefs
   (EM update, §4.4).

Mappings whose source schema declares an attribute but that provide no
correspondence for it get probability zero for that attribute (the ⊥ rule
of §3.2.1); mappings with no evidence at all fall back to their prior.
Topology mutations and correspondence edits
(:meth:`~repro.pdms.network.PDMSNetwork.change_correspondences`) bump
:attr:`~repro.pdms.network.PDMSNetwork.version` and refresh the structures,
their evidence and every answer automatically, re-walking only the origins
a change touches; call :meth:`MappingQualityAssessor.invalidate` after
out-of-band network surgery.

Besides the global (experimenter's) view, the assessor exposes the fully
decentralised per-peer decision of §4.5: :meth:`assess_local` judges one
origin's own outgoing mappings from the evidence its own probes can see,
and :meth:`assess_locals` / :meth:`assess_local_all` run that decision for
many origins at once — one neighbourhood read per (origin, network
version) through a second :class:`~repro.core.analysis.StructureCache`
and one lane-engine run with one disjoint lane per origin.  Each origin's
share of that run is a cached *block* (its instance names, owners,
compiled one-origin plan and lowered evidence — int8 kind codes — per
attribute), compiled once per walk of the origin and carried across
versions with the walk; a many-origin run assembles its plan from the
blocks.  Every local run fills the *local-view cache*, keyed by (origin,
attribute) and valid while the topology version and the prior store's
:attr:`~repro.core.beliefs.PriorBeliefStore.version` hold; the local
routing oracle (:meth:`local_probability`) reads it and runs one lane per
miss.  The global assessments are keyed on the topology only, so a prior
write reaches :meth:`probability` when the attribute is next assessed.
Both views share the same resolution order (⊥ rule → posterior → prior),
and the per-call views (:meth:`assess_attribute`, :meth:`assess_local`)
are one-lane calls of the stacked ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping as TMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..constants import DEFAULT_SEED, DEFAULT_TTL
from ..exceptions import FeedbackError, ReproError
from ..factorgraph.plan import SweepPlan, assemble_sweep_plan
from ..mapping.mapping import Mapping
from ..pdms.network import PDMSNetwork
from ..pdms.probing import MappingCycle, ParallelPaths
from ..pdms.routing import QueryRouter, RoutingPolicy
from .analysis import (
    NetworkEvidence,
    StructureCache,
    structure_feedbacks,
    structure_signatures,
)
from .batched import (
    AssessmentLane,
    BatchedEmbeddedMessagePassing,
    EmbeddedOptions,
    EmbeddedResult,
    compile_assessment_plan,
    lower_feedbacks,
)
from .beliefs import PriorBeliefStore
from .feedback import compensation_probability, mapping_owner

__all__ = ["AttributeAssessment", "MappingQualityAssessor"]


@dataclass
class AttributeAssessment:
    """Inference outcome for a single attribute."""

    attribute: str
    evidence: NetworkEvidence
    result: Optional[EmbeddedResult]
    posteriors: Dict[str, float]
    unmappable: Tuple[str, ...]

    @property
    def converged(self) -> bool:
        return self.result.converged if self.result is not None else True

    @property
    def iterations(self) -> int:
        return self.result.iterations if self.result is not None else 0


@dataclass(frozen=True)
class _OriginBlock:
    """One origin's share of the per-origin view, compiled from its walks.

    ``signatures`` are the origin's structures in evidence order, their
    mapping names replaced by per-origin instances
    (:meth:`MappingQualityAssessor._instance_name`) so that blocks of
    different origins share no mapping; ``names`` maps each instance back
    to its mapping, in the order of ``plan.mapping_names``; ``plan`` is the
    compiled one-origin plan.  A block stays valid while the neighbourhood
    cache hands out the very same ``cycles`` and ``parallel_paths`` tuples,
    and so do its lowered per-attribute kind codes (:meth:`codes_for`): the
    walks hold the very mapping objects they were walked on, and a
    correspondence change re-walks every origin whose walks hold the
    changed mapping.
    """

    cycles: Tuple[MappingCycle, ...]
    parallel_paths: Tuple[ParallelPaths, ...]
    signatures: Tuple[Tuple[str, Tuple[str, ...]], ...]
    names: TMapping[str, str]
    plan: SweepPlan
    codes: Dict[str, np.ndarray] = field(default_factory=dict)

    def codes_for(self, attribute: str) -> np.ndarray:
        """The block's structures evaluated for ``attribute`` and lowered
        against its plan (:func:`~repro.core.batched.lower_feedbacks`): one
        read-only int8 kind code per structure, memoised per attribute for
        the life of the block.  The feedbacks are not kept."""
        codes = self.codes.get(attribute)
        if codes is None:
            codes = lower_feedbacks(
                self.plan,
                structure_feedbacks(
                    self.cycles, self.parallel_paths, attribute, self.signatures
                ),
            )
            codes.flags.writeable = False
            self.codes[attribute] = codes
        return codes


class MappingQualityAssessor:
    """Derives P(mapping correct) per attribute and answers θ decisions.

    Every sweep is one :class:`~repro.core.batched.BatchedEmbeddedMessagePassing`
    run: multi-attribute sweeps (:meth:`assess_attributes`,
    :meth:`assess_all_attributes`, the EM loop of :meth:`update_priors`)
    make one lane per attribute over a plan compiled once per network
    version, and the decentralised views (:meth:`assess_locals`,
    :meth:`assess_local_all`) one disjoint lane per origin over a plan
    assembled from per-origin blocks.  :meth:`assess_attribute` and
    :meth:`assess_local` are one-lane calls of those two.

    Parameters
    ----------
    network:
        The PDMS under assessment.
    priors:
        Prior belief store shared with the peers; created empty (all priors
        at the maximum-entropy 0.5) when omitted.
    delta:
        Error-compensation probability Δ.  When ``None`` it is derived per
        attribute count of the network's schemas via
        :func:`~repro.core.feedback.compensation_probability`.
    ttl:
        Probe TTL used when gathering cycles and parallel paths.
    send_probability / seed:
        Reliability of the simulated transport used by the embedded runs.
        ``seed`` defaults to :data:`repro.constants.DEFAULT_SEED` so lossy
        assessments are reproducible unless an explicit seed is supplied
        (``seed=None`` opts into OS entropy).
    options:
        Iteration control for the embedded runs.
    """

    def __init__(
        self,
        network: PDMSNetwork,
        priors: Optional[PriorBeliefStore] = None,
        delta: Optional[float] = 0.1,
        ttl: int = DEFAULT_TTL,
        send_probability: float = 1.0,
        seed: Optional[int] = DEFAULT_SEED,
        options: Optional[EmbeddedOptions] = None,
        include_parallel_paths: Optional[bool] = None,
    ) -> None:
        self.network = network
        # Note: an empty PriorBeliefStore is falsy (it defines __len__), so
        # an explicit None check is required here.
        self.priors = priors if priors is not None else PriorBeliefStore()
        self.delta = delta
        self.ttl = ttl
        self.send_probability = send_probability
        self.seed = seed
        self.options = options or EmbeddedOptions()
        # Whether parallel-path feedback is gathered in addition to cycles.
        # ``None`` defaults to the network's directedness (§3.3).  On very
        # dense networks the number of parallel-path structures explodes and
        # the loopy approximation degrades — the paper's advice (§5.1.2) is
        # to bound the evidence considered; passing ``False`` here keeps the
        # cycle evidence only.
        self.include_parallel_paths = include_parallel_paths
        # One cache per view, so each view keeps its own statistics; both
        # read the walks of the network's shared snapshot.
        self.structure_cache = StructureCache(
            network, ttl=ttl, include_parallel_paths=include_parallel_paths
        )
        self.neighborhood_cache = StructureCache(
            network, ttl=ttl, include_parallel_paths=include_parallel_paths
        )
        # Each attribute's latest global assessment with the structure-cache
        # key it was made under; a read under another key re-assesses.
        self._assessments: Dict[
            str, Tuple[Tuple[int, int, bool], AttributeAssessment]
        ] = {}
        self._plan: Optional[SweepPlan] = None
        self._plan_key: Optional[Tuple[int, int, bool]] = None
        #: How many times the global :class:`SweepPlan` was compiled —
        #: exactly once per (network version, ttl, parallel-path flag),
        #: however many attributes and EM rounds are assessed.
        self.plan_compile_count = 0
        # The per-origin view's blocks, and the neighbourhood-cache key
        # they were last checked against (blocks of removed peers go then).
        self._blocks: Dict[str, _OriginBlock] = {}
        self._blocks_key: Optional[Tuple[int, int, bool]] = None
        #: Block compiles of the local view — one per origin and walk:
        #: a block is compiled the first time its origin is assessed and
        #: again only when a topology change re-walks the origin (or after
        #: :meth:`invalidate`), however many attributes, EM rounds and
        #: origins tuples are assessed locally.  Plans of several origins
        #: are assembled from the blocks, not compiled.
        self.local_plan_compile_count = 0
        #: Per-round edge-row counts of the most recent
        #: :meth:`assess_locals` run — the lane engine's compaction
        #: trajectory (shrinks as origins converge); empty until a local
        #: sweep has run.
        self.last_local_round_edge_counts: Tuple[int, ...] = ()
        # The local-view cache: every (origin, attribute) view a local run
        # made, valid while the neighbourhood-cache key and the prior
        # store's version it was made under hold (:meth:`_local_views`).
        self._views: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._views_key: Optional[Tuple[Tuple[int, int, bool], int]] = None
        # The global view's evidence lowered against the compiled plan, per
        # attribute; dropped with the plan.
        self._codes: Dict[str, np.ndarray] = {}

    # -- inference --------------------------------------------------------------------------

    def _delta_for(self, attribute: str) -> float:
        if self.delta is not None:
            return self.delta
        counts = [
            len(peer.schema)
            for peer in self.network.peers
            if peer.schema.has_attribute(attribute)
        ]
        average = sum(counts) / len(counts) if counts else 10
        return compensation_probability(max(int(round(average)), 2))

    def assess_attribute(self, attribute: str) -> AttributeAssessment:
        """Run the full pipeline (probe → factor graph → embedded BP) for one
        attribute and cache the outcome: a one-lane
        :meth:`assess_attributes` call.
        """
        return self.assess_attributes([attribute])[attribute]

    def _resolve(
        self, mapping: Mapping, attribute: str, posteriors: TMapping[str, float]
    ) -> Optional[float]:
        """The resolution rule of every answer, both views alike; ``None``
        when ``attribute`` is out of ``mapping``'s scope.

        In scope are the mappings that map the attribute and those whose
        source schema declares it.  The value is 0.0 unless the mapping
        maps the attribute (the ⊥ rule), otherwise its posterior in
        ``posteriors``, otherwise its prior belief.
        """
        if mapping.maps_attribute(attribute):
            posterior = posteriors.get(mapping.name)
            if posterior is None:
                return self.priors.prior(mapping.name, attribute)
            return posterior
        if self.network.peer(mapping.source).schema.has_attribute(attribute):
            return 0.0
        return None

    def _resolve_local_view(
        self, origin: str, attribute: str, posteriors: TMapping[str, float]
    ) -> Dict[str, float]:
        """The §4.5 decision: :meth:`_resolve` over ``origin``'s own
        outgoing mappings in scope, against the origin's own posteriors."""
        view: Dict[str, float] = {}
        for mapping in self.network.peer(origin).outgoing_mappings:
            value = self._resolve(mapping, attribute, posteriors)
            if value is not None:
                view[mapping.name] = value
        return view

    def assess_local(self, origin: str, attribute: str) -> Dict[str, float]:
        """Posteriors for ``origin``'s own outgoing mappings, from its local view.

        This is the fully decentralised, per-peer decision of §4.5: only the
        cycles and parallel paths discovered by probing from ``origin`` are
        used, and only the origin's *own* outgoing mappings are judged.  Use
        this (rather than :meth:`assess_attribute`) when peers use
        heterogeneous attribute names, e.g. the EON ontology network — the
        attribute is interpreted in the origin's schema.

        The returned dict follows the module's resolution order for every
        own mapping in scope: 0.0 under the ⊥ rule, the posterior where the
        local run produced one, the prior belief otherwise.  A one-lane
        :meth:`assess_locals` call; batch over origins with
        :meth:`assess_locals` / :meth:`assess_local_all`.
        """
        return self.assess_locals([origin], attribute)[origin]

    @staticmethod
    def _instance_name(origin: str, mapping_name: str) -> str:
        """Per-origin mapping instance name of the block-diagonal local plan.

        The origin is length-prefixed, so distinct (origin, mapping) pairs
        always get distinct instances — whatever the peer names hold — and
        the blocks of different origins share no mapping.  Instances are
        mapped back through their block, never parsed.
        """
        return f"{len(origin)}:{origin}::{mapping_name}"

    def _block(self, origin: str) -> _OriginBlock:
        """``origin``'s block for its current walks.

        Compiled when the origin is first assessed and again only when the
        neighbourhood cache hands out other walk tuples than the block's —
        a snapshot that carried the origin's walks hands out the same ones.
        """
        cycles, parallel_paths = self.neighborhood_cache.structures_for(origin)
        block = self._blocks.get(origin)
        if (
            block is not None
            and block.cycles is cycles
            and block.parallel_paths is parallel_paths
        ):
            return block
        names: Dict[str, str] = {}
        signatures = []
        for identifier, mapping_names in structure_signatures(cycles, parallel_paths):
            instances = tuple(
                self._instance_name(origin, name) for name in mapping_names
            )
            names.update(zip(instances, mapping_names))
            signatures.append((identifier, instances))
        plan = compile_assessment_plan(
            signatures,
            owners={instance: mapping_owner(name) for instance, name in names.items()},
        )
        block = _OriginBlock(cycles, parallel_paths, tuple(signatures), names, plan)
        self._blocks[origin] = block
        self.local_plan_compile_count += 1
        return block

    def _local_assessment_plan(
        self, origins: Sequence[str]
    ) -> Tuple[SweepPlan, Dict[str, range]]:
        """Plan of the per-origin view over ``origins``, and the range of
        each origin's structures in it.

        Mapping names are replaced by per-origin *instances*
        (:meth:`_instance_name`) so the blocks are disjoint — each origin's
        local inference is an independent subproblem, exactly as in the
        per-call runs — and the lane engine packs them block-diagonally on
        one slice.  Each block is compiled once per walk of its origin
        (:meth:`_block`); one origin runs on its block's plan unchanged,
        several on the block-diagonal plan
        :func:`~repro.factorgraph.plan.assemble_sweep_plan` builds from
        their blocks in origin order.  Each block keeps its origin's probe
        enumeration order and cycle orientation, so per-origin lanes
        consume their rng streams exactly like one-lane runs.
        """
        # One neighbourhood plan for every pending origin, not one each.
        self.neighborhood_cache.warm(origins)
        key = self.neighborhood_cache.current_key()
        if key != self._blocks_key:
            self._blocks_key = key
            for origin in [o for o in self._blocks if not self.network.has_peer(o)]:
                del self._blocks[origin]
        plans = []
        spans: Dict[str, range] = {}
        start = 0
        for origin in origins:
            plan = self._block(origin).plan
            plans.append(plan)
            spans[origin] = range(start, start + plan.structure_count)
            start += plan.structure_count
        return assemble_sweep_plan(plans), spans

    def _local_views(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """The local-view cache, keyed by (origin, attribute); emptied first
        when the neighbourhood-cache key or the prior store's
        :attr:`~repro.core.beliefs.PriorBeliefStore.version` moved since
        it was filled."""
        key = (self.neighborhood_cache.current_key(), self.priors.version)
        if key != self._views_key:
            self._views_key = key
            self._views = {}
        return self._views

    def assess_locals(
        self, origins: Iterable[str], attribute: str
    ) -> Dict[str, Dict[str, float]]:
        """The §4.5 decision of several origins in one stacked run.

        Every peer judges only its own outgoing mappings from the structures
        its own probes discover; all origins run simultaneously as disjoint
        lanes of one :class:`~repro.core.batched.BatchedEmbeddedMessagePassing`
        over the plan assembled from their blocks, each lane drawing from
        its own freshly seeded rng stream, so each origin's view equals its
        one-lane run bit for bit.  Probing is amortised to at most one
        neighbourhood walk per (origin, network version), and none for an
        origin whose walks the network's snapshot carried over; a block is
        compiled once per walk of its origin and lowers its evidence once
        per attribute, so a call on seen walks and attributes compiles and
        evaluates nothing and otherwise does only the work that depends on
        the priors: reading them, and the engine run.

        The call always runs, and every view it makes goes into the
        local-view cache :meth:`local_probability` reads; the returned
        dicts are the caller's own copies.
        """
        origin_list = list(dict.fromkeys(origins))
        plan, spans = self._local_assessment_plan(origin_list)
        blocks = [self._blocks[origin] for origin in origin_list]
        delta = self._delta_for(attribute)
        prior = self.priors.prior
        # One prior array by plan mapping id, in block order, for all lanes.
        priors = np.fromiter(
            (
                prior(name, attribute)
                for block in blocks
                for name in block.names.values()
            ),
            dtype=float,
            count=plan.mapping_count,
        )
        lanes = [
            AssessmentLane(
                key=origin,
                codes=block.codes_for(attribute),
                structure_indices=spans[origin],
                priors=priors,
                delta=delta,
            )
            for origin, block in zip(origin_list, blocks)
        ]
        engine = BatchedEmbeddedMessagePassing(
            plan,
            lanes,
            send_probability=self.send_probability,
            seed=self.seed,
            options=self.options,
        )
        results = engine.run()
        self.last_local_round_edge_counts = tuple(engine.round_edge_counts)
        cache = self._local_views()
        views: Dict[str, Dict[str, float]] = {}
        for origin, block in zip(origin_list, blocks):
            result = results[origin]
            names = block.names
            posteriors = (
                {names[instance]: value for instance, value in result.posteriors.items()}
                if result is not None
                else {}
            )
            view = self._resolve_local_view(origin, attribute, posteriors)
            cache[(origin, attribute)] = view
            views[origin] = dict(view)
        return views

    def assess_local_all(self, attribute: str) -> Dict[str, Dict[str, float]]:
        """Every peer's own-mapping posteriors for ``attribute``, batched.

        One :meth:`assess_locals` call over every peer: one plan assembled
        from the cached per-origin blocks (a block is compiled only for an
        origin whose walks changed), one stacked engine run — the traffic
        model of a live PDMS, where *all* peers assess their mappings, not
        just an experimenter's global index.  Like every local run it
        always runs and fills the local-view cache, so a
        :meth:`local_router` over the same attribute, topology version and
        priors runs no second sweep; the returned dicts are the caller's
        own copies.
        """
        return self.assess_locals(self.network.peer_names, attribute)

    def assess_mapping(self, mapping_name: str, attributes: Optional[Iterable[str]] = None) -> float:
        """Coarse-granularity quality of a whole mapping (§4.1).

        The paper's coarse mode keeps a single correctness value per mapping
        instead of one per attribute.  We derive it from the fine-grained
        posteriors: the coarse value is the *mean* posterior over the
        attributes the mapping actually maps (attributes without evidence
        contribute their prior).  A mapping that is wrong for one attribute
        but right for ten others therefore degrades gracefully instead of
        being written off entirely; use :meth:`probability` directly when a
        per-attribute decision is needed.

        A mapping with no correspondences at all scores 0.0 (the coarse ⊥
        case); passing an explicitly empty ``attributes`` iterable raises
        :class:`~repro.exceptions.FeedbackError` rather than inventing an
        attribute name.
        """
        mapping = self.network.mapping(mapping_name)
        if attributes is None:
            targets = list(mapping.source_attributes)
            if not targets:
                # A mapping providing no correspondence at all preserves
                # nothing — the coarse analogue of the ⊥ rule.
                return 0.0
        else:
            targets = list(attributes)
            if not targets:
                raise FeedbackError(
                    f"assess_mapping({mapping_name!r}) needs at least one "
                    "attribute; pass attributes=None to average over all "
                    "mapped attributes"
                )
        values = [self.probability(mapping, attribute) for attribute in targets]
        return sum(values) / len(values)

    def assessment_plan(self) -> SweepPlan:
        """The compiled plan for the current cached structures.

        Compiled at most once per ``(network version, ttl, parallel-path
        flag)`` — the same key the structure cache refreshes on — and reused
        across attributes and EM rounds.  Structures of any arity compile:
        long cycles and parallel paths route through the count-space
        kernels instead of rejecting (the historical arity-25 cliff).
        """
        cycles, parallel_paths = self.structure_cache.structures()
        key = self.structure_cache.key
        if key == self._plan_key and self._plan is not None:
            return self._plan
        self._plan = compile_assessment_plan(
            structure_signatures(cycles, parallel_paths)
        )
        self._plan_key = key
        self._codes.clear()
        self.plan_compile_count += 1
        return self._plan

    def _evidence_codes(
        self, evidence: NetworkEvidence, plan: SweepPlan
    ) -> np.ndarray:
        """The global view's ``evidence`` lowered against the compiled
        ``plan``: once per (structure-cache key, attribute), like the
        structure cache's evidence memo it comes from."""
        codes = self._codes.get(evidence.attribute)
        if codes is None:
            codes = self._codes[evidence.attribute] = lower_feedbacks(
                plan, evidence.feedbacks
            )
        return codes

    def assess_attributes(self, attributes: Iterable[str]) -> Dict[str, AttributeAssessment]:
        """Assess several attributes (fine granularity).

        Every attribute runs simultaneously as one lane of the engine over
        the shared compiled plan, each lane with its own freshly seeded
        transport.
        """
        attribute_list = list(attributes)
        plan = self.assessment_plan()
        key = self.structure_cache.key
        evidences = {
            attribute: self.structure_cache.evidence_for(attribute)
            for attribute in attribute_list
        }
        prior = self.priors.prior
        lanes = [
            AssessmentLane(
                key=a,
                codes=self._evidence_codes(evidence, plan),
                priors=np.fromiter(
                    (prior(m, a) for m in plan.mapping_names),
                    dtype=float,
                    count=plan.mapping_count,
                ),
                delta=self._delta_for(a),
            )
            for a, evidence in evidences.items()
        ]
        engine = BatchedEmbeddedMessagePassing(
            plan,
            lanes,
            send_probability=self.send_probability,
            seed=self.seed,
            options=self.options,
        )
        results = engine.run()
        assessments: Dict[str, AttributeAssessment] = {}
        for attribute in attribute_list:
            evidence = evidences[attribute]
            result = results[attribute]
            assessment = AttributeAssessment(
                attribute=attribute,
                evidence=evidence,
                result=result,
                posteriors=result.posteriors if result is not None else {},
                unmappable=evidence.unmappable,
            )
            self._assessments[attribute] = (key, assessment)
            assessments[attribute] = assessment
        return assessments

    def assess_all_attributes(self) -> Dict[str, AttributeAssessment]:
        """Assess every attribute appearing in any peer schema.

        The factor tables and index plans are built exactly once per network
        version, however many attributes the universe holds.
        """
        return self.assess_attributes(self.network.attribute_universe())

    def _stale(self, attributes: Iterable[str]) -> List[str]:
        """The ``attributes`` with no assessment under the current
        structure-cache key (never assessed, or assessed on an older
        topology)."""
        key = self.structure_cache.current_key()
        return [
            attribute
            for attribute in attributes
            if attribute not in self._assessments
            or self._assessments[attribute][0] != key
        ]

    def assessment(self, attribute: str) -> AttributeAssessment:
        """The assessment of ``attribute`` on the current topology: the
        cached one while the network version (and so the structure-cache
        key) it was made under is current, a fresh
        :meth:`assess_attribute` otherwise.

        The key is the topology only, not the priors: after a prior write
        (:meth:`~repro.core.beliefs.PriorBeliefStore.set_prior`, or the EM
        step of :meth:`update_priors`) this still returns the assessment
        made on the earlier priors, until the attribute is assessed again.
        An EM loop reads each round's posteriors this way, and keying on
        the prior version would re-assess after every update.
        """
        if self._stale((attribute,)):
            return self.assess_attribute(attribute)
        return self._assessments[attribute][1]

    def invalidate(self) -> None:
        """Drop all cached state after out-of-band network surgery.

        Topology changes and correspondence edits made through the
        :class:`PDMSNetwork` API bump the network version, and every read
        re-probes and re-assesses on its own; out-of-band surgery on
        network internals is invisible to the version counter, so it needs
        this.  This clears the structure caches (global and
        per-origin, memoised evidence included) and the network's shared
        snapshot with its walks, the compiled global plan, the local view's
        blocks and their evidence, the assessment cache and the cached
        local views.
        """
        self.structure_cache.invalidate()
        self.neighborhood_cache.invalidate()
        self._assessments.clear()
        self._plan = None
        self._plan_key = None
        self._blocks.clear()
        self._blocks_key = None
        self._views = {}
        self._views_key = None
        self._codes.clear()

    # -- queries -----------------------------------------------------------------------------

    def probability(self, mapping: Mapping | str, attribute: str) -> float:
        """P(attribute preserved by mapping) — the router's quality measure.

        Resolution order (:meth:`_resolve`): ⊥ rule (no correspondence →
        0), posterior from the embedded run, otherwise the prior belief.  A
        name answers as its mapping does; an unknown name raises
        :class:`~repro.exceptions.PDMSError`.  The posterior is that of
        :meth:`assessment`, which is keyed on the topology only: a prior
        write changes this answer only once the attribute is assessed
        again (the prior fallback reads the live store).
        """
        if isinstance(mapping, str):
            mapping = self.network.mapping(mapping)
        value = self._resolve(
            mapping, attribute, self.assessment(attribute).posteriors
        )
        return 0.0 if value is None else value

    def is_erroneous(self, mapping: Mapping | str, attribute: str, theta: float = 0.5) -> bool:
        """Decision: flag the mapping as erroneous for ``attribute`` at θ."""
        if not 0.0 <= theta <= 1.0:
            raise ReproError(f"theta must be in [0, 1], got {theta}")
        return self.probability(mapping, attribute) <= theta

    def flagged_mappings(self, attribute: str, theta: float = 0.5) -> Tuple[str, ...]:
        """Mappings flagged as erroneous for ``attribute`` at threshold θ.

        Consistent with :meth:`is_erroneous` over the *full* mapping set of
        the network: every mapping for which the attribute is in scope —
        it maps the attribute, or its source schema declares it (the ⊥
        case) — is judged as :meth:`probability` judges it, so mappings
        without posterior evidence are flagged on their prior exactly as
        :meth:`is_erroneous` flags them, instead of silently escaping the
        scan.
        """
        if not 0.0 <= theta <= 1.0:
            raise ReproError(f"theta must be in [0, 1], got {theta}")
        posteriors = self.assessment(attribute).posteriors
        flagged = []
        for mapping in self.network.mappings:
            value = self._resolve(mapping, attribute, posteriors)
            if value is not None and value <= theta:
                flagged.append(mapping.name)
        return tuple(sorted(flagged))

    # -- integration -----------------------------------------------------------------------------

    def as_oracle(self):
        """Quality oracle compatible with :class:`~repro.pdms.routing.QueryRouter`."""

        def oracle(mapping: Mapping, attribute: str) -> float:
            return self.probability(mapping, attribute)

        return oracle

    def router(self, policy: Optional[RoutingPolicy] = None) -> QueryRouter:
        """A query router wired to this assessor's quality oracle."""
        return QueryRouter(self.network, policy=policy, quality_oracle=self.as_oracle())

    def local_probability(self, mapping: Mapping | str, attribute: str) -> float:
        """P(attribute preserved) as judged by the mapping's *own* peer.

        The decentralised counterpart of :meth:`probability`: the answer
        comes from the source peer's local view (§4.5), not from the global
        evidence index.  It is read from the local-view cache that every
        :meth:`assess_locals` run fills, keyed by (origin, attribute) and
        valid while the topology version (the neighbourhood-cache key) and
        the prior store's version are those it was made under — so a
        topology change, :meth:`update_priors` or any other prior write
        refreshes it.  A miss runs exactly one lane, the source's:
        ``assess_locals([source], attribute)``, whose view is bit-identical
        to the source's view in any many-origin run.  The resolution order
        is shared with the local views: ⊥ rule, local posterior, prior.
        """
        mapping_obj = (
            self.network.mapping(mapping) if isinstance(mapping, str) else mapping
        )
        source = mapping_obj.source
        view = self._local_views().get((source, attribute))
        if view is None:
            view = self.assess_locals([source], attribute)[source]
        value = self._resolve(mapping_obj, attribute, view)
        return 0.0 if value is None else value

    def as_local_oracle(self):
        """Quality oracle answering each hop from the forwarding peer's own
        local view — what a truly decentralised router consults."""

        def oracle(mapping: Mapping, attribute: str) -> float:
            return self.local_probability(mapping, attribute)

        return oracle

    def local_router(self, policy: Optional[RoutingPolicy] = None) -> QueryRouter:
        """A query router whose forwarding decisions use each peer's own
        decentralised assessment (backed by the batched local view)."""
        return QueryRouter(
            self.network, policy=policy, quality_oracle=self.as_local_oracle()
        )

    def update_priors(self, attributes: Optional[Iterable[str]] = None) -> Dict[Tuple[str, str], float]:
        """Fold the cached posteriors into the prior store (EM step, §4.4).

        ``attributes`` defaults to every attribute assessed so far.  Those
        not assessed on the current topology (never, or before the last
        version bump) are assessed first in one batched run, so an EM round
        over many attributes shares a single compiled plan and stacked
        engine.
        Returns the updated priors keyed by (mapping, attribute).

        Every recorded posterior bumps the prior store's
        :attr:`~repro.core.beliefs.PriorBeliefStore.version`, so the cached
        local views behind :meth:`local_probability` go stale with the
        step and the next read re-runs the asked lane on the new priors.
        The global assessments do not: they are keyed on the topology only
        (:meth:`assessment`), so after this step :meth:`probability` still
        answers the posteriors the step folded in (and, for mappings
        without one, the live prior) until the next assessment of the
        attribute.
        """
        updated: Dict[Tuple[str, str], float] = {}
        # Each attribute once, in order: a repeated name would fold its
        # posteriors into the running average twice.
        targets = list(
            dict.fromkeys(attributes) if attributes is not None else self._assessments
        )
        stale = self._stale(targets)
        if stale:
            self.assess_attributes(stale)
        for attribute in targets:
            _, assessment = self._assessments[attribute]
            for mapping_name, posterior in assessment.posteriors.items():
                updated[(mapping_name, attribute)] = self.priors.record_posterior(
                    mapping_name, attribute, posterior
                )
        return updated
