"""Evolving mapping networks: re-assessment under churn (§4.4).

The paper stresses that a PDMS never stands still: mappings are created,
modified and deleted all the time, and it is precisely this evolution that
feeds the EM-style prior updates — "peers get new posterior probabilities on
the correctness of the mappings as long as the network of mappings continues
to evolve".  This module provides a small driver for that lifecycle:

* events are the typed topology records of :mod:`repro.pdms.events`
  (:class:`~repro.pdms.events.MappingAdded` /
  :class:`~repro.pdms.events.MappingRemoved`) plus
  :class:`CorrespondenceChanged`, the data churn (corruption or repair of a
  single correspondence) that has no topology event;
* :class:`EvolvingPDMS` applies events to a network, re-runs the quality
  assessment for the affected attributes after every change, and folds the
  resulting posteriors into the shared :class:`PriorBeliefStore` — so that
  knowledge accumulated about a mapping survives later rounds, exactly as
  §4.4 prescribes.

The class is deliberately synchronous and in-process (one event at a time);
it models the *information* flow of an evolving PDMS, not its physical
concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..exceptions import PDMSError
from ..mapping.correspondence import Correspondence
from ..pdms.events import MappingAdded, MappingRemoved, apply as apply_topology
from ..pdms.network import PDMSNetwork
from .beliefs import PriorBeliefStore
from .quality import MappingQualityAssessor

__all__ = ["CorrespondenceChanged", "AssessmentRound", "EvolvingPDMS"]


@dataclass(frozen=True)
class CorrespondenceChanged:
    """Data churn of one correspondence.

    The correspondence of ``mapping_name`` for ``attribute`` is redirected
    to ``new_target``; ``is_correct`` is its new ground-truth label (a
    corruption when ``False``, a repair when ``True``).  Unlike the
    topology events it leaves every cycle and parallel path in place and
    only changes the evidence they carry.
    """

    mapping_name: str
    attribute: str
    new_target: str
    is_correct: bool

    def __post_init__(self) -> None:
        if not self.attribute or not self.new_target:
            raise PDMSError(
                "correspondence changes need an attribute and a new target"
            )


#: The churn an :class:`EvolvingPDMS` applies.
EvolutionEvent = Union[MappingAdded, MappingRemoved, CorrespondenceChanged]


@dataclass
class AssessmentRound:
    """What one event did to the beliefs.

    ``local_posteriors`` is populated only when the evolving PDMS tracks
    the decentralised view: per affected attribute, each origin peer's own
    §4.5 decision over its outgoing mappings, computed in one batched
    per-origin run.
    """

    event: EvolutionEvent
    assessed_attributes: Tuple[str, ...]
    posteriors: Dict[Tuple[str, str], float]
    updated_priors: Dict[Tuple[str, str], float]
    local_posteriors: Dict[str, Dict[str, Dict[str, float]]] = field(
        default_factory=dict
    )


class EvolvingPDMS:
    """Applies mapping churn and keeps beliefs up to date across rounds.

    Parameters
    ----------
    network:
        The live network; events mutate it in place.
    priors:
        Shared prior store; created fresh (maximum entropy) when omitted.
    track_local_views:
        When ``True``, every round additionally runs the batched
        decentralised assessment
        (:meth:`~repro.core.quality.MappingQualityAssessor.assess_local_all`)
        for the affected attributes — the traffic model of a live PDMS,
        where each peer re-judges its own mappings after churn — and records
        the per-origin views in :attr:`AssessmentRound.local_posteriors`.
    probe_executor / probe_workers:
        Discovery executor of the probe plans (``"serial"`` /
        ``"process"`` / an executor object / ``None`` for the configured
        default) and its pool size, forwarded to every assessor's structure
        caches — structure sets are identical across executors, so churn
        replays are invariant to the choice.
    shard_timeout / fault_plan:
        Fault policy of the probe fan-outs (per-shard deadline and chaos
        :class:`~repro.reliability.FaultPlan`), forwarded to every
        assessor — churn replays stay bit-identical under injected faults
        because the resilient executor re-executes or serially re-walks
        every disturbed shard.
    assessor_kwargs:
        Extra keyword arguments forwarded to every
        :class:`~repro.core.quality.MappingQualityAssessor` built after an
        event (``ttl``, ``delta``, ``include_parallel_paths``, ...).
    """

    def __init__(
        self,
        network: PDMSNetwork,
        priors: Optional[PriorBeliefStore] = None,
        track_local_views: bool = False,
        probe_executor: object = None,
        probe_workers: Optional[int] = None,
        shard_timeout: Optional[float] = None,
        fault_plan: object = None,
        **assessor_kwargs,
    ) -> None:
        self.network = network
        self.priors = priors if priors is not None else PriorBeliefStore()
        self.track_local_views = track_local_views
        self.assessor_kwargs = dict(
            assessor_kwargs,
            probe_executor=probe_executor,
            probe_workers=probe_workers,
            shard_timeout=shard_timeout,
            fault_plan=fault_plan,
        )
        self.history: List[AssessmentRound] = []

    # -- event application -------------------------------------------------------

    def _apply(self, event: EvolutionEvent) -> Tuple[str, ...]:
        """Mutate the network; return the attributes whose evidence changed."""
        if isinstance(event, (MappingAdded, MappingRemoved)):
            # Topology churn lowers onto the one shared transition the
            # event-sourced network replays — no parallel mutation path.
            mapping = apply_topology(self.network, event)
            return mapping.source_attributes
        if not isinstance(event, CorrespondenceChanged):
            raise PDMSError(f"no mapping-churn equivalent for event {event!r}")
        mapping = self.network.mapping(event.mapping_name)
        existing = mapping.correspondence_for(event.attribute)
        if existing is None:
            replacement = Correspondence(
                source_attribute=event.attribute,
                target_attribute=event.new_target,
                is_correct=event.is_correct,
                provenance="evolution",
            )
        else:
            replacement = existing.with_target(
                event.new_target, is_correct=event.is_correct
            )
        mapping._by_source[event.attribute] = replacement
        return (event.attribute,)

    # -- public API ----------------------------------------------------------------

    def apply_event(self, event: EvolutionEvent) -> AssessmentRound:
        """Apply one event, re-assess the affected attributes, update priors.

        Mapping additions / removals may come from anywhere — including a
        replicated event log such as a
        :class:`~repro.pdms.events.GossipJournal`; peer churn has no
        mapping-level equivalent and is rejected.  The affected attributes
        are assessed in one batched pass (one compiled plan, one stacked
        engine) rather than engine-per-attribute.
        """
        affected = self._apply(event)
        assessor = MappingQualityAssessor(
            self.network, priors=self.priors, **self.assessor_kwargs
        )
        posteriors: Dict[Tuple[str, str], float] = {}
        for attribute, assessment in assessor.assess_attributes(affected).items():
            for mapping_name, posterior in assessment.posteriors.items():
                posteriors[(mapping_name, attribute)] = posterior
        local_posteriors: Dict[str, Dict[str, Dict[str, float]]] = {}
        if self.track_local_views:
            # Every peer re-judges its own mappings after the event — one
            # stacked per-origin run per affected attribute.
            for attribute in affected:
                local_posteriors[attribute] = assessor.assess_local_all(attribute)
        updated = assessor.update_priors(affected)
        round_record = AssessmentRound(
            event=event,
            assessed_attributes=tuple(affected),
            posteriors=posteriors,
            updated_priors=updated,
            local_posteriors=local_posteriors,
        )
        self.history.append(round_record)
        return round_record

    def apply_events(self, events: Iterable[EvolutionEvent]) -> List[AssessmentRound]:
        """Apply a sequence of events, one assessment round each."""
        return [self.apply_event(event) for event in events]

    def current_belief(self, mapping_name: str, attribute: str) -> float:
        """The prior the peers currently hold for a (mapping, attribute) pair."""
        return self.priors.prior(mapping_name, attribute)
