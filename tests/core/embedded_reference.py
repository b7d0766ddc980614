"""The per-message loop engine, kept as the test oracle of the lane engine.

Production embedded message passing runs every lane through
:class:`~repro.core.batched.BatchedEmbeddedMessagePassing`, whose factor
sweeps are the plan IR's stacked kernels.  This is the dict-of-dicts state
it replaced, deliberately left slow and simple:

* ``f2v[mapping][feedback]`` holds the factor→variable messages at the
  variable's owner and ``v2f[mapping][feedback]`` the fresh variable→factor
  messages;
* ``received[peer][(feedback, mapping)]`` holds the last remote message a
  peer received for its replica of a feedback factor;
* factor messages come from the scalar ``Factor.message_to`` /
  ``CountFactor.message_to``, one directed message at a time, so the oracle
  shares no sweep code with the engine under test;
* drops are drawn with ``MessageTransport.send_mask(1)``, one transmission
  at a time, in transmission order (feedback → sender mapping → recipient).

Its posteriors sit within a few ulps of the engine's (the kernels group the
same products differently), so comparisons against it use a tolerance;
iteration counts, attempts and deliveries must match exactly.
"""

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.analysis import structure_feedbacks
from repro.core.embedded import (
    EmbeddedMessagePassing,
    EmbeddedOptions,
    EmbeddedResult,
    MessageTransport,
    required_quiet_rounds,
)
from repro.core.feedback import feedback_factor, mapping_owner, variable_name_for
from repro.core.schedules import PeriodicSchedule
from repro.exceptions import ConvergenceError, FeedbackError
from repro.factorgraph.messages import normalize, unit_message
from repro.factorgraph.variables import BinaryVariable


class ReferenceEmbedded:
    """Per-message embedded message passing over one attribute's feedback.

    Same constructor, ``run_round``, ``posteriors`` and ``run`` as
    :class:`~repro.core.embedded.EmbeddedMessagePassing`.
    """

    def __init__(
        self,
        feedbacks,
        priors=None,
        delta: float = 0.1,
        transport: Optional[MessageTransport] = None,
        options: Optional[EmbeddedOptions] = None,
        owners=None,
    ) -> None:
        self.options = options or EmbeddedOptions()
        self.transport = transport or MessageTransport()
        self.feedbacks = [f for f in feedbacks if f.is_informative]
        if not self.feedbacks:
            raise FeedbackError("embedded message passing needs informative feedback")
        self.attribute = self.feedbacks[0].attribute
        self.owners: Dict[str, str] = {}
        for feedback in self.feedbacks:
            for name in feedback.mapping_names:
                if name not in self.owners:
                    self.owners[name] = (
                        owners[name]
                        if owners is not None and name in owners
                        else mapping_owner(name)
                    )

        self.priors: Dict[str, np.ndarray] = {}
        for name in self.owners:
            if priors is None:
                prior = 0.5
            elif isinstance(priors, (int, float)):
                prior = float(priors)
            else:
                prior = float(priors.get(name, 0.5))
            self.priors[name] = np.clip(np.array([prior, 1.0 - prior]), 1e-9, 1.0)

        self.factors = {
            feedback.identifier: feedback_factor(
                feedback,
                delta,
                [
                    BinaryVariable(variable_name_for(name, self.attribute))
                    for name in feedback.mapping_names
                ],
            )
            for feedback in self.feedbacks
        }

        self.f2v: Dict[str, Dict[str, np.ndarray]] = {name: {} for name in self.owners}
        self.v2f: Dict[str, Dict[str, np.ndarray]] = {name: {} for name in self.owners}
        self.received: Dict[str, Dict[Tuple[str, str], np.ndarray]] = {}
        for feedback in self.feedbacks:
            for name in feedback.mapping_names:
                self.f2v[name][feedback.identifier] = unit_message(2)
                self.v2f[name][feedback.identifier] = unit_message(2)
            for peer in {self.owners[name] for name in feedback.mapping_names}:
                incoming = self.received.setdefault(peer, {})
                for name in feedback.mapping_names:
                    if self.owners[name] != peer:
                        incoming[(feedback.identifier, name)] = unit_message(2)

    @property
    def mapping_names(self) -> Tuple[str, ...]:
        return tuple(self.owners)

    def _variable_messages(self, selection) -> None:
        for name, per_feedback in self.v2f.items():
            if selection is not None and name not in selection:
                continue
            for feedback_id in per_feedback:
                message = self.priors[name].copy()
                for other_id, incoming in self.f2v[name].items():
                    if other_id != feedback_id:
                        message = message * incoming
                per_feedback[feedback_id] = normalize(message)

    def _exchange(self, selection) -> None:
        send = self.transport.send_mask
        for feedback in self.feedbacks:
            for name in feedback.mapping_names:
                if selection is not None and name not in selection:
                    continue
                sender = self.owners[name]
                message = self.v2f[name][feedback.identifier]
                for other in feedback.mapping_names:
                    recipient = self.owners[other]
                    if recipient == sender or not send(1)[0]:
                        continue
                    self.received[recipient][(feedback.identifier, name)] = message.copy()

    def _factor_messages(self) -> None:
        fresh: List[Tuple[str, str, np.ndarray]] = []
        for feedback in self.feedbacks:
            factor = self.factors[feedback.identifier]
            for target in feedback.mapping_names:
                owner = self.owners[target]
                incoming = {}
                for other in feedback.mapping_names:
                    if other == target:
                        continue
                    if self.owners[other] == owner:
                        message = self.v2f[other][feedback.identifier]
                    else:
                        message = self.received[owner][(feedback.identifier, other)]
                    incoming[variable_name_for(other, self.attribute)] = message
                fresh.append(
                    (
                        target,
                        feedback.identifier,
                        normalize(
                            factor.message_to(
                                variable_name_for(target, self.attribute), incoming
                            )
                        ),
                    )
                )
        for target, feedback_id, message in fresh:
            self.f2v[target][feedback_id] = message

    def posteriors(self) -> Dict[str, float]:
        result: Dict[str, float] = {}
        for name in self.owners:
            belief = self.priors[name].copy()
            for incoming in self.f2v[name].values():
                belief = belief * incoming
            result[name] = float(normalize(belief)[0])
        return result

    def run_round(self, mapping_names: Optional[Iterable[str]] = None) -> float:
        selection = set(mapping_names) if mapping_names is not None else None
        before = self.posteriors()
        self._variable_messages(selection)
        self._exchange(selection)
        self._factor_messages()
        after = self.posteriors()
        return max(abs(after[name] - before[name]) for name in after)

    def run(self) -> EmbeddedResult:
        needed = required_quiet_rounds(self.transport.send_probability)
        quiet = 0
        converged = False
        change = float("inf")
        rounds = 0
        for rounds in range(1, self.options.max_rounds + 1):
            change = self.run_round()
            quiet = quiet + 1 if change < self.options.tolerance else 0
            if quiet >= needed:
                converged = True
                break
        if not converged and self.options.strict:
            raise ConvergenceError(
                f"reference run did not converge within {self.options.max_rounds} rounds"
            )
        stats = self.transport.statistics
        return EmbeddedResult(
            posteriors=self.posteriors(),
            iterations=rounds,
            converged=converged,
            final_change=change,
            messages_attempted=stats.attempted,
            messages_delivered=stats.delivered,
        )


def assert_matches_reference(result, reference, tolerance: float = 1e-9) -> None:
    """An engine result equals the reference's within ``tolerance``, with
    identical iterations, convergence, attempts and deliveries."""
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert result.messages_attempted == reference.messages_attempted
    assert result.messages_delivered == reference.messages_delivered
    assert set(result.posteriors) == set(reference.posteriors)
    for name, value in reference.posteriors.items():
        assert abs(result.posteriors[name] - value) <= tolerance, name


def assert_trajectory_matches_reference(build, tolerance: float = 1e-12):
    """Step the lane engine under the periodic schedule and check that it
    replays the reference round by round; return the schedule's report.

    ``build(engine_class)`` makes a fresh engine of either class over one
    evidence set, with a freshly seeded transport.  Run for its
    ``max_rounds`` periods, the schedule must stop where the reference's
    own :meth:`ReferenceEmbedded.run` stops, with its convergence flag,
    attempts and deliveries, and after every round its posteriors (key
    order included) must sit within ``tolerance`` of a reference stepped
    alongside.
    """
    engine = build(EmbeddedMessagePassing)
    report = PeriodicSchedule(engine).run(engine.options.max_rounds)
    result = build(ReferenceEmbedded).run()
    assert (report.rounds, report.converged) == (result.iterations, result.converged)
    assert (report.messages_attempted, report.messages_delivered) == (
        result.messages_attempted,
        result.messages_delivered,
    )
    stepped = build(ReferenceEmbedded)
    for posteriors in report.posterior_history:
        stepped.run_round()
        expected = stepped.posteriors()
        assert list(posteriors) == list(expected)
        for name, value in expected.items():
            assert abs(posteriors[name] - value) <= tolerance, name
    return report


def _reference_run(assessor, feedbacks, attribute):
    informative = [feedback for feedback in feedbacks if feedback.is_informative]
    if not informative:
        return None
    return ReferenceEmbedded(
        informative,
        priors={
            name: assessor.priors.prior(name, attribute)
            for feedback in informative
            for name in feedback.mapping_names
        },
        delta=assessor._delta_for(attribute),
        transport=MessageTransport(assessor.send_probability, seed=assessor.seed),
        options=assessor.options,
    ).run()


def reference_assessment(assessor, attribute: str):
    """The reference run of ``assessor``'s global evidence for ``attribute``,
    configured like the assessor's own lane (``None`` without informative
    evidence)."""
    return _reference_run(
        assessor, assessor.structure_cache.evidence_for(attribute).feedbacks, attribute
    )


def reference_local_view(assessor, origin: str, attribute: str) -> Dict[str, float]:
    """``origin``'s §4.5 view computed by the reference over the structures
    of the assessor's neighbourhood cache, resolved like the assessor's."""
    cache = assessor.neighborhood_cache
    feedbacks = structure_feedbacks(*cache.structures_for(origin), attribute)
    result = _reference_run(assessor, feedbacks, attribute)
    return assessor._resolve_local_view(
        origin,
        attribute,
        cache.unmappable(attribute),
        result.posteriors if result is not None else {},
    )
