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

One engine, one lane
--------------------
:class:`EmbeddedMessagePassing` is a single lane of the lane engine
:class:`~repro.core.batched.BatchedEmbeddedMessagePassing`: construction
lowers the informative feedback to a
:class:`~repro.factorgraph.plan.SweepPlan` the way the assessor does
(:func:`~repro.core.batched.compile_assessment_plan`, each mapping owned by
its source peer), lowers the evidence and a prior dict the way every lane
is lowered (:func:`~repro.core.batched.lower_feedbacks`,
:func:`~repro.core.batched.lower_priors`) and binds them to one
:class:`~repro.core.batched.AssessmentLane` carrying the caller's
transport.  The lane engine holds the message state; this class
keeps none of its own.  The peers, owners and remote-message counts it
reports are read off the plan's owners and transmission list.  The
transport, options and result types are the lane engine's, re-exported
here.

One lowering feeds the plan IR: structure lists, compiled by
:func:`~repro.factorgraph.plan.compile_sweep_plan`, with lanes placed on
slices of the plan's row space by
:class:`~repro.core.batched.BatchedEmbeddedMessagePassing` — one slice per
attribute, or one shared block-diagonal slice of per-origin lanes.  It
serves every embedded run: this class, the assessor's global and local
views, the EM rounds.

The layering and determinism invariants this lowering rests on — engines
import kernels from the plan surface only, discovery flows through the
network's snapshot, rng streams are explicitly seeded — are stated
normatively in ``ARCHITECTURE.md`` at the repository root and enforced
mechanically by ``repro-lint`` (:mod:`repro.lintkit`).  One layer *up*, the
structures every lowering consumes are the per-origin walks of the
network's :class:`~repro.pdms.discovery.TopologySnapshot`, which also lists
the global view from them.

The *kernel crossover rule* is stated once, in the plan IR: a feedback
factor with ``arity >=`` :data:`repro.constants.COUNT_KERNEL_MIN_ARITY`
mappings is evaluated in count space (``StackedCountFactorBatch``) from the
``arity + 1`` count-value vector in O(arity) per message, which lets every
run handle structures far beyond the dense limit of
:data:`repro.constants.MAX_COMPILED_ARITY` slots; below the crossover the
dense ``StackedFactorBatch`` einsum over ``(2,)**arity`` tables runs (the
constant's comment gives the measurements behind the choice).
Either way a bucket sweeps in one path: one gather, one ``messages_all``
kernel call, one normalisation and one scatter.

Rng-stream reproducibility contract: the transport's ``random.Random``
uniforms are consumed in transmission order (structure → sender mapping →
recipient), only for informative transmissions, so a seeded run is
reproducible and makes the same drop decisions as a per-message loop of
one-message :meth:`MessageTransport.send_mask` calls in that order.  A
perfectly reliable transport draws nothing and seeds no stream.

Plan-IR equivalence contract
----------------------------
The factor→variable sweep of every round runs the kernels re-exported by
:mod:`repro.factorgraph.plan` — the batched einsum / count-space kernels,
whose all-targets ``messages_all`` equals their per-target
``messages_toward`` bit for bit.
They evaluate exactly the sum–product expression the scalar
:meth:`repro.factorgraph.factors.Factor.message_to` evaluates, so
posteriors agree with the centralised loops oracle
(:class:`~repro.factorgraph.sum_product.SumProduct`) to floating-point
accuracy.  Convergence defaults (tolerance, round cap, seeding) are shared
with it through :mod:`repro.constants`, and both stop after
:func:`required_quiet_rounds` consecutive quiet rounds.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Mapping as TMapping, Optional, Tuple

from ..exceptions import FeedbackError
from ..factorgraph.plan import SweepPlan
from ..factorgraph.sum_product import required_quiet_rounds
from .batched import (
    AssessmentLane,
    BatchedEmbeddedMessagePassing,
    EmbeddedOptions,
    EmbeddedResult,
    MessageTransport,
    TransportStatistics,
    compile_assessment_plan,
    lower_feedbacks,
    lower_priors,
)
from .feedback import Feedback

__all__ = [
    "MessageTransport",
    "TransportStatistics",
    "EmbeddedOptions",
    "EmbeddedResult",
    "EmbeddedMessagePassing",
    "required_quiet_rounds",
]


class EmbeddedMessagePassing:
    """Decentralised sum–product over one attribute's feedback: one lane.

    Parameters
    ----------
    feedbacks:
        Informative feedback evidence (all for the same attribute).
    priors:
        Prior beliefs (dict by mapping name, single float, or None for the
        0.5 default).  A :class:`~repro.core.beliefs.PriorBeliefStore` is
        keyed by attribute too, so read its priors into a dict first (the
        lane engine rejects a store).
    delta:
        Error-compensation probability Δ used in all feedback factors.
    transport:
        Unreliable message transport; defaults to a perfectly reliable one.
    options:
        Iteration control.
    """

    def __init__(
        self,
        feedbacks: Iterable[Feedback],
        priors: TMapping[str, float] | float | None = None,
        delta: float = 0.1,
        transport: Optional[MessageTransport] = None,
        options: Optional[EmbeddedOptions] = None,
    ) -> None:
        self.options = options or EmbeddedOptions()
        self.transport = transport or MessageTransport()
        self.delta = delta
        informative = tuple(f for f in feedbacks if f.is_informative)
        if not informative:
            raise FeedbackError("embedded message passing needs informative feedback")
        self.attribute = informative[0].attribute
        self.plan: SweepPlan = compile_assessment_plan(
            [(f.identifier, f.mapping_names) for f in informative]
        )
        if isinstance(priors, Mapping):
            priors = lower_priors(self.plan, priors)
        self._lane = AssessmentLane(
            key=self.attribute,
            codes=lower_feedbacks(self.plan, informative),
            priors=priors,
            delta=delta,
            transport=self.transport,
        )
        self._engine = BatchedEmbeddedMessagePassing(
            self.plan, [self._lane], options=self.options
        )

    @property
    def mapping_names(self) -> Tuple[str, ...]:
        """All mappings with a correctness variable in the model."""
        return self.plan.mapping_names

    @property
    def peer_names(self) -> Tuple[str, ...]:
        """Peers owning at least one modelled mapping."""
        return tuple(dict.fromkeys(self.plan.owners.values()))

    @property
    def remote_message_count(self) -> int:
        """Remote transmissions one full round attempts (the paper's
        ``Σ_ci (l_ci − 1)`` summed over all peers)."""
        return int(self.plan.tx_src.size)

    def posteriors(self) -> Dict[str, float]:
        """Current posterior P(correct) of every mapping variable."""
        return self._engine.posteriors()[self._lane.key]

    def run_round(self, mapping_names: Optional[Iterable[str]] = None) -> float:
        """Run one full round; return the largest posterior change.

        ``mapping_names`` restricts phases 1–2 to the given mappings — the
        primitive the lazy schedule uses to piggyback on query traffic.
        """
        return float(self._engine.run_round(mapping_names)[0])

    def run(self) -> EmbeddedResult:
        """Iterate rounds until convergence or ``max_rounds``.

        Under message loss a single quiet round may simply mean the
        informative messages were dropped, so convergence requires the
        posterior change to stay below tolerance for
        :func:`required_quiet_rounds` consecutive rounds.
        """
        return self._engine.run()[self._lane.key]
