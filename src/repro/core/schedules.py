"""Message-passing schedules: periodic and lazy (§4.3.1 / §4.3.2).

The embedded engine (:class:`~repro.core.embedded.EmbeddedMessagePassing`,
one lane of :class:`~repro.core.batched.BatchedEmbeddedMessagePassing`)
performs one *round* of decentralised sum–product per call; the schedules in
this module decide *when* rounds happen:

* :class:`PeriodicSchedule` — peers proactively exchange messages every
  ``tau`` time units, regardless of query traffic.  Suited to highly dynamic
  networks; costs up to ``Σ_ci (l_ci − 1)`` remote messages per peer per
  period (one per other mapping of every cycle through the peer).
* :class:`LazySchedule` — no dedicated traffic at all: whenever a query is
  forwarded through a mapping, the inference messages pertaining to that
  mapping are piggybacked on the query message.  Convergence speed is then
  proportional to the query load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from ..pdms.trace import QueryTrace
from .embedded import EmbeddedMessagePassing, EmbeddedResult, required_quiet_rounds

__all__ = ["PeriodicSchedule", "LazySchedule", "ScheduleReport"]


@dataclass
class ScheduleReport:
    """What a schedule did: rounds run, messages used, convergence status."""

    rounds: int
    converged: bool
    final_change: float
    messages_attempted: int
    messages_delivered: int
    posterior_history: List[Dict[str, float]] = field(default_factory=list)
    elapsed_time: float = 0.0

    @property
    def messages_per_round(self) -> float:
        if self.rounds == 0:
            return 0.0
        return self.messages_attempted / self.rounds


class PeriodicSchedule:
    """Proactive schedule: one full round of message passing every ``tau``.

    ``tau`` is expressed in arbitrary simulated time units (the paper notes
    it may range from seconds to months depending on network churn); the
    schedule merely advances a virtual clock so reports can speak of elapsed
    time.
    """

    def __init__(self, engine: EmbeddedMessagePassing, tau: float = 1.0) -> None:
        if tau <= 0:
            raise ReproError(f"tau must be positive, got {tau}")
        self.engine = engine
        self.tau = tau
        self.clock = 0.0

    def estimated_messages_per_period(self, peer_name: str) -> int:
        """Upper bound on remote messages the peer sends each period.

        The paper gives ``Σ_ci (l_ci − 1)`` where ``ci`` ranges over the
        cycles (and parallel-path structures) through the peer and ``l_ci``
        is their length: the plan transmissions sent by the peer's mappings.
        """
        plan = self.engine.plan
        names, owners = plan.mapping_names, plan.owners
        return sum(
            1 for sender in plan.tx_mapping.tolist() if owners[names[sender]] == peer_name
        )

    def run(
        self,
        periods: int,
        tolerance: Optional[float] = None,
        stop_on_convergence: bool = True,
    ) -> ScheduleReport:
        """Run up to ``periods`` periods (one engine round each).

        ``converged`` in the report reflects the *final* rounds, using the
        same quiet-rounds rule as :meth:`EmbeddedMessagePassing.run`: under
        message loss a run only counts as converged after enough consecutive
        quiet rounds, and a run that goes quiet but moves again afterwards
        (possible when ``stop_on_convergence=False`` keeps it going) is not
        reported as converged on the strength of the earlier lull.
        """
        if periods < 1:
            raise ReproError("periods must be >= 1")
        tolerance = tolerance if tolerance is not None else self.engine.options.tolerance
        history: List[Dict[str, float]] = []
        start_attempted = self.engine.transport.statistics.attempted
        start_delivered = self.engine.transport.statistics.delivered
        quiet_rounds_needed = required_quiet_rounds(
            self.engine.transport.send_probability
        )
        quiet_rounds = 0
        change = float("inf")
        rounds = 0
        for rounds in range(1, periods + 1):
            change = self.engine.run_round()
            self.clock += self.tau
            history.append(self.engine.posteriors())
            quiet_rounds = quiet_rounds + 1 if change < tolerance else 0
            if stop_on_convergence and quiet_rounds >= quiet_rounds_needed:
                break
        converged = quiet_rounds >= quiet_rounds_needed
        stats = self.engine.transport.statistics
        return ScheduleReport(
            rounds=rounds,
            converged=converged,
            final_change=change,
            messages_attempted=stats.attempted - start_attempted,
            messages_delivered=stats.delivered - start_delivered,
            posterior_history=history,
            elapsed_time=self.clock,
        )


class LazySchedule:
    """Lazy schedule: piggyback message passing on query traffic.

    Every time a query trace shows a forwarded hop through mapping ``m``,
    the inference messages pertaining to ``m`` (and only those) are
    exchanged.  No extra network messages are generated beyond what the
    queries already cost — the communication overhead of the detection
    scheme is literally zero.
    """

    def __init__(self, engine: EmbeddedMessagePassing) -> None:
        self.engine = engine
        self.processed_queries = 0
        self.piggybacked_mappings = 0

    def _process(self, trace: QueryTrace) -> Tuple[float, bool]:
        """Piggyback on one trace; return ``(posterior change, ran a round)``.

        A trace that traverses no mapping of the feedback graph exchanges no
        inference messages at all — it must not be mistaken for a quiet
        round by the convergence check.
        """
        used = [
            mapping_name
            for mapping_name in trace.used_mappings()
            if mapping_name in self.engine.mapping_names
        ]
        self.processed_queries += 1
        if not used:
            return 0.0, False
        self.piggybacked_mappings += len(used)
        return self.engine.run_round(mapping_names=used), True

    def process_trace(self, trace: QueryTrace) -> float:
        """Piggyback on one resolved query; return the posterior change."""
        change, _ = self._process(trace)
        return change

    def process_traces(
        self,
        traces: Iterable[QueryTrace],
        tolerance: Optional[float] = None,
    ) -> ScheduleReport:
        """Piggyback on a whole query workload, stopping once converged.

        Only traces that actually exchanged inference messages count as
        rounds and advance the convergence check; a workload that skirts the
        feedback graph (its queries traverse none of the modelled mappings)
        therefore never yields a false convergence claim.  Convergence uses
        the same quiet-rounds rule as :meth:`EmbeddedMessagePassing.run`:
        :func:`~repro.factorgraph.sum_product.required_quiet_rounds`
        consecutive quiet rounds (idle traces neither count nor reset the
        tally), and never the first round.
        """
        tolerance = tolerance if tolerance is not None else self.engine.options.tolerance
        history: List[Dict[str, float]] = []
        start_attempted = self.engine.transport.statistics.attempted
        start_delivered = self.engine.transport.statistics.delivered
        quiet_rounds_needed = required_quiet_rounds(
            self.engine.transport.send_probability
        )
        quiet_rounds = 0
        converged = False
        change = float("inf")
        rounds = 0
        for trace in traces:
            trace_change, ran_round = self._process(trace)
            if not ran_round:
                continue
            change = trace_change
            rounds += 1
            history.append(self.engine.posteriors())
            quiet_rounds = quiet_rounds + 1 if change < tolerance else 0
            if quiet_rounds >= quiet_rounds_needed and rounds > 1:
                converged = True
                break
        stats = self.engine.transport.statistics
        return ScheduleReport(
            rounds=rounds,
            converged=converged,
            final_change=change,
            messages_attempted=stats.attempted - start_attempted,
            messages_delivered=stats.delivered - start_delivered,
            posterior_history=history,
        )
