"""In-memory multi-node gossip harness: causal replication, local views.

The paper's runtime model is N autonomous peers, each assessing mapping
quality from *its own* local view while topology knowledge spreads
epidemically.  This module is that model in one process: every
:class:`PeerNode` owns a :class:`~repro.pdms.events.GossipJournal`
(causal delivery over dynamic vector clocks), an event-sourced replica of
the network grown in the journal's canonical order, and a
:class:`~repro.core.quality.MappingQualityAssessor` whose
lane engine computes the peer's §4.5 ``assess_local`` view over that
replica.  Nodes reconcile by push-pull anti-entropy on
:class:`~repro.pdms.events.ClockDigest` digests, and every digest and
journal entry travels through a :class:`SeededTransport` that
deterministically reorders, duplicates and drops messages.

Convergence is *bit-identical* by construction: the journal delivers
causally and exposes one canonical total order every replica agrees on
(Lamport sum, then origin, then sequence), so once all nodes hold the
same entry set, each holds the exact same network — same peer and
mapping insertion order, same version — as
``PDMSNetwork.from_events`` of that order, and the deterministic assessor
produces the exact same floats as the single-process oracle built from
the same events (:meth:`GossipHarness.oracle_network`).

Everything here is deterministic from explicit seeds; the harness is the
substrate the ROADMAP's "peers as processes" socket runtime plugs into.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..constants import DEFAULT_SEED
from ..core.quality import MappingQualityAssessor
from ..exceptions import PDMSError, UnknownPeerError
from .events import (
    ClockDigest,
    GossipJournal,
    JournalEntry,
    TopologyEvent,
    apply,
)
from .network import PDMSNetwork

__all__ = ["PeerNode", "SeededTransport", "GossipHarness"]


class PeerNode:
    """One gossiping peer: journal, event-sourced replica, local assessor.

    Parameters
    ----------
    name:
        The peer's name — also the journal owner and the origin this
        node's :meth:`assess_local` judges from.
    assessor_kwargs:
        Keyword arguments forwarded to every
        :class:`~repro.core.quality.MappingQualityAssessor` built over
        the replica (``ttl``, ``delta``, ``include_parallel_paths``,
        ``send_probability``, ...).  All nodes of a harness should share
        the same settings, and they must match the oracle's for the
        bit-identical convergence guarantee.
    """

    def __init__(self, name: str, **assessor_kwargs) -> None:
        if not name:
            raise PDMSError("peer node name must be non-empty")
        self.name = name
        self.journal = GossipJournal(name)
        self._assessor_kwargs = dict(assessor_kwargs)
        self._replica = PDMSNetwork(name=f"{name}-view")
        #: Journal entries (a delivery-order prefix) the replica holds, and
        #: the largest sort key among them.  ``(0, "", 0)`` sorts below
        #: every stamped entry: a stamp's clock total is at least 1.
        self._applied = 0
        self._tip: Tuple[int, str, int] = (0, "", 0)
        self._assessor: Optional[MappingQualityAssessor] = None

    # -- replication ---------------------------------------------------------------

    def originate(self, event: TopologyEvent) -> JournalEntry:
        """Stamp and locally deliver an event this peer decided."""
        return self.journal.append(event)

    def receive(self, entry: JournalEntry) -> Tuple[JournalEntry, ...]:
        """Accept one wire entry; return the deliveries it unlocked."""
        return self.journal.receive(entry)

    def digest(self) -> ClockDigest:
        """This node's delivered clock, to ship as a push-pull digest."""
        return ClockDigest(sender=self.name, clock=self.journal.clock)

    # -- the local view ------------------------------------------------------------

    def local_network(self) -> PDMSNetwork:
        """This node's replica: the journal's canonical event order, applied.

        Replicas are *event-sourced* and always equal
        ``PDMSNetwork.from_events(journal.canonical_events())`` — peers,
        mapping order, per-peer outgoing order and ``version`` — so two
        nodes holding the same entries hold interchangeable networks no
        matter how differently the transport interleaved their
        deliveries.  Entries delivered since the last call are sorted
        canonically; when they all sort after the last applied one they
        extend the canonical order and are applied to the replica in
        place through :func:`~repro.pdms.events.apply`.  A concurrent
        entry that sorts before an applied one changes the order below
        the tip, and the replica is replayed from the whole journal.
        Either way the assessor is dropped.  A replica grown in place keeps
        its snapshot, so the next assessor reads the walks the new entries
        leave unchanged; a replayed replica walks cold.
        """
        fresh = sorted(
            self.journal.entries_since(self._applied), key=JournalEntry.sort_key
        )
        if not fresh:
            return self._replica
        if fresh[0].sort_key() < self._tip:
            self._replica = PDMSNetwork.from_events(
                self.journal.canonical_events(), name=self._replica.name
            )
        else:
            for entry in fresh:
                apply(self._replica, entry.event)
        self._applied += len(fresh)
        self._tip = max(self._tip, fresh[-1].sort_key())
        self._assessor = None
        return self._replica

    def assessor(self) -> MappingQualityAssessor:
        """The quality assessor over the current replica (rebuilt on growth)."""
        network = self.local_network()
        if self._assessor is None:
            self._assessor = MappingQualityAssessor(
                network, **self._assessor_kwargs
            )
        return self._assessor

    def assess_local(self, attribute: str) -> Dict[str, float]:
        """This peer's §4.5 decision over its own outgoing mappings.

        One per-origin lane for this origin
        (:meth:`~repro.core.quality.MappingQualityAssessor.assess_locals`)
        over the event-sourced replica — the decentralised view the
        convergence guarantee is stated on.
        """
        if not self.local_network().has_peer(self.name):
            raise UnknownPeerError(
                f"node {self.name!r} has not yet delivered its own "
                f"PeerAdded event"
            )
        return self.assessor().assess_locals([self.name], attribute)[self.name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PeerNode({self.name!r}, delivered="
            f"{len(self.journal.entries())}, "
            f"pending={self.journal.pending_count})"
        )


#: What crosses the gossip wire: a push-pull digest or a journal entry.
GossipMessage = Union[ClockDigest, JournalEntry]


class SeededTransport:
    """A deliberately unreliable in-memory message channel.

    Messages are ``(destination, message)`` pairs, the message a
    :class:`~repro.pdms.events.ClockDigest` or a
    :class:`~repro.pdms.events.JournalEntry`.  Each
    :meth:`send` may drop the message (``drop_probability``) or enqueue
    it twice (``duplicate_probability``); each :meth:`deliver` flushes
    the in-flight queue in a seeded shuffle (``reorder=True``), so
    arrival order carries no causal information whatsoever.  All three
    disturbances draw from one explicit ``random.Random(seed)`` stream —
    the same seed always produces the same loss/duplication/reordering
    schedule.
    """

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        reorder: bool = True,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise PDMSError(
                f"drop probability must be in [0, 1), got {drop_probability}"
            )
        if not 0.0 <= duplicate_probability <= 1.0:
            raise PDMSError(
                f"duplicate probability must be in [0, 1], got "
                f"{duplicate_probability}"
            )
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self.reorder = reorder
        self._rng = random.Random(seed)
        self._in_flight: List[Tuple[str, GossipMessage]] = []
        self.sent = 0
        self.dropped = 0
        self.duplicated = 0
        self.delivered = 0

    def send(self, destination: str, message: GossipMessage) -> None:
        self.sent += 1
        if (
            self.drop_probability > 0.0
            and self._rng.random() < self.drop_probability
        ):
            self.dropped += 1
            return
        self._in_flight.append((destination, message))
        if (
            self.duplicate_probability > 0.0
            and self._rng.random() < self.duplicate_probability
        ):
            self._in_flight.append((destination, message))
            self.duplicated += 1

    def deliver(self) -> Tuple[Tuple[str, GossipMessage], ...]:
        """Flush the in-flight queue (seeded-shuffled when reordering)."""
        if self.reorder:
            self._rng.shuffle(self._in_flight)
        batch = tuple(self._in_flight)
        self._in_flight.clear()
        self.delivered += len(batch)
        return batch


class GossipHarness:
    """N peer nodes reconciling journals through a seeded transport.

    Each :meth:`run_round` is one push-pull anti-entropy exchange on
    vector-clock digests, in three legs, each one transport flush:

    1. every node sends its :class:`~repro.pdms.events.ClockDigest` to
       ``fanout`` seeded-random partners;
    2. a node receiving a digest replies with
       :meth:`~repro.pdms.events.GossipJournal.delta_for` of the digest's
       clock (the entries the sender misses) and its own digest;
    3. the first node answers that reply digest with its own delta.

    Only what a partner misses crosses the wire, so a round's traffic
    scales with what changed, not with the history length.  Every leg,
    digests included, goes through the lossy transport; a lost leg needs
    no acknowledgement or retry timer, because the next round's fresh
    partners exchange digests again, and duplicates are dropped by the
    receiving journal.  :meth:`run_until_converged` loops rounds until
    every node has delivered the union of all originated entries (with
    nothing left buffered).

    The parity surface: :meth:`local_views` collects every node's
    decentralised ``assess_local`` decision, :meth:`oracle_views`
    computes the same decisions on the single-process oracle network
    (:meth:`oracle_network`, replayed from the union of originated
    events in canonical order).  After convergence the two are equal —
    not approximately, *bit-identically* — because replicas and oracle
    replay the exact same event sequence and the assessor is
    deterministic.
    """

    def __init__(
        self,
        nodes: Sequence[PeerNode],
        transport: Optional[SeededTransport] = None,
        fanout: int = 2,
        seed: int = DEFAULT_SEED,
    ) -> None:
        if not nodes:
            raise PDMSError("a gossip harness needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise PDMSError(f"duplicate node names in {names}")
        if fanout < 1:
            raise PDMSError(f"fanout must be >= 1, got {fanout}")
        self._nodes: Dict[str, PeerNode] = {node.name: node for node in nodes}
        self.transport = (
            transport if transport is not None else SeededTransport(seed=seed)
        )
        self.fanout = fanout
        self._rng = random.Random(seed)
        self.rounds = 0

    @classmethod
    def of_names(
        cls,
        names: Sequence[str],
        transport: Optional[SeededTransport] = None,
        fanout: int = 2,
        seed: int = DEFAULT_SEED,
        **assessor_kwargs,
    ) -> "GossipHarness":
        """Build a harness of fresh nodes sharing one assessor config."""
        nodes = [PeerNode(name, **assessor_kwargs) for name in names]
        return cls(nodes, transport=transport, fanout=fanout, seed=seed)

    # -- access --------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[PeerNode, ...]:
        return tuple(self._nodes.values())

    @property
    def node_names(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def node(self, name: str) -> PeerNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownPeerError(f"unknown gossip node {name!r}") from None

    # -- replication ---------------------------------------------------------------

    def originate(self, name: str, event: TopologyEvent) -> JournalEntry:
        """Originate an event at the named node (delivered there at once)."""
        return self.node(name).originate(event)

    def run_round(self) -> int:
        """One push-pull round; returns the number of new deliveries."""
        for node in self._nodes.values():
            others = [name for name in self._nodes if name != node.name]
            if not others:
                continue
            digest = node.digest()
            for partner in self._rng.sample(
                others, min(self.fanout, len(others))
            ):
                self.transport.send(partner, digest)
        delivered = 0
        # Leg 1 flushes the opening digests, leg 2 the deltas and reply
        # digests, leg 3 the deltas that answer the reply digests.
        for leg in (1, 2, 3):
            for destination, message in self.transport.deliver():
                node = self._nodes[destination]
                if isinstance(message, JournalEntry):
                    delivered += len(node.receive(message))
                    continue
                for entry in node.journal.delta_for(message.clock):
                    self.transport.send(message.sender, entry)
                if leg == 1:
                    self.transport.send(message.sender, node.digest())
        self.rounds += 1
        return delivered

    def converged(self) -> bool:
        """Every node delivered the union of all originated entries.

        Causal delivery makes each delivered set the per-origin seq
        prefixes its journal clock counts, so the sets are all equal (and
        hence equal to their union) exactly when the clocks are.
        """
        journals = [node.journal for node in self._nodes.values()]
        clock = journals[0].clock
        return all(
            journal.clock == clock and journal.pending_count == 0
            for journal in journals
        )

    def run_until_converged(self, max_rounds: int = 64) -> int:
        """Run rounds to convergence; returns the rounds this call used."""
        used = 0
        while not self.converged():
            if used >= max_rounds:
                raise PDMSError(
                    f"gossip did not converge within {max_rounds} rounds "
                    f"(drop={self.transport.drop_probability}, "
                    f"fanout={self.fanout})"
                )
            self.run_round()
            used += 1
        return used

    def broadcast(
        self,
        origin: str,
        events: Iterable[TopologyEvent],
        max_rounds: int = 64,
    ) -> int:
        """Originate ``events`` at ``origin`` and gossip to convergence."""
        for event in events:
            self.originate(origin, event)
        return self.run_until_converged(max_rounds=max_rounds)

    # -- accounting ----------------------------------------------------------------

    @property
    def delivered_event_count(self) -> int:
        """Total deliveries applied across all replicas (the bench's
        events-applied measure: every entry counts once per node)."""
        return sum(
            len(node.journal.entries()) for node in self._nodes.values()
        )

    @property
    def duplicates_dropped(self) -> int:
        return sum(
            node.journal.duplicates_dropped for node in self._nodes.values()
        )

    @property
    def deliveries_buffered(self) -> int:
        return sum(
            node.journal.deliveries_buffered for node in self._nodes.values()
        )

    # -- the oracle ----------------------------------------------------------------

    def all_entries(self) -> Tuple[JournalEntry, ...]:
        """The union of every node's delivered entries, canonical order."""
        merged: Dict[Tuple[str, int], JournalEntry] = {}
        for node in self._nodes.values():
            for entry in node.journal.entries():
                merged[entry.key] = entry
        return tuple(sorted(merged.values(), key=JournalEntry.sort_key))

    def oracle_network(self) -> PDMSNetwork:
        """The single-process network: every originated event, replayed
        once in the canonical order all replicas converge to."""
        return PDMSNetwork.from_events(
            (entry.event for entry in self.all_entries()), name="oracle"
        )

    def local_views(self, attribute: str) -> Dict[str, Dict[str, float]]:
        """Every node's own decentralised decision for ``attribute``."""
        return {
            name: node.assess_local(attribute)
            for name, node in self._nodes.items()
        }

    def oracle_views(self, attribute: str) -> Dict[str, Dict[str, float]]:
        """The same per-origin decisions on the single-process oracle.

        One assessor over the oracle network, one per-origin lane per
        origin — exactly the computation each node runs on its replica,
        so after convergence ``oracle_views(a) == local_views(a)``
        (exact float equality, not approximate).
        """
        sample = next(iter(self._nodes.values()))
        assessor = MappingQualityAssessor(
            self.oracle_network(), **sample._assessor_kwargs
        )
        return {
            name: assessor.assess_locals([name], attribute)[name]
            for name in self._nodes
        }
