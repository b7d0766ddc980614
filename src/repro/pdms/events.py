"""Typed topology events: the replicable log every consumer shares.

The paper's system is decentralised — peers learn about the mapping
network from information that *travels*.  This module makes topology
change itself first-class: every mutation of a :class:`~repro.pdms.network.PDMSNetwork`
is one of five typed, frozen, picklable records —

* :class:`PeerAdded` — a peer (name + schema) joined;
* :class:`PeerRemoved` — a peer left (its incident mappings are removed
  first, as explicit :class:`MappingRemoved` events, so logs replay
  without hidden cascades);
* :class:`MappingAdded` — a directed mapping was registered;
* :class:`MappingRemoved` — a mapping was unregistered;
* :class:`CorrespondenceChanged` — a registered mapping was replaced by a
  new :class:`~repro.mapping.mapping.Mapping` of the same name (a §4.4
  repair or a corruption), copy-on-write —

plus the deterministic transition :func:`apply` that turns an event into
the corresponding network mutation.  ``PDMSNetwork.from_events`` replays
a recorded log through :func:`apply`, reproducing peers, mappings and the
``version`` counter exactly.

:class:`GossipJournal` is the replication substrate on top: it stamps
each locally-originated event with a dynamically-growing
:class:`~repro.pdms.clock.VectorClock`, buffers out-of-order deliveries
until their causal predecessors arrive, drops duplicates, and exposes a
canonical total order (:meth:`GossipJournal.canonical_entries`) every
replica agrees on — the property the multi-node harness in
:mod:`repro.pdms.gossip` relies on for bit-identical convergence.
Replicas reconcile by push-pull anti-entropy: a :class:`ClockDigest`
carries a journal's delivered clock, and
:meth:`GossipJournal.delta_for` answers it with exactly the entries the
digest's sender still misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..exceptions import PDMSError
from ..mapping.mapping import Mapping
from ..schema.schema import Schema
from .clock import VectorClock
from .peer import Peer

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .network import PDMSNetwork

__all__ = [
    "TopologyEvent",
    "PeerAdded",
    "PeerRemoved",
    "MappingAdded",
    "MappingRemoved",
    "CorrespondenceChanged",
    "apply",
    "JournalEntry",
    "ClockDigest",
    "GossipJournal",
]


# ---------------------------------------------------------------------------
# the event types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyEvent:
    """Base of the five topology transitions: the event's type names the
    transition, and its fields carry the peer or mapping it touches."""


@dataclass(frozen=True)
class PeerAdded(TopologyEvent):
    """A peer joined the network.

    Carries the peer's name and schema — everything needed to rebuild the
    peer on replay.  Local instance records are *data*, not topology, and
    do not ride the event log.
    """

    name: str
    schema: Schema


@dataclass(frozen=True)
class PeerRemoved(TopologyEvent):
    """A peer left the network.

    Well-formed logs remove the peer's incident mappings first (the
    cascade :meth:`~repro.pdms.network.PDMSNetwork.remove_peer` records
    explicitly), so applying this event finds the peer isolated.
    """

    name: str


@dataclass(frozen=True)
class MappingAdded(TopologyEvent):
    """A directed mapping was registered (one event per direction)."""

    mapping: Mapping


@dataclass(frozen=True)
class MappingRemoved(TopologyEvent):
    """A mapping was unregistered."""

    name: str


@dataclass(frozen=True)
class CorrespondenceChanged(TopologyEvent):
    """A registered mapping's correspondences were replaced.

    ``mapping`` is the replacement, a new object with the registered
    mapping's name: it takes that mapping's place, and nothing ever
    mutates the replaced object, which replicas that have not delivered
    this event (and walks carried from before it) still hold.
    """

    mapping: Mapping


# ---------------------------------------------------------------------------
# the deterministic transition
# ---------------------------------------------------------------------------


def apply(network: "PDMSNetwork", event: TopologyEvent) -> object:
    """Apply one event to ``network``; return the affected peer / mapping.

    This is the single transition function replay and the gossip
    replicas lower to: each event maps to exactly one public
    mutator call (mapping additions always apply *directionally* —
    undirected networks record the reverse direction as its own event),
    so replaying a recorded log bumps ``version`` exactly as the original
    run did.  Malformed events (duplicate peers, unknown mappings, ...)
    raise the same exceptions the mutators raise, deterministically.
    """
    if isinstance(event, PeerAdded):
        return network.add_peer(Peer(event.name, event.schema))
    if isinstance(event, PeerRemoved):
        return network.remove_peer(event.name)
    if isinstance(event, MappingAdded):
        return network.add_mapping(event.mapping, bidirectional=False)
    if isinstance(event, MappingRemoved):
        return network.remove_mapping(event.name)
    if isinstance(event, CorrespondenceChanged):
        return network.change_correspondences(event.mapping)
    raise PDMSError(f"unknown topology event {event!r}")


# ---------------------------------------------------------------------------
# the gossip journal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalEntry:
    """One causally-stamped event as it crosses the gossip wire.

    ``origin`` is the peer that appended the event, ``seq`` its 1-based
    origin-local sequence number (always equal to
    ``clock.counter(origin)``), and ``clock`` the originator's vector
    clock *after* the local increment — the stamp causal delivery checks
    against.  Entries are frozen and picklable; ``(origin, seq)`` is the
    globally-unique identity duplicates are detected by.
    """

    origin: str
    seq: int
    clock: VectorClock
    event: TopologyEvent

    def __post_init__(self) -> None:
        if self.seq != self.clock.counter(self.origin):
            raise PDMSError(
                f"journal entry {self.origin!r}#{self.seq} disagrees with "
                f"its clock {self.clock!r}"
            )

    @property
    def key(self) -> Tuple[str, int]:
        return (self.origin, self.seq)

    def sort_key(self) -> Tuple[int, str, int]:
        """Deterministic total order extending causality: Lamport total
        first (a cause always has a strictly smaller clock sum than its
        effects), origin name and sequence number as tie-breakers for
        concurrent entries."""
        return (self.clock.total(), self.origin, self.seq)


@dataclass(frozen=True)
class ClockDigest:
    """A replica's delivered clock as it crosses the gossip wire.

    ``sender`` names the replica and ``clock`` is its journal's merged
    clock.  Causal delivery makes a journal's delivered set exactly the
    per-origin prefixes the clock counts, so the digest summarises the
    whole set in O(origins): the receiver answers it with
    :meth:`GossipJournal.delta_for` — the entries the sender still
    misses — instead of its full log.
    """

    sender: str
    clock: VectorClock


class GossipJournal:
    """Per-peer causal log of topology events.

    The journal plays both roles of a gossip replica:

    * **originator** — :meth:`append` stamps a locally-decided event with
      the next vector clock (own counter incremented over everything
      delivered so far) and delivers it locally;
    * **receiver** — :meth:`receive` accepts entries off the wire in *any*
      order: duplicates are dropped, entries whose causal predecessors
      are missing are buffered, and every arrival drains the buffer so
      chains unlock as their dependencies land.

    An entry ``e`` from origin ``o`` is deliverable when ``e.seq`` is the
    next sequence number expected from ``o`` **and** every other
    component of ``e.clock`` is already covered by the delivered clock —
    the standard vector-clock causal-delivery predicate.  The delivered
    set is therefore a seq-ordered prefix per origin, which the journal
    indexes so :meth:`delta_for` costs O(origins + |delta|).

    :meth:`canonical_entries` returns the delivered entries in the
    deterministic total order of :meth:`JournalEntry.sort_key`; two
    replicas that delivered the same entry *set* therefore agree on the
    exact sequence, which is what lets every replica rebuild an identical
    network via ``PDMSNetwork.from_events`` regardless of arrival order.
    """

    def __init__(self, owner: str) -> None:
        if not owner:
            raise PDMSError("journal owner must be a non-empty peer name")
        self.owner = owner
        #: The merged clock of everything delivered, as ``{origin: seq}``;
        #: ``_clock`` is its immutable view, rebuilt lazily after growth.
        self._counts: Dict[str, int] = {}
        self._clock: Optional[VectorClock] = VectorClock()
        self._order: List[JournalEntry] = []
        #: Delivered entries per origin; index ``i`` holds seq ``i + 1``.
        self._by_origin: Dict[str, List[JournalEntry]] = {}
        self._buffer: Dict[Tuple[str, int], JournalEntry] = {}
        #: Wire accounting: duplicates dropped and deliveries that had to
        #: wait in the out-of-order buffer before their turn came.
        self.duplicates_dropped = 0
        self.deliveries_buffered = 0

    # -- reads ---------------------------------------------------------------------

    @property
    def clock(self) -> VectorClock:
        """The merged clock of everything delivered so far."""
        if self._clock is None:
            self._clock = VectorClock.of(self._counts)
        return self._clock

    def entries(self) -> Tuple[JournalEntry, ...]:
        """Delivered entries in local delivery order."""
        return tuple(self._order)

    def entries_since(self, count: int) -> Tuple[JournalEntry, ...]:
        """The entries delivered after the first ``count``, in delivery
        order — what a consumer that has seen ``count`` entries lacks."""
        return tuple(self._order[count:])

    def canonical_entries(self) -> Tuple[JournalEntry, ...]:
        """Delivered entries in the replica-independent total order."""
        return tuple(sorted(self._order, key=JournalEntry.sort_key))

    def canonical_events(self) -> Tuple[TopologyEvent, ...]:
        """The delivered events in canonical order — the exact sequence
        ``PDMSNetwork.from_events`` should replay."""
        return tuple(entry.event for entry in self.canonical_entries())

    @property
    def pending_count(self) -> int:
        """Entries buffered awaiting causal predecessors."""
        return len(self._buffer)

    def knows(self, entry: JournalEntry) -> bool:
        return entry.seq <= self._counts.get(entry.origin, 0)

    def delta_for(self, known: VectorClock) -> Tuple[JournalEntry, ...]:
        """Delivered entries a replica at clock ``known`` still misses.

        The answer to a :class:`ClockDigest`: per origin, the suffix of
        the seq-ordered index past ``known``'s counter, so the cost is
        O(origins + |delta|) (plus sorting the delta) and the
        steady-state answer, when ``known`` covers this journal's clock,
        is ``()``.  Entries come in canonical :meth:`JournalEntry.sort_key`
        order, which extends causality and so is a causally-safe
        transmission order.
        """
        if known == self.clock:
            return ()
        delta: List[JournalEntry] = []
        for origin, seq in self._counts.items():
            have = known.counter(origin)
            if have < seq:
                delta.extend(self._by_origin[origin][have:])
        delta.sort(key=JournalEntry.sort_key)
        return tuple(delta)

    # -- writes --------------------------------------------------------------------

    def append(self, event: TopologyEvent) -> JournalEntry:
        """Stamp and deliver a locally-originated event."""
        clock = self.clock.increment(self.owner)
        entry = JournalEntry(
            origin=self.owner,
            seq=clock.counter(self.owner),
            clock=clock,
            event=event,
        )
        self._deliver(entry)
        return entry

    def receive(self, entry: JournalEntry) -> Tuple[JournalEntry, ...]:
        """Accept one entry off the wire; return what got delivered.

        The result is the (possibly empty) chain of deliveries this
        arrival unlocked, in delivery order: empty for duplicates and for
        entries parked in the out-of-order buffer.
        """
        if self.knows(entry) or entry.key in self._buffer:
            self.duplicates_dropped += 1
            return ()
        if not self._deliverable(entry):
            self._buffer[entry.key] = entry
            self.deliveries_buffered += 1
            return ()
        delivered = [entry]
        self._deliver(entry)
        # Each delivery may unlock buffered successors; drain to fixpoint.
        progressed = True
        while progressed and self._buffer:
            progressed = False
            for key in list(self._buffer):
                held = self._buffer[key]
                if self._deliverable(held):
                    del self._buffer[key]
                    self._deliver(held)
                    delivered.append(held)
                    progressed = True
        return tuple(delivered)

    # -- internals -----------------------------------------------------------------

    def _deliverable(self, entry: JournalEntry) -> bool:
        counts = self._counts
        if entry.seq != counts.get(entry.origin, 0) + 1:
            return False
        return all(
            counter <= counts.get(name, 0)
            for name, counter in entry.clock.entries
            if name != entry.origin
        )

    def _deliver(self, entry: JournalEntry) -> None:
        self._order.append(entry)
        self._by_origin.setdefault(entry.origin, []).append(entry)
        # Deliverable means every other component of the entry's clock is
        # already covered, so merging it only advances its origin.
        self._counts[entry.origin] = entry.seq
        self._clock = None
