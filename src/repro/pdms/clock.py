"""Dynamic vector clocks for causal delivery of topology events.

The ROADMAP's "peers as processes" runtime needs topology changes to
travel between peers with *causal* guarantees: a mapping addition must
never be applied before the peer additions it references, no matter how
the transport reorders messages.  The classic device is a vector clock —
one counter per participant — but a PDMS has no fixed membership, so the
clock here is keyed by *peer name* and grows dynamically: a peer the
clock has never seen simply counts as zero.

:class:`VectorClock` is immutable (every operation returns a new clock),
picklable, and canonical: entries are stored sorted by peer name with
zero counters elided, so equal clocks compare and hash equal regardless
of construction order.  Reads are O(1): each clock keeps a lookup dict
and its total beside the canonical entries, derived once at
construction and rebuilt (never shipped) on unpickling.
:meth:`VectorClock.total` is the Lamport-style
linearisation both the gossip journal and the multi-node harness use to
impose one deterministic total order on causally-concurrent events
(``a`` causally precedes ``b`` implies ``a.total() < b.total()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple, Union

from ..exceptions import PDMSError

__all__ = ["VectorClock"]


@dataclass(frozen=True)
class VectorClock:
    """An immutable, dynamically-keyed vector clock.

    Parameters
    ----------
    entries:
        ``(peer_name, counter)`` pairs.  Stored canonically: sorted by
        peer name, counters must be positive (zero counters are implicit
        for every unknown peer).  Use :meth:`of` to build a clock from an
        arbitrary mapping without worrying about canonical form.
    """

    entries: Tuple[Tuple[str, int], ...] = ()
    _counts: Dict[str, int] = field(init=False, repr=False, compare=False)
    _total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [name for name, _ in self.entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise PDMSError(
                f"vector clock entries must be sorted and unique, got {names}"
            )
        for name, counter in self.entries:
            if not name:
                raise PDMSError("vector clock peer names must be non-empty")
            if counter <= 0:
                raise PDMSError(
                    f"vector clock counters must be positive, got "
                    f"{counter} for {name!r}"
                )
        counts = dict(self.entries)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_total", sum(counts.values()))

    def __reduce__(self):
        # Ship the canonical entries only; the receiver re-validates them
        # and rebuilds the lookup dict and total.
        return (VectorClock, (self.entries,))

    @classmethod
    def of(
        cls,
        counts: Union[Mapping[str, int], Iterable[Tuple[str, int]]] = (),
    ) -> "VectorClock":
        """Build a clock from ``{peer: counter}`` (zeros are dropped)."""
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(
            entries=tuple(
                sorted((name, counter) for name, counter in items if counter)
            )
        )

    # -- reads ---------------------------------------------------------------------

    def counter(self, peer: str) -> int:
        """The counter for ``peer`` (0 when the clock has never seen it)."""
        return self._counts.get(peer, 0)

    def as_dict(self) -> Dict[str, int]:
        """The clock as a plain ``{peer: counter}`` dict."""
        return dict(self._counts)

    @property
    def peer_names(self) -> Tuple[str, ...]:
        """Peers with a non-zero counter, sorted."""
        return tuple(name for name, _ in self.entries)

    def total(self) -> int:
        """Sum of all counters — a strictly monotone linear extension of
        the causal (dominance) order, used to break ties deterministically
        when concurrent events must be sequenced."""
        return self._total

    # -- algebra -------------------------------------------------------------------

    def increment(self, peer: str) -> "VectorClock":
        """A new clock with ``peer``'s counter bumped by one."""
        if not peer:
            raise PDMSError("cannot increment a vector clock for peer ''")
        counts = dict(self._counts)
        counts[peer] = counts.get(peer, 0) + 1
        return VectorClock.of(counts)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """The component-wise maximum of the two clocks."""
        counts = dict(self._counts)
        for name, counter in other.entries:
            if counter > counts.get(name, 0):
                counts[name] = counter
        return VectorClock.of(counts)

    def dominates(self, other: "VectorClock") -> bool:
        """``True`` when every counter of ``other`` is <= this clock's.

        Reflexive: a clock dominates itself.  ``a.dominates(b)`` and
        ``a != b`` is the strict "``b`` happened before ``a``" relation.
        """
        return all(
            counter <= self._counts.get(name, 0)
            for name, counter in other.entries
        )

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock dominates the other (causally unordered)."""
        return not self.dominates(other) and not other.dominates(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{name}:{counter}" for name, counter in self.entries)
        return f"VectorClock({{{inner}}})"
