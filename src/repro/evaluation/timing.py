"""One timing primitive for every throughput runner and benchmark.

:func:`measure` times one or more *sides* over ``pairs`` rounds.  A side
is a setup that runs outside the timed region and returns the call to
time.  The side that runs first rotates every pair, so a slow interval on
a shared host lands on every side in turn.  The result keeps every
per-pair wall time, from which medians, quartiles and per-pair ratios
derive, and each side's last return value, so a runner's parity, probe and
compile checks read the outputs of the runs it timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence, Tuple

import numpy as np

from ..exceptions import EvaluationError

__all__ = ["Measurement", "measure"]


@dataclass(frozen=True)
class Measurement:
    """Per-pair wall times of every side of one :func:`measure` run."""

    #: ``seconds[side][pair]``: wall time of that side's call in that pair.
    seconds: Tuple[Tuple[float, ...], ...]
    #: Each side's return value from its last pair.
    values: Tuple[object, ...] = field(repr=False, compare=False)

    @property
    def pairs(self) -> int:
        return len(self.seconds[0])

    def median(self, side: int = 0) -> float:
        return float(np.median(self.seconds[side]))

    def quartiles(self, side: int = 0) -> Tuple[float, float]:
        first, third = np.percentile(self.seconds[side], [25, 75])
        return float(first), float(third)

    def ratios(self, numerator: int, denominator: int) -> Tuple[float, ...]:
        """Per-pair ``numerator / denominator`` wall-time ratios: how many
        times faster the denominator side ran in each pair."""
        return tuple(
            top / bottom if bottom > 0.0 else float("inf")
            for top, bottom in zip(self.seconds[numerator], self.seconds[denominator])
        )

    def speedup(self, numerator: int, denominator: int) -> float:
        """Median of the per-pair :meth:`ratios`."""
        return float(np.median(self.ratios(numerator, denominator)))


def measure(
    setups: Sequence[Callable[[], Callable[[], object]]], pairs: int
) -> Measurement:
    """Time ``pairs`` rounds of every side; each round is one *pair*.

    In pair ``p`` the sides run in the order ``p, p + 1, …`` (modulo the
    number of sides): two sides alternate ``A, B`` then ``B, A``, three
    sides rotate their start.  Each side's setup runs right before its
    timed call, so what a setup prepares — or drops — holds for exactly
    that call.
    """
    if pairs < 1:
        raise EvaluationError(f"need at least one timed pair, got {pairs}")
    seconds = [[] for _ in setups]
    values = [None] * len(setups)
    for pair in range(pairs):
        for offset in range(len(setups)):
            side = (pair + offset) % len(setups)
            call = setups[side]()
            start = perf_counter()
            values[side] = call()
            seconds[side].append(perf_counter() - start)
    return Measurement(tuple(map(tuple, seconds)), tuple(values))
