"""In-memory spans for one benchmark run, written out when the run ends.

A span is ``(name, start, end, epoch)``: the layer it times, two
``perf_counter`` readings, and the id of the epoch (or set-up) it belongs
to.  Spans wrap calls into the library from the outside, one public call
each, and never nest, so a span's self time is its duration and an
epoch's unattributed time is its duration minus the sum of its spans.
When disabled, :meth:`Recorder.span` hands back one shared no-op context.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, Hashable, List, Tuple

Span = Tuple[str, float, float, Hashable]

_NO_SPAN = contextlib.nullcontext()


class Recorder:
    """Collects spans while ``enabled``; ``epoch`` tags each new span."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.epoch: Hashable = None
        self.spans: List[Span] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextlib.contextmanager
    def _span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), self.epoch))

    def layer_seconds(self) -> Dict[Hashable, Dict[str, float]]:
        """Per epoch: the summed span time of every layer."""
        totals: Dict[Hashable, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for name, start, end, epoch in self.spans:
            totals[epoch][name] += end - start
        return totals
