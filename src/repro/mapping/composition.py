"""Mapping composition — transitive closure of mapping operations.

The feedback the paper's detector consumes is produced by pushing an
attribute through a *chain* of mappings (around a cycle, or down each branch
of a pair of parallel paths) and looking at what comes out at the end
(§3.2.1):

* the original attribute      → positive feedback,
* a different attribute       → negative feedback,
* nothing (no correspondence) → neutral feedback (⊥).

This module implements the chain-application primitive and the comparison
helpers; the conversion of outcomes into factor-graph factors lives in
:mod:`repro.core.feedback`.  :func:`round_trip_outcome` and
:func:`parallel_paths_outcome` check raw mapping lists first; the probe
structures (:class:`~repro.pdms.probing.MappingCycle`,
:class:`~repro.pdms.probing.ParallelPaths`) check their chains once when
built, and their evaluation goes straight to :func:`image_of` and
:func:`compare_images`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..exceptions import MappingCompositionError
from .mapping import Mapping

__all__ = [
    "validate_chain",
    "image_of",
    "compare_images",
    "round_trip_outcome",
    "parallel_paths_outcome",
    "RoundTripOutcome",
]

#: Symbolic outcomes of a round-trip comparison.
RoundTripOutcome = str
POSITIVE: RoundTripOutcome = "positive"
NEGATIVE: RoundTripOutcome = "negative"
NEUTRAL: RoundTripOutcome = "neutral"


def validate_chain(mappings: Sequence[Mapping]) -> None:
    """Check that consecutive mappings in ``mappings`` share endpoints.

    ``mappings[i].target`` must equal ``mappings[i+1].source``.  Raises
    :class:`MappingCompositionError` otherwise.
    """
    if not mappings:
        raise MappingCompositionError("cannot compose an empty chain of mappings")
    for first, second in zip(mappings, mappings[1:]):
        if first.target != second.source:
            raise MappingCompositionError(
                f"mapping chain is broken: {first.name} ends at {first.target!r} "
                f"but {second.name} starts at {second.source!r}"
            )


def image_of(mappings: Sequence[Mapping], attribute: str) -> Optional[str]:
    """Push ``attribute`` through a validated chain; return its final image,
    or ``None`` as soon as a mapping lacks a correspondence (the ⊥ case)."""
    current: Optional[str] = attribute
    for mapping in mappings:
        if current is None:
            return None
        current = mapping.apply(current)
    return current


def compare_images(first: Optional[str], second: Optional[str]) -> RoundTripOutcome:
    """Compare two images of one attribute: either missing → neutral,
    equal → positive, different → negative.  A round trip compares the
    attribute with its image around the cycle."""
    if first is None or second is None:
        return NEUTRAL
    if first == second:
        return POSITIVE
    return NEGATIVE


def round_trip_outcome(cycle: Sequence[Mapping], attribute: str) -> RoundTripOutcome:
    """Outcome of pushing ``attribute`` around a full mapping cycle.

    ``cycle`` must start and end at the same peer
    (``cycle[0].source == cycle[-1].target``).
    """
    validate_chain(cycle)
    if cycle[0].source != cycle[-1].target:
        raise MappingCompositionError(
            f"not a cycle: starts at {cycle[0].source!r}, "
            f"ends at {cycle[-1].target!r}"
        )
    return compare_images(attribute, image_of(cycle, attribute))


def parallel_paths_outcome(
    first_path: Sequence[Mapping],
    second_path: Sequence[Mapping],
    attribute: str,
) -> RoundTripOutcome:
    """Outcome of pushing ``attribute`` down two parallel mapping paths.

    Both paths must share their source and destination peers.  The images at
    the destination are compared: equal → positive, different → negative,
    either missing → neutral.
    """
    validate_chain(first_path)
    validate_chain(second_path)
    if first_path[0].source != second_path[0].source:
        raise MappingCompositionError(
            "parallel paths must share their source peer, got "
            f"{first_path[0].source!r} and {second_path[0].source!r}"
        )
    if first_path[-1].target != second_path[-1].target:
        raise MappingCompositionError(
            "parallel paths must share their destination peer, got "
            f"{first_path[-1].target!r} and {second_path[-1].target!r}"
        )
    return compare_images(
        image_of(first_path, attribute), image_of(second_path, attribute)
    )
