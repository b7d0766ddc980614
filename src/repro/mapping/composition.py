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
:mod:`repro.core.feedback`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..exceptions import MappingCompositionError
from .mapping import Mapping

__all__ = [
    "validate_chain",
    "apply_chain",
    "compose",
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


def apply_chain(mappings: Sequence[Mapping], attribute: str) -> Optional[str]:
    """Push ``attribute`` through the chain; return its final image.

    Returns ``None`` as soon as any mapping in the chain lacks a
    correspondence for the current attribute (the ⊥ case).
    """
    validate_chain(mappings)
    return _push(mappings, attribute)


def _push(mappings: Sequence[Mapping], attribute: str) -> Optional[str]:
    """:func:`apply_chain` on a chain the caller has already validated."""
    current: Optional[str] = attribute
    for mapping in mappings:
        if current is None:
            return None
        current = mapping.apply(current)
    return current


def compose(mappings: Sequence[Mapping], label: str = "") -> Mapping:
    """Compose a chain into a single mapping from the first source to the
    last target.

    Only attributes that survive the whole chain get a correspondence in the
    composite; the composite's ground-truth labels are the conjunction of
    the labels along the chain (unknown labels propagate as unknown).
    """
    validate_chain(mappings)
    source = mappings[0].source
    target = mappings[-1].target
    if source == target:
        # A full cycle composes to an endomapping on the starting schema;
        # Mapping forbids identical endpoints, so the caller should use
        # round_trip_outcome() for cycles instead.
        raise MappingCompositionError(
            "chain composes to a self-mapping; use round_trip_outcome() for cycles"
        )
    composite = Mapping(source, target, label=label or "composed")
    for attribute in mappings[0].source_attributes:
        image = apply_chain(mappings, attribute)
        if image is None:
            continue
        correct: Optional[bool] = True
        current = attribute
        for mapping in mappings:
            c = mapping.correspondence_for(current)
            assert c is not None  # guaranteed because image is not None
            if c.is_correct is None:
                correct = None
            elif c.is_correct is False and correct is not None:
                correct = False
            current = c.target_attribute
        composite.add(
            mappings[0].correspondence_for(attribute).with_target(image, correct)
        )
    return composite


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
    image = _push(cycle, attribute)
    if image is None:
        return NEUTRAL
    if image == attribute:
        return POSITIVE
    return NEGATIVE


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
    first_image = _push(first_path, attribute)
    second_image = _push(second_path, attribute)
    if first_image is None or second_image is None:
        return NEUTRAL
    if first_image == second_image:
        return POSITIVE
    return NEGATIVE
