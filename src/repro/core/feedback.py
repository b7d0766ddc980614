"""Feedback from mapping cycles and parallel paths, and its factor encoding.

This module implements §3.2.1 / §3.3 of the paper:

* A :class:`Feedback` records the outcome (positive / negative / neutral) of
  pushing one attribute around a mapping cycle or down two parallel paths.
* :func:`feedback_factor` turns an observed (non-neutral) feedback into a
  factor over the correctness variables of the involved mappings, using the
  conditional probability table

  ====================================  =================
  assignment of the mapping variables    P(f+ | assignment)
  ====================================  =================
  all mappings correct                   1
  exactly one mapping incorrect          0
  two or more mappings incorrect         Δ
  ====================================  =================

  where Δ is the probability that two or more mapping errors compensate one
  another along the structure (≈ 1 / number of attributes in the schema).
  For an observed *negative* feedback the factor value is
  ``1 − P(f+ | assignment)``.

Neutral feedback (an intermediate schema has no representation for the
attribute) produces no factor; instead the paper prescribes dropping the
correctness probability of the mapping lacking the attribute to zero, which
is handled by :class:`repro.core.quality.MappingQualityAssessor`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from ..constants import COUNT_KERNEL_MIN_ARITY
from ..exceptions import FeedbackError, PDMSError
from ..factorgraph.factors import CountFactor, Factor
from ..factorgraph.variables import BinaryVariable, CORRECT, INCORRECT
from ..mapping import composition
from ..pdms.probing import MappingCycle, ParallelPaths

__all__ = [
    "FeedbackKind",
    "StructureKind",
    "Feedback",
    "compensation_probability",
    "positive_feedback_probability",
    "feedback_count_values",
    "feedback_factor",
    "feedback_from_cycle",
    "feedback_from_parallel_paths",
    "mapping_owner",
    "variable_name_for",
]


def mapping_owner(mapping_name: str) -> str:
    """Peer owning a mapping: the peer the mapping departs from.

    Mapping names follow the ``source->target[#label]`` convention of
    :class:`repro.mapping.mapping.MappingIdentifier`, whose endpoints never
    contain ``->``.
    """
    if "->" not in mapping_name:
        raise PDMSError(f"malformed mapping name {mapping_name!r}")
    return mapping_name.split("->", 1)[0]


def variable_name_for(mapping_name: str, attribute: str) -> str:
    """Canonical factor-graph variable name of a (mapping, attribute) pair:
    ``m[<mapping name>]@<attribute>`` (fine granularity, §4.1)."""
    return f"m[{mapping_name}]@{attribute}"


class FeedbackKind(str, Enum):
    """Observed outcome of a round-trip comparison."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class StructureKind(str, Enum):
    """Topological structure that produced the feedback."""

    CYCLE = "cycle"
    PARALLEL_PATHS = "parallel-paths"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def compensation_probability(attribute_count: int) -> float:
    """Δ — probability that ≥2 mapping errors compensate along a structure.

    The paper approximates Δ by ``1 / (#attributes − 1)`` reasoning that an
    erroneous mapping points to a uniformly random wrong attribute, so the
    last error "lands back" on the correct attribute with that probability;
    with eleven attributes this gives the 1/10 used in §4.5.  We follow the
    same approximation and clamp it to a sane range.
    """
    if attribute_count < 2:
        raise FeedbackError(
            f"need at least two attributes to define Δ, got {attribute_count}"
        )
    return min(1.0, 1.0 / (attribute_count - 1))


# Slotted: the evidence memos keep every feedback of a topology version
# alive, and a slotted instance is a third smaller.
@dataclass(frozen=True, slots=True)
class Feedback:
    """One piece of evidence gathered from the mapping network.

    Parameters
    ----------
    identifier:
        Unique name of the feedback (used to name the corresponding factor).
    kind:
        Observed outcome (positive / negative / neutral).
    structure:
        Whether it came from a cycle or from parallel paths.
    mapping_names:
        Names of the mappings whose correctness the feedback constrains, in
        traversal order.
    attribute:
        The attribute the feedback is about (fine granularity, §4.1).
    origin:
        Peer that gathered the feedback (used by the embedded scheme).
    """

    identifier: str
    kind: FeedbackKind
    structure: StructureKind
    mapping_names: Tuple[str, ...]
    attribute: str
    origin: str = ""

    def __post_init__(self) -> None:
        if len(self.mapping_names) < 2:
            raise FeedbackError(
                f"feedback {self.identifier!r} needs at least two mappings, "
                f"got {self.mapping_names!r}"
            )
        if len(set(self.mapping_names)) != len(self.mapping_names):
            raise FeedbackError(
                f"feedback {self.identifier!r} lists a mapping twice: "
                f"{self.mapping_names!r}"
            )

    @property
    def is_informative(self) -> bool:
        """Neutral feedback carries no factor-graph evidence."""
        return self.kind is not FeedbackKind.NEUTRAL

    @property
    def size(self) -> int:
        return len(self.mapping_names)

    def variable_names(self) -> Tuple[str, ...]:
        """Factor-graph variable names of the involved mappings
        (:func:`variable_name_for`)."""
        return tuple(
            variable_name_for(name, self.attribute) for name in self.mapping_names
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        sign = {"positive": "+", "negative": "-", "neutral": "⊥"}[self.kind.value]
        return f"{self.identifier}{sign}[{' , '.join(self.mapping_names)}]@{self.attribute}"


def positive_feedback_probability(incorrect_count: int, delta: float) -> float:
    """``P(f+ | assignment)`` as a function of how many mappings are incorrect."""
    if incorrect_count < 0:
        raise FeedbackError("incorrect_count cannot be negative")
    if incorrect_count == 0:
        return 1.0
    if incorrect_count == 1:
        return 0.0
    return delta


def feedback_count_values(
    kind: FeedbackKind, delta: float, size: int
) -> np.ndarray:
    """The feedback CPT as a count-value vector ``f(k incorrect)``.

    ``f(k)`` is :func:`positive_feedback_probability` for a positive
    feedback and its complement for a negative one — the full CPT of the
    paper's table in O(size) memory instead of ``2**size``.  This is the
    vector the count-space kernels evaluate directly.
    """
    if not 0.0 <= delta <= 1.0:
        raise FeedbackError(f"Δ must be in [0, 1], got {delta}")
    if kind is FeedbackKind.NEUTRAL:
        raise FeedbackError("neutral feedback has no factor encoding")
    counts = np.arange(size + 1)
    positive = np.where(counts == 0, 1.0, np.where(counts == 1, 0.0, delta))
    values = positive if kind is FeedbackKind.POSITIVE else 1.0 - positive
    return np.clip(values, 0.0, 1.0)


def feedback_factor(
    feedback: Feedback,
    delta: float,
    variables: Optional[Sequence[BinaryVariable]] = None,
) -> Factor:
    """Build the factor encoding an observed feedback.

    ``variables`` may be supplied to reuse variable objects already present
    in a factor graph; otherwise fresh :class:`BinaryVariable` instances are
    created from the feedback's variable names.

    Short structures get a dense :class:`~repro.factorgraph.factors.Factor`
    table (the einsum kernels win there); structures of
    :data:`~repro.constants.COUNT_KERNEL_MIN_ARITY` or more mappings get a
    count-space :class:`~repro.factorgraph.factors.CountFactor`, which every
    engine routes through the count kernels — long cycles and parallel
    paths therefore never materialise a ``(2,)**size`` CPT anywhere.
    """
    if not 0.0 <= delta <= 1.0:
        raise FeedbackError(f"Δ must be in [0, 1], got {delta}")
    if not feedback.is_informative:
        raise FeedbackError(
            f"neutral feedback {feedback.identifier!r} has no factor encoding"
        )
    names = feedback.variable_names()
    if variables is None:
        variables = [BinaryVariable(name) for name in names]
    else:
        variables = list(variables)
        if tuple(v.name for v in variables) != names:
            raise FeedbackError(
                "supplied variables do not match the feedback's mappings: "
                f"{[v.name for v in variables]} vs {list(names)}"
            )
    size = len(variables)
    factor_name = f"feedback({feedback.identifier})"
    if size >= COUNT_KERNEL_MIN_ARITY:
        return CountFactor(
            factor_name,
            tuple(variables),
            feedback_count_values(feedback.kind, delta, size),
        )
    table = np.zeros((2,) * size)
    for states in itertools.product((CORRECT, INCORRECT), repeat=size):
        incorrect = sum(1 for state in states if state == INCORRECT)
        p_positive = positive_feedback_probability(incorrect, delta)
        value = p_positive if feedback.kind is FeedbackKind.POSITIVE else 1.0 - p_positive
        index = tuple(0 if state == CORRECT else 1 for state in states)
        table[index] = value
    # Guard against an identically-zero factor (can only happen for a
    # negative feedback over a single mapping, which __post_init__ forbids).
    table = np.clip(table, 0.0, 1.0)
    return Factor(factor_name, tuple(variables), table)


def feedback_from_cycle(
    cycle: MappingCycle,
    attribute: str,
    identifier: Optional[str] = None,
    mapping_names: Optional[Tuple[str, ...]] = None,
) -> Feedback:
    """Evaluate a mapping cycle for ``attribute`` and wrap the outcome.

    The outcome is computed by pushing the attribute around the cycle's
    transitive closure (§3.2.1); the cycle checked its chain when it was
    built.  ``mapping_names`` labels the constrained mappings (the cycle's
    own names by default), one label per mapping in traversal order — e.g.
    the per-origin instances of the local view.
    """
    image = composition.image_of(cycle.mappings, attribute)
    kind = FeedbackKind(composition.compare_images(attribute, image))
    return Feedback(
        identifier=identifier or f"cycle[{'|'.join(cycle.mapping_names)}]",
        kind=kind,
        structure=StructureKind.CYCLE,
        mapping_names=mapping_names or cycle.mapping_names,
        attribute=attribute,
        origin=cycle.origin,
    )


def feedback_from_parallel_paths(
    paths: ParallelPaths,
    attribute: str,
    identifier: Optional[str] = None,
    mapping_names: Optional[Tuple[str, ...]] = None,
) -> Feedback:
    """Evaluate a pair of parallel paths for ``attribute`` and wrap the
    outcome; ``mapping_names`` labels the mappings as in
    :func:`feedback_from_cycle`, and the pair checked its chains when it
    was built."""
    outcome = composition.compare_images(
        composition.image_of(paths.first, attribute),
        composition.image_of(paths.second, attribute),
    )
    kind = FeedbackKind(outcome)
    return Feedback(
        identifier=identifier or f"parallel[{'|'.join(paths.mapping_names)}]",
        kind=kind,
        structure=StructureKind.PARALLEL_PATHS,
        mapping_names=mapping_names or paths.mapping_names,
        attribute=attribute,
        origin=paths.source,
    )
