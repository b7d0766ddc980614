"""Detection-quality metrics.

The paper's Figure 12 reports *precision*: among the mappings the scheme
flags as erroneous at threshold θ, the fraction that is actually erroneous.
We also compute recall and F1 (useful for the ablation benchmarks), plus a
couple of helpers for sweeping θ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping as TMapping, Sequence, Tuple

from ..exceptions import EvaluationError

__all__ = [
    "ConfusionCounts",
    "DetectionMetrics",
    "score_detection",
    "precision_curve",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """Raw confusion-matrix counts for erroneous-mapping detection.

    "Positive" means *flagged as erroneous*.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def flagged(self) -> int:
        return self.true_positives + self.false_positives

    @property
    def actual_errors(self) -> int:
        return self.true_positives + self.false_negatives

    @property
    def total(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )


@dataclass(frozen=True)
class DetectionMetrics:
    """Precision / recall / F1 plus the underlying counts."""

    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, counts: ConfusionCounts) -> "DetectionMetrics":
        precision = (
            counts.true_positives / counts.flagged if counts.flagged else 0.0
        )
        recall = (
            counts.true_positives / counts.actual_errors
            if counts.actual_errors
            else 0.0
        )
        f1 = (
            2 * precision * recall / (precision + recall)
            if (precision + recall) > 0
            else 0.0
        )
        return cls(counts=counts, precision=precision, recall=recall, f1=f1)


def score_detection(
    posteriors: TMapping[Tuple[str, str], float],
    ground_truth: TMapping[Tuple[str, str], bool],
    theta: float = 0.5,
) -> DetectionMetrics:
    """Score flagged-as-erroneous decisions against ground truth.

    Parameters
    ----------
    posteriors:
        ``{(mapping name, attribute): P(correct)}`` — a pair is flagged as
        erroneous when its posterior is ≤ θ.
    ground_truth:
        ``{(mapping name, attribute): is_correct}``.  Only pairs present in
        the ground truth are scored; posterior-less pairs in the ground
        truth count as *not flagged* (the detector had no evidence).
    theta:
        Decision threshold θ.
    """
    if not 0.0 <= theta <= 1.0:
        raise EvaluationError(f"theta must be in [0, 1], got {theta}")
    if not ground_truth:
        raise EvaluationError("ground truth is empty; nothing to score")
    tp = fp = fn = tn = 0
    for key, is_correct in ground_truth.items():
        posterior = posteriors.get(key)
        flagged = posterior is not None and posterior <= theta
        if flagged and not is_correct:
            tp += 1
        elif flagged and is_correct:
            fp += 1
        elif not flagged and not is_correct:
            fn += 1
        else:
            tn += 1
    return DetectionMetrics.from_counts(
        ConfusionCounts(
            true_positives=tp,
            false_positives=fp,
            false_negatives=fn,
            true_negatives=tn,
        )
    )


def precision_curve(
    posteriors: TMapping[Tuple[str, str], float],
    ground_truth: TMapping[Tuple[str, str], bool],
    thetas: Sequence[float],
) -> List[Tuple[float, DetectionMetrics]]:
    """Detection metrics for every θ in ``thetas`` (the Figure 12 sweep)."""
    return [
        (theta, score_detection(posteriors, ground_truth, theta=theta))
        for theta in thetas
    ]
