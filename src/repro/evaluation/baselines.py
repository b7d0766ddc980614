"""The baseline detector the probabilistic scheme is compared against.

:func:`chatty_web_baseline` is the authors' earlier, purely deductive
heuristic (the "Chatty Web" approach, discussed in §6): any mapping that
participates in at least one inconsistent (negative) cycle or parallel path
is disqualified outright.  On the introductory example this flags three
mappings although only one is faulty; the probabilistic scheme gets all
five right, which is exactly the comparison our ablation benchmark
reproduces.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..core.feedback import Feedback, FeedbackKind

__all__ = ["chatty_web_baseline"]


def chatty_web_baseline(
    feedbacks: Iterable[Feedback],
) -> Dict[Tuple[str, str], float]:
    """Deductive baseline: disqualify every mapping seen in a negative cycle.

    Returns pseudo-posteriors compatible with the evaluation metrics: 0.0
    for disqualified (mapping, attribute) pairs, 1.0 for pairs that only
    appear in positive feedback.
    """
    verdicts: Dict[Tuple[str, str], float] = {}
    for feedback in feedbacks:
        if feedback.kind is FeedbackKind.NEUTRAL:
            continue
        for mapping_name in feedback.mapping_names:
            key = (mapping_name, feedback.attribute)
            if feedback.kind is FeedbackKind.NEGATIVE:
                verdicts[key] = 0.0
            else:
                verdicts.setdefault(key, 1.0)
    return verdicts
