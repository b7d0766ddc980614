"""String-similarity matchers used by the automatic aligner.

The paper generates mappings with "the simple alignment techniques described
in [10]" (the Alignment API): label equality, edit distance, n-gram overlap,
and dictionary/synonym lookups.  These matchers reproduce that behaviour:
they are deliberately *simple*, so that — exactly as in the paper — a
non-negligible fraction of the correspondences they produce is wrong, giving
the probabilistic detector something to find.

Every matcher scores a pair of concepts in ``[0, 1]``; the aligner combines
the scores and keeps, for each source concept, the best-scoring target above
a threshold.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..schema.attribute import tokenize_identifier
from .ontology import Concept

__all__ = [
    "normalized_label",
    "exact_matcher",
    "levenshtein_distance",
    "edit_distance_matcher",
    "ngram_matcher",
    "token_matcher",
    "CompositeMatcher",
]

#: Signature of a matcher: score two concepts in [0, 1].
Matcher = Callable[[Concept, Concept], float]


def normalized_label(label: str) -> str:
    """Lower-case, token-joined normal form of a label."""
    return " ".join(tokenize_identifier(label))


def exact_matcher(first: Concept, second: Concept) -> float:
    """1.0 when any pair of (normalised) labels matches exactly, else 0.0."""
    first_labels = {normalized_label(label) for label in first.all_labels}
    second_labels = {normalized_label(label) for label in second.all_labels}
    return 1.0 if first_labels & second_labels else 0.0


def levenshtein_distance(first: str, second: str) -> int:
    """Classic dynamic-programming Levenshtein edit distance."""
    if first == second:
        return 0
    if not first:
        return len(second)
    if not second:
        return len(first)
    previous = list(range(len(second) + 1))
    for i, char_first in enumerate(first, start=1):
        current = [i]
        for j, char_second in enumerate(second, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            replace_cost = previous[j - 1] + (0 if char_first == char_second else 1)
            current.append(min(insert_cost, delete_cost, replace_cost))
        previous = current
    return previous[-1]


def edit_distance_matcher(first: Concept, second: Concept) -> float:
    """Similarity ``1 − d/max_len`` over the best label pair."""
    best = 0.0
    for label_first in first.all_labels:
        for label_second in second.all_labels:
            a = normalized_label(label_first)
            b = normalized_label(label_second)
            longest = max(len(a), len(b))
            if longest == 0:
                continue
            similarity = 1.0 - levenshtein_distance(a, b) / longest
            best = max(best, similarity)
    return best


def _ngrams(text: str, n: int) -> set[str]:
    padded = f" {text} "
    if len(padded) < n:
        return {padded}
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


def ngram_matcher(first: Concept, second: Concept, n: int = 3) -> float:
    """Dice coefficient over character n-grams of the best label pair."""
    best = 0.0
    for label_first in first.all_labels:
        for label_second in second.all_labels:
            grams_first = _ngrams(normalized_label(label_first), n)
            grams_second = _ngrams(normalized_label(label_second), n)
            if not grams_first or not grams_second:
                continue
            overlap = len(grams_first & grams_second)
            score = 2.0 * overlap / (len(grams_first) + len(grams_second))
            best = max(best, score)
    return best


def token_matcher(first: Concept, second: Concept) -> float:
    """Jaccard similarity of the word-token sets of the best label pair."""
    best = 0.0
    for label_first in first.all_labels:
        for label_second in second.all_labels:
            tokens_first = set(tokenize_identifier(label_first))
            tokens_second = set(tokenize_identifier(label_second))
            if not tokens_first or not tokens_second:
                continue
            score = len(tokens_first & tokens_second) / len(tokens_first | tokens_second)
            best = max(best, score)
    return best


class CompositeMatcher:
    """Weighted combination of several matchers.

    The score of a pair is the weighted maximum of the component scores —
    using the maximum (rather than the mean) mimics the behaviour of simple
    alignment toolchains that accept a correspondence as soon as *one*
    technique is confident, which is precisely how over-confident wrong
    matches slip through.
    """

    def __init__(self, matchers: Optional[Sequence[Tuple[Matcher, float]]] = None) -> None:
        if matchers is None:
            matchers = [
                (exact_matcher, 1.0),
                (edit_distance_matcher, 0.9),
                (ngram_matcher, 0.85),
                (token_matcher, 0.8),
            ]
        self.matchers: List[Tuple[Matcher, float]] = list(matchers)

    def add(self, matcher: Matcher, weight: float = 1.0) -> None:
        self.matchers.append((matcher, weight))

    def score(self, first: Concept, second: Concept) -> float:
        best = 0.0
        for matcher, weight in self.matchers:
            best = max(best, weight * matcher(first, second))
        return min(best, 1.0)

    def __call__(self, first: Concept, second: Concept) -> float:
        return self.score(first, second)
