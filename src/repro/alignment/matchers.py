"""String-similarity matchers used by the automatic aligner.

The paper generates mappings with "the simple alignment techniques described
in [10]" (the Alignment API): label equality, edit distance, n-gram overlap,
and dictionary/synonym lookups.  These matchers reproduce that behaviour:
they are deliberately *simple*, so that — exactly as in the paper — a
non-negligible fraction of the correspondences they produce is wrong, giving
the probabilistic detector something to find.

Every matcher scores a pair of concepts in ``[0, 1]``; the aligner combines
the scores and keeps, for each source concept, the best-scoring target above
a threshold.  The built-in matchers compare label *forms* — each label's
normal form, word tokens and character trigrams — which
:func:`label_forms` computes once per concept, so an aligner scoring every
concept pair of two ontologies normalises each concept once per alignment,
not once per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..schema.attribute import tokenize_identifier
from .ontology import Concept

__all__ = [
    "normalized_label",
    "LabelForms",
    "label_forms",
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


def _ngrams(text: str, n: int) -> set[str]:
    padded = f" {text} "
    if len(padded) < n:
        return {padded}
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


@dataclass(frozen=True)
class LabelForms:
    """A concept's labels in the forms the built-in matchers compare.

    ``labels`` holds the distinct normal forms (:func:`normalized_label`)
    of :attr:`~repro.alignment.ontology.Concept.all_labels`, in order;
    ``tokens`` and ``grams`` hold each one's word-token set and character
    trigram set.  Two labels with one normal form have the same tokens and
    trigrams, and every built-in matcher scores a concept pair by its best
    label pair, so keeping one of them changes no score.
    """

    concept: Concept
    labels: Tuple[str, ...]
    tokens: Tuple[FrozenSet[str], ...]
    grams: Tuple[FrozenSet[str], ...]


def label_forms(concept: Concept) -> LabelForms:
    """Normalise ``concept``'s labels once, for any number of pairs."""
    forms: Dict[str, FrozenSet[str]] = {}
    for label in concept.all_labels:
        forms.setdefault(normalized_label(label), frozenset(tokenize_identifier(label)))
    return LabelForms(
        concept=concept,
        labels=tuple(forms),
        tokens=tuple(forms.values()),
        grams=tuple(frozenset(_ngrams(label, 3)) for label in forms),
    )


def _exact(first: LabelForms, second: LabelForms) -> float:
    return 0.0 if set(first.labels).isdisjoint(second.labels) else 1.0


def exact_matcher(first: Concept, second: Concept) -> float:
    """1.0 when any pair of (normalised) labels matches exactly, else 0.0."""
    return _exact(label_forms(first), label_forms(second))


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


def _edit(first: LabelForms, second: LabelForms) -> float:
    best = 0.0
    for a in first.labels:
        for b in second.labels:
            longest = max(len(a), len(b))
            if longest == 0:
                continue
            similarity = 1.0 - levenshtein_distance(a, b) / longest
            best = max(best, similarity)
    return best


def edit_distance_matcher(first: Concept, second: Concept) -> float:
    """Similarity ``1 − d/max_len`` over the best label pair."""
    return _edit(label_forms(first), label_forms(second))


def _dice(grams: Sequence[FrozenSet[str]], others: Sequence[FrozenSet[str]]) -> float:
    best = 0.0
    for grams_first in grams:
        for grams_second in others:
            overlap = len(grams_first & grams_second)
            score = 2.0 * overlap / (len(grams_first) + len(grams_second))
            best = max(best, score)
    return best


def _ngram(first: LabelForms, second: LabelForms) -> float:
    return _dice(first.grams, second.grams)


def ngram_matcher(first: Concept, second: Concept, n: int = 3) -> float:
    """Dice coefficient over character n-grams of the best label pair."""
    if n == 3:
        return _ngram(label_forms(first), label_forms(second))
    return _dice(
        [frozenset(_ngrams(label, n)) for label in label_forms(first).labels],
        [frozenset(_ngrams(label, n)) for label in label_forms(second).labels],
    )


def _token(first: LabelForms, second: LabelForms) -> float:
    best = 0.0
    for tokens_first in first.tokens:
        for tokens_second in second.tokens:
            if not tokens_first or not tokens_second:
                continue
            score = len(tokens_first & tokens_second) / len(tokens_first | tokens_second)
            best = max(best, score)
    return best


def token_matcher(first: Concept, second: Concept) -> float:
    """Jaccard similarity of the word-token sets of the best label pair."""
    return _token(label_forms(first), label_forms(second))


#: The label-forms scorer behind each built-in matcher.
_ON_FORMS: Dict[Callable, Callable[[LabelForms, LabelForms], float]] = {
    exact_matcher: _exact,
    edit_distance_matcher: _edit,
    ngram_matcher: _ngram,
    token_matcher: _token,
}


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
        """Add a matcher of two concepts, weighted."""
        self.matchers.append((matcher, weight))

    def score(self, first: Concept, second: Concept) -> float:
        return self.score_forms(label_forms(first), label_forms(second))

    def score_forms(self, first: LabelForms, second: LabelForms) -> float:
        """:meth:`score` of the two concepts behind ``first`` and
        ``second``: the built-in matchers score the forms, any other
        matcher the concepts."""
        best = 0.0
        for matcher, weight in self.matchers:
            on_forms = _ON_FORMS.get(matcher)
            if on_forms is None:
                value = matcher(first.concept, second.concept)
            else:
                value = on_forms(first, second)
            best = max(best, weight * value)
        return min(best, 1.0)

    def __call__(self, first: Concept, second: Concept) -> float:
        return self.score(first, second)
