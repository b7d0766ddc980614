"""Unit tests for the string-similarity matchers."""

import pytest

from repro.alignment.eon import build_eon_network
from repro.alignment.matchers import (
    CompositeMatcher,
    edit_distance_matcher,
    exact_matcher,
    label_forms,
    levenshtein_distance,
    ngram_matcher,
    normalized_label,
    token_matcher,
)
from repro.alignment.ontology import Concept
from repro.schema.attribute import tokenize_identifier


class TestNormalizedLabel:
    def test_camel_case_flattened(self):
        assert normalized_label("PublisherAddress") == "publisher address"

    def test_snake_case_flattened(self):
        assert normalized_label("publisher_address") == "publisher address"


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("author", "auteur", 2),
        ],
    )
    def test_distances(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    def test_symmetry(self):
        assert levenshtein_distance("editor", "editeur") == levenshtein_distance(
            "editeur", "editor"
        )


class TestExactMatcher:
    def test_matches_same_normalised_label(self):
        assert exact_matcher(Concept("Author"), Concept("author")) == 1.0
        assert exact_matcher(Concept("hasAuthor"), Concept("has_author")) == 1.0

    def test_no_match(self):
        assert exact_matcher(Concept("Author"), Concept("Title")) == 0.0

    def test_matches_through_synonyms(self):
        creator = Concept("Creator", synonyms=("Author",))
        assert exact_matcher(creator, Concept("Author")) == 1.0


class TestEditDistanceMatcher:
    def test_identical_names_score_one(self):
        assert edit_distance_matcher(Concept("Author"), Concept("Author")) == 1.0

    def test_similar_names_score_high(self):
        score = edit_distance_matcher(Concept("Auteur"), Concept("Author"))
        assert 0.6 < score < 1.0

    def test_dissimilar_names_score_low(self):
        score = edit_distance_matcher(Concept("Annee"), Concept("Publisher"))
        assert score < 0.4


class TestNgramAndTokenMatchers:
    def test_ngram_shared_substring(self):
        score = ngram_matcher(Concept("PublicationYear"), Concept("YearOfPublication"))
        assert score > 0.3

    def test_token_matcher_shares_tokens(self):
        # {has, title} vs {title, of, work}: Jaccard = 1/4.
        assert token_matcher(Concept("hasTitle"), Concept("TitleOfWork")) == pytest.approx(0.25)
        assert token_matcher(Concept("DocumentTitle"), Concept("title")) == pytest.approx(0.5)

    def test_token_matcher_disjoint(self):
        assert token_matcher(Concept("Author"), Concept("Publisher")) == 0.0


class TestCompositeMatcher:
    def test_score_in_unit_interval(self):
        matcher = CompositeMatcher()
        assert 0.0 <= matcher.score(Concept("Author"), Concept("Editor")) <= 1.0

    def test_exact_match_dominates(self):
        matcher = CompositeMatcher()
        assert matcher.score(Concept("Author"), Concept("author")) == 1.0

    def test_add_custom_matcher(self):
        matcher = CompositeMatcher(matchers=[])
        assert matcher.score(Concept("a"), Concept("b")) == 0.0
        matcher.add(lambda x, y: 0.42, weight=1.0)
        assert matcher.score(Concept("a"), Concept("b")) == pytest.approx(0.42)

    def test_callable_interface(self):
        matcher = CompositeMatcher()
        assert matcher(Concept("Author"), Concept("Author")) == 1.0


# -- the per-pair formulas, kept as the reference of the label forms ----------


def _reference_normalized(label):
    return " ".join(tokenize_identifier(label))


def _reference_exact(first, second):
    first_labels = {_reference_normalized(label) for label in first.all_labels}
    second_labels = {_reference_normalized(label) for label in second.all_labels}
    return 1.0 if first_labels & second_labels else 0.0


def _reference_edit(first, second):
    best = 0.0
    for label_first in first.all_labels:
        for label_second in second.all_labels:
            a = _reference_normalized(label_first)
            b = _reference_normalized(label_second)
            longest = max(len(a), len(b))
            if longest == 0:
                continue
            best = max(best, 1.0 - levenshtein_distance(a, b) / longest)
    return best


def _reference_grams(text, n):
    padded = f" {text} "
    if len(padded) < n:
        return {padded}
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


def _reference_ngram(first, second, n=3):
    best = 0.0
    for label_first in first.all_labels:
        for label_second in second.all_labels:
            grams_first = _reference_grams(_reference_normalized(label_first), n)
            grams_second = _reference_grams(_reference_normalized(label_second), n)
            overlap = len(grams_first & grams_second)
            best = max(best, 2.0 * overlap / (len(grams_first) + len(grams_second)))
    return best


def _reference_token(first, second):
    best = 0.0
    for label_first in first.all_labels:
        for label_second in second.all_labels:
            tokens_first = set(tokenize_identifier(label_first))
            tokens_second = set(tokenize_identifier(label_second))
            if not tokens_first or not tokens_second:
                continue
            best = max(
                best, len(tokens_first & tokens_second) / len(tokens_first | tokens_second)
            )
    return best


def _reference_composite(first, second):
    best = 0.0
    for matcher, weight in (
        (_reference_exact, 1.0),
        (_reference_edit, 0.9),
        (_reference_ngram, 0.85),
        (_reference_token, 0.8),
    ):
        best = max(best, weight * matcher(first, second))
    return min(best, 1.0)


class TestLabelForms:
    def test_every_eon_score_equals_the_per_pair_formulas(self):
        scenario = build_eon_network()
        concepts = {
            ontology.name: {concept.name: concept for concept in ontology.concepts}
            for ontology in scenario.ontologies
        }
        checked = 0
        for (source, target), result in scenario.alignments.items():
            for (first, second), score in result.scores.items():
                expected = _reference_composite(
                    concepts[source][first], concepts[target][second]
                )
                assert score == expected, (source, target, first, second)
                checked += 1
        assert checked > 10_000

    @pytest.mark.parametrize(
        "matcher, reference",
        [
            (exact_matcher, _reference_exact),
            (edit_distance_matcher, _reference_edit),
            (ngram_matcher, _reference_ngram),
            (token_matcher, _reference_token),
        ],
    )
    def test_each_matcher_equals_its_per_pair_formula(self, matcher, reference):
        concepts = [
            Concept("Author", synonyms=("author", "Auteur", "creator_name")),
            Concept("hasTitle", label="Title of work"),
            Concept("PublicationYear", synonyms=("year", "Année")),
            Concept("x_-_y", synonyms=("X.Y",)),
        ]
        for first in concepts:
            for second in concepts:
                assert matcher(first, second) == reference(first, second)
        assert ngram_matcher(concepts[0], concepts[1], n=2) == _reference_ngram(
            concepts[0], concepts[1], n=2
        )

    def test_forms_keep_one_label_per_normal_form(self):
        forms = label_forms(Concept("hasAuthor", label="has_author", synonyms=("Writer",)))
        assert forms.labels == ("has author", "writer")
        assert forms.tokens == (frozenset({"has", "author"}), frozenset({"writer"}))

    def test_custom_matchers_still_take_concepts(self):
        seen = []
        matcher = CompositeMatcher(matchers=[])
        matcher.add(lambda first, second: seen.append((first, second)) or 0.3)
        first, second = Concept("a"), Concept("b")
        assert matcher.score_forms(label_forms(first), label_forms(second)) == 0.3
        assert seen == [(first, second)]
