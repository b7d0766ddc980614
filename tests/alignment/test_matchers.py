"""Unit tests for the string-similarity matchers."""

import pytest

from repro.alignment.matchers import (
    CompositeMatcher,
    edit_distance_matcher,
    exact_matcher,
    levenshtein_distance,
    ngram_matcher,
    normalized_label,
    token_matcher,
)
from repro.alignment.ontology import Concept


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
