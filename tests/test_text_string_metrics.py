"""Tests for edit distance, Jaro(-Winkler), n-gram and token similarities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.string_metrics import (
    character_ngrams,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    ngram_similarity,
    token_set_similarity,
)

short_strings = st.text(alphabet="abcdefgh ", max_size=12)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("capacity", "capacty", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    def test_similarity_bounds(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0

    @given(a=short_strings, b=short_strings)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(a=short_strings, b=short_strings)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_longer_length(self, a, b):
        assert levenshtein_distance(a, b) <= max(len(a), len(b))


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_classic_example(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_empty_strings(self):
        assert jaro_similarity("", "abc") == 0.0

    def test_completely_different(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_winkler_boosts_shared_prefix(self):
        plain = jaro_similarity("capacity", "capacitor")
        boosted = jaro_winkler_similarity("capacity", "capacitor")
        assert boosted >= plain

    def test_winkler_invalid_prefix_weight(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_weight=0.5)

    @given(a=short_strings, b=short_strings)
    @settings(max_examples=60, deadline=None)
    def test_jaro_winkler_bounded(self, a, b):
        value = jaro_winkler_similarity(a, b)
        assert 0.0 <= value <= 1.0 + 1e-9


class TestNgrams:
    def test_character_trigrams_padded(self):
        grams = character_ngrams("abc", n=3)
        assert "##a" in grams and "abc" in grams and "c##" in grams

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", n=0)

    def test_empty_text(self):
        assert character_ngrams("", n=3) == []

    def test_ngram_similarity_identical(self):
        assert ngram_similarity("capacity", "capacity") == 1.0

    def test_ngram_similarity_related_names(self):
        assert ngram_similarity("capacity", "capacities") > ngram_similarity("capacity", "speed")


class TestTokenSimilarity:
    def test_shared_token(self):
        value = token_set_similarity("Storage Hard Drive / Capacity", "Capacity")
        assert value == pytest.approx(0.25)

    def test_identical_names(self):
        assert token_set_similarity("Buffer Size", "buffer size") == 1.0

    def test_no_overlap(self):
        assert token_set_similarity("Brand", "Resolution") == 0.0

    def test_both_empty(self):
        assert token_set_similarity("", "") == 1.0
