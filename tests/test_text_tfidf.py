"""Tests for TF-IDF vectors and the SoftTFIDF similarity used by DUMAS."""

import pytest

from repro.text.tfidf import SoftTfIdf, TfIdfVectorizer


CORPUS = [
    "Seagate Barracuda 500 GB",
    "Seagate Momentus 250 GB",
    "WD Raptor 150 GB",
    "Hitachi Deskstar 1 TB",
]


class TestTfIdfVectorizer:
    def test_transform_is_normalised(self):
        vectorizer = TfIdfVectorizer(CORPUS)
        weights = vectorizer.transform("Seagate Barracuda")
        norm = sum(value * value for value in weights.values()) ** 0.5
        assert norm == pytest.approx(1.0)

    def test_rare_token_weighs_more_than_common(self):
        vectorizer = TfIdfVectorizer(CORPUS)
        weights = vectorizer.transform("Seagate Barracuda")
        assert weights["barracuda"] > weights["seagate"]

    def test_unknown_token_gets_max_idf(self):
        vectorizer = TfIdfVectorizer(CORPUS)
        assert vectorizer.idf("zzzunknown") >= vectorizer.idf("gb")

    def test_empty_text_gives_empty_vector(self):
        vectorizer = TfIdfVectorizer(CORPUS)
        assert vectorizer.transform("") == {}

    def test_similarity_self(self):
        vectorizer = TfIdfVectorizer(CORPUS)
        assert vectorizer.similarity("Seagate Barracuda", "Seagate Barracuda") == pytest.approx(1.0)

    def test_similarity_unrelated(self):
        vectorizer = TfIdfVectorizer(CORPUS)
        assert vectorizer.similarity("Seagate Barracuda", "Hitachi Deskstar") < 0.3

    def test_num_documents(self):
        assert TfIdfVectorizer(CORPUS).num_documents == len(CORPUS)


class TestSoftTfIdf:
    def test_exact_match_high(self):
        soft = SoftTfIdf(CORPUS)
        assert soft.similarity("Seagate Barracuda", "Seagate Barracuda") == (
            pytest.approx(1.0, abs=1e-6)
        )

    def test_near_token_match_counts(self):
        soft = SoftTfIdf(CORPUS, threshold=0.85)
        # "Barracud" is a close Jaro-Winkler match for "Barracuda".
        assert soft.similarity("Seagate Barracuda", "Seagate Barracud") > 0.7

    def test_unrelated_strings_low(self):
        soft = SoftTfIdf(CORPUS)
        assert soft.similarity("Seagate Barracuda", "Hitachi Deskstar") < 0.3

    def test_empty_string(self):
        soft = SoftTfIdf(CORPUS)
        assert soft.similarity("", "Seagate") == 0.0

    def test_bounded(self):
        soft = SoftTfIdf(CORPUS)
        for a in CORPUS:
            for b in CORPUS:
                assert 0.0 <= soft.similarity(a, b) <= 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SoftTfIdf(CORPUS, threshold=0.0)

    def test_threshold_property(self):
        assert SoftTfIdf(CORPUS, threshold=0.95).threshold == 0.95
