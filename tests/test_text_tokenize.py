"""Unit tests for repro.text.tokenize."""

import pytest

from repro.text.tokenize import (
    sliding_ngrams,
    tokenize,
    tokenize_attribute_name,
    tokenize_title,
    tokenize_value,
)


class TestTokenize:
    def test_simple_sentence(self):
        assert tokenize("Hitachi Deskstar T7K500") == ["hitachi", "deskstar", "t7k500"]

    def test_lower_cases(self):
        assert tokenize("SATA") == ["sata"]

    def test_keeps_alphanumeric_runs_together(self):
        assert tokenize("500GB") == ["500gb"]

    def test_splits_on_hyphen(self):
        assert tokenize("SATA-300") == ["sata", "300"]

    def test_keeps_internal_decimal_point(self):
        assert "3.5" in tokenize('3.5" x 1/3H')

    def test_empty_string(self):
        assert tokenize("") == []

    def test_none_like_whitespace(self):
        assert tokenize("   \t\n ") == []

    def test_punctuation_only(self):
        assert tokenize("!!! --- ???") == []

    def test_duplicates_preserved(self):
        assert tokenize("GB GB GB") == ["gb", "gb", "gb"]

    def test_mixed_units(self):
        assert tokenize("7200 rpm") == ["7200", "rpm"]


class TestTokenizeVariants:
    def test_value_tokenizer_matches_generic(self):
        text = "Serial ATA 300"
        assert tokenize_value(text) == tokenize(text)

    def test_title_tokenizer_matches_generic(self):
        text = "HP 400GB 10K 3.5 DP NSAS HDD"
        assert tokenize_title(text) == tokenize(text)

    def test_attribute_name_removes_separators(self):
        assert tokenize_attribute_name("Storage Hard Drive / Capacity") == [
            "storage",
            "hard",
            "drive",
            "capacity",
        ]

    def test_attribute_name_abbreviation(self):
        assert tokenize_attribute_name("Mfr. Part #") == ["mfr", "part"]

    def test_attribute_name_empty(self):
        assert tokenize_attribute_name("") == []


class TestSlidingNgrams:
    def test_bigrams(self):
        assert sliding_ngrams(["hard", "disk", "drive"], 2) == ["hard disk", "disk drive"]

    def test_unigrams_identity(self):
        assert sliding_ngrams(["a", "b"], 1) == ["a", "b"]

    def test_n_larger_than_sequence(self):
        assert sliding_ngrams(["only"], 3) == []

    def test_invalid_n_raises(self):
        with pytest.raises(ValueError):
            sliding_ngrams(["a"], 0)
