"""Unit and property-based tests for bags of words and term distributions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.distributions import BagOfWords, TermDistribution

# Strategy producing short lists of plausible value strings.
value_lists = st.lists(
    st.text(alphabet="abcdefg0123456789 ", min_size=1, max_size=12), min_size=1, max_size=10
)


class TestBagOfWords:
    def test_add_value_tokenises(self):
        bag = BagOfWords()
        bag.add_value("ATA 100")
        assert sorted(bag.terms()) == ["100", "ata"]

    def test_total_counts_multiplicity(self):
        bag = BagOfWords()
        bag.add_values(["IDE 133", "IDE 133"])
        assert bag.total == 4
        assert bag.count("ide") == 2

    def test_empty_bag_is_falsy(self):
        assert not BagOfWords()

    def test_nonempty_bag_is_truthy(self):
        assert BagOfWords(["x"])

    def test_merge_sums_counts(self):
        left = BagOfWords(["a", "b"])
        right = BagOfWords(["b", "c"])
        merged = left.merge(right)
        assert merged.count("b") == 2
        assert merged.total == 4
        # The operands are not mutated.
        assert left.count("b") == 1

    def test_contains_and_iter(self):
        bag = BagOfWords(["ata", "100"])
        assert "ata" in bag
        assert set(iter(bag)) == {"ata", "100"}

    def test_most_common(self):
        bag = BagOfWords(["a", "a", "b"])
        assert bag.most_common(1) == [("a", 2)]

    def test_equality(self):
        assert BagOfWords(["a", "b"]) == BagOfWords(["b", "a"])

    def test_term_set(self):
        assert BagOfWords(["a", "a", "b"]).term_set() == frozenset({"a", "b"})

    def test_distribution_and_term_set_memoised_until_the_bag_grows(self):
        bag = BagOfWords(["a", "a", "b"])
        distribution, terms = bag.distribution(), bag.term_set()
        assert bag.distribution() is distribution
        assert bag.term_set() is terms
        bag.add_value("b c")
        assert bag.term_set() == frozenset({"a", "b", "c"})
        assert bag.distribution().as_dict() == TermDistribution.from_counts(bag.counts()).as_dict()
        assert list(bag.distribution().items()) == [("a", 2 / 5), ("b", 2 / 5), ("c", 1 / 5)]
        # The views handed out earlier still describe the bag as it was.
        assert distribution.as_dict() == {"a": 2 / 3, "b": 1 / 3}
        assert terms == frozenset({"a", "b"})

    def test_merge_does_not_share_memoised_views(self):
        left, right = BagOfWords(["a"]), BagOfWords(["b"])
        left.distribution(), left.term_set()
        merged = left.merge(right)
        assert merged.term_set() == frozenset({"a", "b"})
        assert merged.distribution().as_dict() == {"a": 0.5, "b": 0.5}


class TestTermDistribution:
    def test_from_counts_normalises(self):
        dist = TermDistribution.from_counts({"a": 3, "b": 1})
        assert dist.probability("a") == pytest.approx(0.75)
        assert dist.probability("b") == pytest.approx(0.25)

    def test_unseen_term_probability_zero(self):
        dist = TermDistribution.from_counts({"a": 1})
        assert dist.probability("zzz") == 0.0

    def test_empty_distribution(self):
        dist = TermDistribution.from_counts({})
        assert dist.is_empty()
        assert len(dist) == 0

    def test_from_values(self):
        dist = TermDistribution.from_values(["5400", "7200", "5400", "7200"])
        assert dist.probability("5400") == pytest.approx(0.5)

    def test_mixture_equal_weight(self):
        left = TermDistribution.from_counts({"a": 1})
        right = TermDistribution.from_counts({"b": 1})
        mixture = left.mixture(right)
        assert mixture.probability("a") == pytest.approx(0.5)
        assert mixture.probability("b") == pytest.approx(0.5)

    def test_mixture_invalid_weight(self):
        left = TermDistribution.from_counts({"a": 1})
        with pytest.raises(ValueError):
            left.mixture(left, weight=1.5)

    def test_support(self):
        dist = TermDistribution.from_counts({"a": 1, "b": 2})
        assert dist.support() == frozenset({"a", "b"})


class TestDistributionProperties:
    @given(values=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_probabilities_sum_to_one(self, values):
        dist = TermDistribution.from_values(values)
        if dist.is_empty():
            return
        assert math.isclose(sum(p for _, p in dist.items()), 1.0, rel_tol=1e-9)

    @given(values=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_probabilities_non_negative(self, values):
        dist = TermDistribution.from_values(values)
        assert all(p >= 0.0 for _, p in dist.items())

    @given(values=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_bag_total_equals_sum_of_counts(self, values):
        bag = BagOfWords()
        bag.add_values(values)
        assert bag.total == sum(bag.counts().values())

    @given(left=value_lists, right=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_total_is_sum(self, left, right):
        bag_left = BagOfWords()
        bag_left.add_values(left)
        bag_right = BagOfWords()
        bag_right.add_values(right)
        merged = bag_left.merge(bag_right)
        assert merged.total == bag_left.total + bag_right.total

    @given(values=value_lists, weight=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_mixture_is_valid_distribution(self, values, weight):
        dist = TermDistribution.from_values(values)
        other = TermDistribution.from_values(list(reversed(values)))
        if dist.is_empty() or other.is_empty():
            return
        mixture = dist.mixture(other, weight=weight)
        assert math.isclose(sum(p for _, p in mixture.items()), 1.0, rel_tol=1e-9)
