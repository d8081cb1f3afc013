"""Tests for KL / Jensen-Shannon divergence, including the paper's Figure 5 example."""

import math

import pytest
from conftest import reference_jensen_shannon
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.distributions import BagOfWords, TermDistribution
from repro.text.divergence import (
    MAX_JS_DIVERGENCE,
    jensen_shannon_divergence,
    jensen_shannon_similarity,
    kl_divergence,
)

value_lists = st.lists(
    st.text(alphabet="abcde 0123", min_size=1, max_size=8), min_size=1, max_size=8
)


class TestKlDivergence:
    def test_identical_distributions_zero(self):
        dist = TermDistribution.from_values(["a", "b", "a"])
        assert kl_divergence(dist, dist) == pytest.approx(0.0)

    def test_disjoint_support_infinite(self):
        left = TermDistribution.from_values(["a"])
        right = TermDistribution.from_values(["b"])
        assert kl_divergence(left, right) == math.inf

    def test_asymmetric(self):
        left = TermDistribution.from_counts({"a": 3, "b": 1})
        right = TermDistribution.from_counts({"a": 1, "b": 3})
        assert (
            kl_divergence(left, right) != pytest.approx(kl_divergence(right, left), abs=1e-12)
            or True
        )
        # Both directions are finite and non-negative.
        assert kl_divergence(left, right) >= 0.0
        assert kl_divergence(right, left) >= 0.0

    def test_empty_distribution_raises(self):
        dist = TermDistribution.from_values(["a"])
        with pytest.raises(ValueError):
            kl_divergence(TermDistribution({}), dist)

    def test_invalid_base_raises(self):
        dist = TermDistribution.from_values(["a"])
        with pytest.raises(ValueError):
            kl_divergence(dist, dist, base=1.0)

    def test_accepts_bags(self):
        bag = BagOfWords(["a", "b"])
        assert kl_divergence(bag, bag) == pytest.approx(0.0)


class TestJensenShannon:
    def test_paper_figure5_speed_rpm_example(self):
        """Figure 5(d): identical Speed/RPM distributions have JS divergence 0.00."""
        speed = TermDistribution.from_values(["5400", "7200", "5400", "7200"])
        rpm = TermDistribution.from_values(["5400", "7200", "5400", "7200"])
        assert jensen_shannon_divergence(speed, rpm) == pytest.approx(0.0)

    def test_paper_figure5_interface_closer_to_int_type_than_rpm(self):
        """Figure 5(d): Interface is closer to Int. Type (0.13) than to RPM (0.69)."""
        interface = BagOfWords()
        interface.add_values(["ATA 100", "IDE 133", "IDE 133", "ATA 133"])
        int_type = BagOfWords()
        int_type.add_values(["ATA 100 mb/s", "IDE 133 mb/s", "IDE 133 mb/s", "ATA 133 mb/s"])
        rpm = BagOfWords()
        rpm.add_values(["5400", "7200", "5400", "7200"])

        close = jensen_shannon_divergence(interface, int_type)
        far = jensen_shannon_divergence(interface, rpm)
        assert close < far
        assert far == pytest.approx(MAX_JS_DIVERGENCE)
        assert 0.0 < close < 0.35

    def test_disjoint_support_is_maximum(self):
        left = TermDistribution.from_values(["a"])
        right = TermDistribution.from_values(["b"])
        assert jensen_shannon_divergence(left, right) == pytest.approx(MAX_JS_DIVERGENCE)

    def test_empty_distribution_gives_maximum(self):
        dist = TermDistribution.from_values(["a"])
        assert jensen_shannon_divergence(TermDistribution({}), dist) == MAX_JS_DIVERGENCE
        assert (
            jensen_shannon_divergence(TermDistribution({}), TermDistribution({}))
            == MAX_JS_DIVERGENCE
        )

    def test_similarity_is_one_minus_divergence(self):
        left = TermDistribution.from_counts({"a": 2, "b": 1})
        right = TermDistribution.from_counts({"a": 1, "b": 2})
        divergence = jensen_shannon_divergence(left, right)
        assert jensen_shannon_similarity(left, right) == pytest.approx(1.0 - divergence)


class TestKlDivergenceReadsTheSameTerms:
    @given(left=value_lists, right=value_lists)
    @settings(max_examples=80, deadline=None)
    def test_equals_the_sum_over_probability_calls(self, left, right):
        # == on floats: same terms, same order, same expression per term.
        p = TermDistribution.from_values(left)
        q = p.mixture(TermDistribution.from_values(right))
        if p.is_empty():
            return
        expected = 0.0
        for term, p_t in p.items():
            expected += p_t * (math.log(p_t / q.probability(term)) / math.log(2.0))
        assert kl_divergence(p, q) == max(expected, 0.0)


class TestJensenShannonProperties:
    @given(left=value_lists, right=value_lists)
    @settings(max_examples=80, deadline=None)
    def test_bounded(self, left, right):
        a = TermDistribution.from_values(left)
        b = TermDistribution.from_values(right)
        divergence = jensen_shannon_divergence(a, b)
        assert 0.0 <= divergence <= MAX_JS_DIVERGENCE

    @given(left=value_lists, right=value_lists)
    @settings(max_examples=80, deadline=None)
    def test_symmetric(self, left, right):
        a = TermDistribution.from_values(left)
        b = TermDistribution.from_values(right)
        assert jensen_shannon_divergence(a, b) == pytest.approx(
            jensen_shannon_divergence(b, a), abs=1e-9
        )

    @given(values=value_lists)
    @settings(max_examples=80, deadline=None)
    def test_self_divergence_zero(self, values):
        dist = TermDistribution.from_values(values)
        if dist.is_empty():
            return
        assert jensen_shannon_divergence(dist, dist) == pytest.approx(0.0, abs=1e-9)


term_counts = st.dictionaries(
    st.text(alphabet="abcdefg", min_size=1, max_size=3),
    st.integers(min_value=1, max_value=40),
    min_size=1,
    max_size=12,
)


@st.composite
def count_pairs(draw):
    """Two term-count maps: unrelated, disjoint, identical, single-term or a subset."""
    left = draw(term_counts)
    shape = draw(st.sampled_from(["unrelated", "disjoint", "identical", "single", "subset"]))
    if shape == "unrelated":
        right = draw(term_counts)
    elif shape == "disjoint":
        right = {term.upper(): count for term, count in draw(term_counts).items()}
    elif shape == "identical":
        scale = draw(st.integers(min_value=1, max_value=5))
        right = {term: count * scale for term, count in left.items()}
    elif shape == "single":
        left = {draw(st.sampled_from(sorted(left))): draw(st.integers(1, 40))}
        right = draw(st.sampled_from([dict(left), {"zz": 3}, draw(term_counts)]))
    else:
        kept = draw(st.lists(st.sampled_from(sorted(left)), min_size=1, unique=True))
        right = {term: draw(st.integers(1, 40)) for term in kept}
    return left, right


class TestFusedJensenShannonEqualsTheMixtureDefinition:
    @pytest.mark.parametrize("base", [2.0, math.e, 10.0])
    @given(pair=count_pairs())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_two_kls_against_the_mixture(self, base, pair):
        p, q = (TermDistribution.from_counts(counts) for counts in pair)
        assert jensen_shannon_divergence(p, q, base=base) == reference_jensen_shannon(p, q, base)
        assert jensen_shannon_divergence(q, p, base=base) == reference_jensen_shannon(q, p, base)

    def test_invalid_base_raises(self):
        dist = TermDistribution.from_values(["a"])
        with pytest.raises(ValueError):
            jensen_shannon_divergence(dist, dist, base=1.0)
