"""Bags of words and term probability distributions.

Paper Section 3.1: for every candidate correspondence the system collects
"a bag of words ... that contains all the values for attribute A_p of
products of P" and the analogous bag for the offer attribute, then turns
each bag into a term distribution

    p_A(t) = (number of times t appears in A) / (total number of elements in A)

These two small classes implement exactly that and are the substrate on
which the Jensen-Shannon and Jaccard features are computed.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.text.tokenize import tokenize_value

__all__ = ["BagOfWords", "TermDistribution"]


class BagOfWords:
    """A multiset of terms accumulated from attribute values.

    The bag is mutable while being assembled (``add_value`` / ``add_terms``)
    and is converted to an immutable :class:`TermDistribution` when the
    similarity features are computed.

    Examples
    --------
    >>> bag = BagOfWords()
    >>> bag.add_value("ATA 100")
    >>> bag.add_value("IDE 133")
    >>> sorted(bag.terms())
    ['100', '133', 'ata', 'ide']
    >>> bag.total
    4
    """

    __slots__ = ("_counts", "_total", "_distribution", "_term_set")

    def __init__(self, terms: Iterable[str] = ()) -> None:
        self._counts: Counter = Counter()
        self._total = 0
        # Memoised views of the counts; add_terms drops them.
        self._distribution: Optional[TermDistribution] = None
        self._term_set: Optional[frozenset] = None
        self.add_terms(terms)

    # -- construction -----------------------------------------------------

    def add_value(self, value: str) -> None:
        """Tokenise ``value`` and add its terms to the bag."""
        self.add_terms(tokenize_value(value))

    def add_values(self, values: Iterable[str]) -> None:
        """Add several attribute values at once."""
        for value in values:
            self.add_value(value)

    def add_terms(self, terms: Iterable[str]) -> None:
        """Add pre-tokenised terms to the bag."""
        for term in terms:
            self._counts[term] += 1
            self._total += 1
        self._distribution = None
        self._term_set = None

    def merge(self, other: "BagOfWords") -> "BagOfWords":
        """Return a new bag containing the terms of both operands."""
        merged = BagOfWords()
        merged._counts = self._counts + other._counts
        merged._total = self._total + other._total
        return merged

    # -- inspection -------------------------------------------------------

    @property
    def total(self) -> int:
        """Total number of term occurrences (with multiplicity)."""
        return self._total

    def count(self, term: str) -> int:
        """Occurrences of ``term`` in the bag."""
        return self._counts.get(term, 0)

    def terms(self) -> List[str]:
        """Distinct terms present in the bag."""
        return list(self._counts.keys())

    def term_set(self) -> frozenset:
        """Distinct terms as a frozenset (used by Jaccard)."""
        if self._term_set is None:
            self._term_set = frozenset(self._counts.keys())
        return self._term_set

    def counts(self) -> Dict[str, int]:
        """A copy of the term -> count mapping."""
        return dict(self._counts)

    def most_common(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` most frequent terms, most frequent first."""
        return self._counts.most_common(n)

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return self._total > 0

    def __contains__(self, term: str) -> bool:
        return term in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BagOfWords):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(f"{t}:{c}" for t, c in self._counts.most_common(5))
        return f"BagOfWords(total={self._total}, top=[{preview}])"

    # -- conversion -------------------------------------------------------

    def distribution(self) -> "TermDistribution":
        """The bag as a :class:`TermDistribution` (shared until the bag grows)."""
        if self._distribution is None:
            self._distribution = TermDistribution.from_counts(self._counts)
        return self._distribution


class TermDistribution:
    """An immutable probability distribution over terms.

    Probabilities always sum to 1 (within floating point error) unless the
    distribution is empty.
    """

    __slots__ = ("_probs",)

    def __init__(self, probabilities: Mapping[str, float]) -> None:
        self._probs: Dict[str, float] = dict(probabilities)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "TermDistribution":
        """Build a distribution from raw term counts."""
        total = sum(counts.values())
        if total <= 0:
            return cls({})
        return cls({term: count / total for term, count in counts.items()})

    @classmethod
    def from_values(cls, values: Iterable[str]) -> "TermDistribution":
        """Build a distribution directly from attribute values."""
        bag = BagOfWords()
        bag.add_values(values)
        return bag.distribution()

    # -- inspection -------------------------------------------------------

    def probability(self, term: str) -> float:
        """P(term), zero for unseen terms."""
        return self._probs.get(term, 0.0)

    def support(self) -> frozenset:
        """Terms with non-zero probability."""
        return frozenset(self._probs.keys())

    def items(self) -> Iterable[Tuple[str, float]]:
        """(term, probability) pairs of the distribution."""
        return self._probs.items()

    def as_dict(self) -> Dict[str, float]:
        """A plain dict copy of the term probabilities."""
        return dict(self._probs)

    def is_empty(self) -> bool:
        """Whether the distribution has no support at all."""
        return not self._probs

    def __len__(self) -> int:
        return len(self._probs)

    def __contains__(self, term: str) -> bool:
        return term in self._probs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        top = sorted(self._probs.items(), key=lambda kv: -kv[1])[:5]
        preview = ", ".join(f"{t}:{p:.3f}" for t, p in top)
        return f"TermDistribution(size={len(self._probs)}, top=[{preview}])"

    # -- algebra ----------------------------------------------------------

    def mixture(self, other: "TermDistribution", weight: float = 0.5) -> "TermDistribution":
        """Return the mixture ``weight * self + (1 - weight) * other``.

        The Jensen-Shannon divergence uses the equal-weight mixture
        ("average" distribution) of the two operand distributions.

        Raises
        ------
        ValueError
            If ``weight`` is outside [0, 1].
        """
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"mixture weight must be within [0, 1], got {weight}")
        mixed: Dict[str, float] = {}
        for term, prob in self._probs.items():
            mixed[term] = weight * prob
        for term, prob in other._probs.items():
            mixed[term] = mixed.get(term, 0.0) + (1.0 - weight) * prob
        return TermDistribution(mixed)
