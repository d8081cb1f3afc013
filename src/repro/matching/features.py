"""The six distributional-similarity features of paper Table 1.

=============  ==================  =======================
Name           Similarity measure  Grouping
=============  ==================  =======================
JS-MC          Jensen-Shannon      Merchant and Category
JS-C           Jensen-Shannon      Category
JS-M           Jensen-Shannon      Merchant
Jaccard-MC     Jaccard             Merchant and Category
Jaccard-C      Jaccard             Category
Jaccard-M      Jaccard             Merchant
=============  ==================  =======================

JS features are reported as *similarities* (``1 - divergence``) so that
all six features point in the same direction (higher = more likely a
correspondence), which keeps the learned classifier weights easy to
interpret.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.matching.candidates import CandidateTuple
from repro.matching.grouping import C, M, MC, MatchedValueIndex
from repro.text.divergence import jensen_shannon_similarity
from repro.text.normalize import normalize_attribute_name
from repro.text.setsim import jaccard_coefficient
from repro.text.string_metrics import (
    levenshtein_similarity,
    ngram_similarity,
    token_set_similarity,
)

__all__ = [
    "FEATURE_NAMES",
    "EXTENDED_FEATURE_NAMES",
    "NAME_FEATURE",
    "DistributionalFeatureExtractor",
    "attribute_name_similarity",
]

#: Feature order used everywhere (training set columns, classifier weights).
FEATURE_NAMES: Tuple[str, ...] = (
    "JS-MC",
    "JS-C",
    "JS-M",
    "Jaccard-MC",
    "Jaccard-C",
    "Jaccard-M",
)

#: The attribute-name similarity feature implementing the paper's stated
#: future work ("We would also like to integrate other matchers with our
#: framework, notably, name matchers").  It is not part of the default
#: feature set so the headline experiments stay faithful to the paper.
NAME_FEATURE = "Name"

#: Table 1 features plus the name-matcher extension.
EXTENDED_FEATURE_NAMES: Tuple[str, ...] = FEATURE_NAMES + (NAME_FEATURE,)

#: (similarity measure, grouping) of each distributional feature.
_MEASURE_AND_GROUPING: Dict[str, Tuple[str, str]] = {
    "JS-MC": ("JS", MC),
    "JS-C": ("JS", C),
    "JS-M": ("JS", M),
    "Jaccard-MC": ("Jaccard", MC),
    "Jaccard-C": ("Jaccard", C),
    "Jaccard-M": ("Jaccard", M),
}


def attribute_name_similarity(catalog_attribute: str, offer_attribute: str) -> float:
    """Linguistic similarity between two attribute names, in [0, 1].

    The average of edit-distance similarity, character-trigram similarity
    and token-set overlap — the classic name-matcher combination.  Used by
    the extended (future-work) feature set and by the COMA++-style
    baseline.
    """
    name_a = normalize_attribute_name(catalog_attribute)
    name_b = normalize_attribute_name(offer_attribute)
    return (
        levenshtein_similarity(name_a, name_b)
        + ngram_similarity(name_a, name_b, n=3)
        + token_set_similarity(catalog_attribute, offer_attribute)
    ) / 3.0


class DistributionalFeatureExtractor:
    """Compute the Table 1 feature vector for candidate tuples.

    Parameters
    ----------
    index:
        The match-aware value bags (see
        :class:`~repro.matching.grouping.MatchedValueIndex`).
    feature_names:
        Subset/order of features to compute; defaults to all six.  The
        single-feature baselines of Figure 6 pass ``("JS-MC",)`` or
        ``("Jaccard-MC",)``.

    Each similarity of a (product bag, offer bag) pair is computed once per
    extractor: the C and M features of one attribute pair repeat across
    merchants and categories respectively.
    """

    def __init__(
        self,
        index: MatchedValueIndex,
        feature_names: Sequence[str] = FEATURE_NAMES,
    ) -> None:
        unknown = [
            name
            for name in feature_names
            if name not in _MEASURE_AND_GROUPING and name != NAME_FEATURE
        ]
        if unknown:
            raise ValueError(f"unknown feature names: {unknown!r}")
        if not feature_names:
            raise ValueError("at least one feature name is required")
        self._index = index
        self._feature_names = tuple(feature_names)
        self._similarities: Dict[Tuple[str, ...], float] = {}

    @property
    def feature_names(self) -> Tuple[str, ...]:
        """The features computed by :meth:`extract`, in order."""
        return self._feature_names

    # -- feature computation ---------------------------------------------------

    def extract(self, candidate: CandidateTuple) -> List[float]:
        """The feature vector of one candidate tuple."""
        return [self._feature_value(name, candidate) for name in self._feature_names]

    def extract_many(self, candidates: Sequence[CandidateTuple]) -> List[List[float]]:
        """Feature vectors for a batch of candidates (same order)."""
        return [self.extract(candidate) for candidate in candidates]

    def _feature_value(self, feature_name: str, candidate: CandidateTuple) -> float:
        if feature_name == NAME_FEATURE:
            return attribute_name_similarity(
                candidate.catalog_attribute, candidate.offer_attribute
            )
        measure, grouping = _MEASURE_AND_GROUPING[feature_name]
        index = self._index
        merchant_id, category_id = candidate.merchant_id, candidate.category_id
        product_key = index.bag_key(grouping, merchant_id, category_id, candidate.catalog_attribute)
        offer_key = index.bag_key(grouping, merchant_id, category_id, candidate.offer_attribute)
        # The two bag keys, flattened (they share grouping and group key): a
        # tuple of strings is all the memo keeps per pair.
        memo_key = (measure, grouping, *product_key[1], product_key[2], offer_key[2])
        value = self._similarities.get(memo_key)
        if value is None:
            product_bag, offer_bag = index.bags_at(product_key, offer_key)
            if not product_bag or not offer_bag:
                value = 0.0
            elif measure == "JS":
                value = jensen_shannon_similarity(product_bag, offer_bag)
            else:
                value = jaccard_coefficient(product_bag, offer_bag)
            self._similarities[memo_key] = value
        return value
