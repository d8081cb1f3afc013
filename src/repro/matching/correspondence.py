"""Attribute correspondences and the lookup structure used at run time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.matching.candidates import CandidateTuple
from repro.text.memo import cached_normalize_attribute_name

__all__ = ["ScoredCandidate", "AttributeCorrespondence", "CorrespondenceSet"]


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate tuple with the score assigned by a matcher.

    All matchers in the reproduction — the paper's classifier as well as
    every baseline — emit scored candidates, so the precision-vs-coverage
    evaluation (paper Section 5.2) treats them uniformly.
    """

    candidate: CandidateTuple
    score: float

    def is_name_identity(self) -> bool:
        """Whether the underlying candidate is a name-identity tuple."""
        return self.candidate.is_name_identity()


@dataclass(frozen=True)
class AttributeCorrespondence:
    """An accepted correspondence ⟨A_p, A_o, M, C⟩ with its score."""

    catalog_attribute: str
    offer_attribute: str
    merchant_id: str
    category_id: str
    score: float = 1.0

    @classmethod
    def from_candidate(cls, candidate: CandidateTuple, score: float) -> "AttributeCorrespondence":
        """Build a correspondence from a scored candidate tuple."""
        return cls(
            catalog_attribute=candidate.catalog_attribute,
            offer_attribute=candidate.offer_attribute,
            merchant_id=candidate.merchant_id,
            category_id=candidate.category_id,
            score=score,
        )


class CorrespondenceSet:
    """Indexed set of correspondences used by schema reconciliation.

    For each (merchant, category, merchant attribute) at most one catalog
    attribute is stored — when several correspondences compete, the one
    with the highest score wins (a merchant uses one name for one meaning,
    paper Section 3.2).

    Examples
    --------
    >>> corr = AttributeCorrespondence("Capacity", "Hard Disk Size", "m1", "hdd", 0.9)
    >>> cs = CorrespondenceSet([corr])
    >>> cs.translate("m1", "hdd", "Hard Disk Size")
    'Capacity'
    """

    def __init__(self, correspondences: Iterable[AttributeCorrespondence] = ()) -> None:
        self._by_offer_attribute: Dict[Tuple[str, str, str], AttributeCorrespondence] = {}
        for correspondence in correspondences:
            self.add(correspondence)

    # -- construction -----------------------------------------------------------

    def add(self, correspondence: AttributeCorrespondence) -> None:
        """Add a correspondence, keeping only the best one per merchant attribute."""
        key = self._key(
            correspondence.merchant_id,
            correspondence.category_id,
            correspondence.offer_attribute,
        )
        existing = self._by_offer_attribute.get(key)
        if existing is None or correspondence.score > existing.score:
            self._by_offer_attribute[key] = correspondence

    @staticmethod
    def _key(merchant_id: str, category_id: str, offer_attribute: str) -> Tuple[str, str, str]:
        # Translation runs once per extracted pair on the hot ingest path;
        # attribute names repeat heavily, so normalisation is memoised.
        return (merchant_id, category_id, cached_normalize_attribute_name(offer_attribute))

    # -- lookups ------------------------------------------------------------------

    def translate(
        self, merchant_id: str, category_id: str, offer_attribute: str
    ) -> Optional[str]:
        """The catalog attribute an offer attribute maps to, or ``None``.

        ``None`` means the attribute-value pair should be discarded by
        schema reconciliation (paper Section 4).
        """
        correspondence = self._by_offer_attribute.get(
            self._key(merchant_id, category_id, offer_attribute)
        )
        return correspondence.catalog_attribute if correspondence else None

    def mapping_for(self, merchant_id: str, category_id: str) -> Dict[str, str]:
        """``merchant attribute -> catalog attribute`` for one merchant/category."""
        mapping: Dict[str, str] = {}
        for (m_id, c_id, _), correspondence in self._by_offer_attribute.items():
            if m_id == merchant_id and c_id == category_id:
                mapping[correspondence.offer_attribute] = correspondence.catalog_attribute
        return mapping

    def correspondences(self) -> List[AttributeCorrespondence]:
        """All accepted correspondences (after best-per-attribute resolution)."""
        return list(self._by_offer_attribute.values())

    def __len__(self) -> int:
        return len(self._by_offer_attribute)

    def __iter__(self) -> Iterator[AttributeCorrespondence]:
        return iter(self._by_offer_attribute.values())
