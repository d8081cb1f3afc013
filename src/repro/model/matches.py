"""Historical offer-to-product matches.

Paper Section 3.1: "The business model of Product Search Engines implies
the existence of a wealth of historical information about merchant offers
associated ('matched') to catalog products."  These associations — coming
from universal identifiers, manual curation or automated matchers — are the
key ingredient of the paper's schema-reconciliation approach: value
distributions are computed only over matched offers and products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["OfferProductMatch", "MatchStore"]


@dataclass(frozen=True)
class OfferProductMatch:
    """An association between one offer and one catalog product.

    Attributes
    ----------
    offer_id, product_id:
        The matched pair.
    method:
        How the association was obtained (``"upc"``, ``"manual"``,
        ``"title-matcher"``, ``"synthetic"``); informational only.
    confidence:
        Optional confidence score in [0, 1] reported by the matcher.
    """

    offer_id: str
    product_id: str
    method: str = "unknown"
    confidence: float = 1.0


class MatchStore:
    """An indexed collection of historical offer-to-product matches.

    Provides the lookups the Offline Learning phase needs: the product an
    offer is matched to, and the subset of offers that do have a historical
    match (the rest flow into the run-time synthesis pipeline as "new
    product" candidates).

    Examples
    --------
    >>> store = MatchStore()
    >>> store.add(OfferProductMatch("offer-1", "prod-9"))
    >>> store.product_for_offer("offer-1")
    'prod-9'
    """

    def __init__(self, matches: Iterable[OfferProductMatch] = ()) -> None:
        self._matches: List[OfferProductMatch] = []
        self._by_offer: Dict[str, OfferProductMatch] = {}
        for match in matches:
            self.add(match)

    # -- construction -----------------------------------------------------

    def add(self, match: OfferProductMatch) -> None:
        """Add a match; an offer may be matched to at most one product.

        Raises
        ------
        ValueError
            If the offer is already matched to a *different* product.
        """
        existing = self._by_offer.get(match.offer_id)
        if existing is not None:
            if existing.product_id != match.product_id:
                raise ValueError(
                    f"offer {match.offer_id!r} already matched to "
                    f"{existing.product_id!r}, cannot also match {match.product_id!r}"
                )
            return
        self._matches.append(match)
        self._by_offer[match.offer_id] = match

    # -- lookup -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._matches)

    def __iter__(self) -> Iterator[OfferProductMatch]:
        return iter(self._matches)

    def __contains__(self, offer_id: str) -> bool:
        return offer_id in self._by_offer

    def matches(self) -> List[OfferProductMatch]:
        """All matches, in insertion order."""
        return list(self._matches)

    def is_matched(self, offer_id: str) -> bool:
        """Whether the offer has a historical match."""
        return offer_id in self._by_offer

    def product_for_offer(self, offer_id: str) -> Optional[str]:
        """The product an offer is matched to, or ``None``."""
        match = self._by_offer.get(offer_id)
        return match.product_id if match else None

    def unmatched(self, offer_ids: Iterable[str]) -> List[str]:
        """The subset of ``offer_ids`` without a historical match.

        These are the offers the run-time pipeline synthesizes new products
        from.
        """
        return [offer_id for offer_id in offer_ids if offer_id not in self._by_offer]
