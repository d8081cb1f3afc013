"""Schema Reconciliation (paper Section 4).

"Let o be an offer for category C and merchant M, and ⟨A, v⟩ be one of the
attribute-value pairs extracted from the merchant's Web page.  If
⟨B, A, M, C⟩ is an attribute correspondence produced by the Attribute
Correspondence Creation component during the Offline Learning phase, then
the Schema Reconciliation component outputs a pair ⟨B, v⟩.  Otherwise, the
pair ⟨A, v⟩ is discarded."

Discarding unmapped pairs is what filters out both merchant junk
attributes and the noise introduced by the simple web-page extractor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.matching.correspondence import CorrespondenceSet
from repro.model.attributes import Specification
from repro.model.offers import Offer

__all__ = ["ReconciliationStats", "SchemaReconciler"]


@dataclass
class ReconciliationStats:
    """Bookkeeping of one reconciliation run."""

    offers_processed: int = 0
    pairs_seen: int = 0
    pairs_mapped: int = 0
    pairs_discarded: int = 0


class SchemaReconciler:
    """Apply learned attribute correspondences to offer specifications."""

    def __init__(self, correspondences: CorrespondenceSet) -> None:
        self._correspondences = correspondences

    def reconcile_specification(
        self, specification: Specification, merchant_id: str, category_id: str
    ) -> Tuple[Specification, int, int]:
        """Translate one specification.

        Returns the reconciled specification plus the number of mapped and
        discarded pairs.
        """
        reconciled = Specification()
        mapped = 0
        discarded = 0
        for pair in specification:
            catalog_attribute = self._correspondences.translate(
                merchant_id, category_id, pair.name
            )
            if catalog_attribute is None:
                discarded += 1
                continue
            reconciled.add(catalog_attribute, pair.value)
            mapped += 1
        return reconciled, mapped, discarded

    def reconcile_offer(self, offer: Offer) -> Offer:
        """Return a copy of ``offer`` with its specification reconciled.

        Offers without an assigned category cannot be reconciled and come
        back with an empty specification (they carry no usable evidence).
        """
        if offer.category_id is None:
            return offer.with_specification(Specification())
        reconciled, _, _ = self.reconcile_specification(
            offer.specification, offer.merchant_id, offer.category_id
        )
        return offer.with_specification(reconciled)

    def reconcile_offers(
        self, offers: Iterable[Offer]
    ) -> Tuple[List[Offer], ReconciliationStats]:
        """Reconcile a batch of offers, returning stats alongside."""
        stats = ReconciliationStats()
        reconciled_offers: List[Offer] = []
        for offer in offers:
            stats.offers_processed += 1
            stats.pairs_seen += len(offer.specification)
            if offer.category_id is None:
                reconciled_offers.append(offer.with_specification(Specification()))
                stats.pairs_discarded += len(offer.specification)
                continue
            reconciled, mapped, discarded = self.reconcile_specification(
                offer.specification, offer.merchant_id, offer.category_id
            )
            stats.pairs_mapped += mapped
            stats.pairs_discarded += discarded
            reconciled_offers.append(offer.with_specification(reconciled))
        return reconciled_offers, stats
