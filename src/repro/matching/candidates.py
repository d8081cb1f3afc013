"""Candidate attribute-correspondence tuples ⟨A_p, A_o, M, C⟩.

Paper Definition 1: an attribute correspondence relates a catalog
attribute A_p of category C to an attribute A_o used by merchant M in its
offers for category C.  Candidates are the cross product of the catalog
schema attributes of C with the merchant attribute names observed in M's
(historically matched) offers for C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.model.catalog import Catalog
from repro.model.matches import MatchStore
from repro.model.offers import Offer
from repro.text.memo import cached_normalize_attribute_name

__all__ = ["CandidateTuple", "generate_candidates", "observed_merchant_attributes"]


@dataclass(frozen=True)
class CandidateTuple:
    """A candidate correspondence ⟨catalog attribute, offer attribute, merchant, category⟩."""

    catalog_attribute: str
    offer_attribute: str
    merchant_id: str
    category_id: str

    def is_name_identity(self) -> bool:
        """Whether the catalog and merchant attribute names are identical.

        Name-identity candidates are the seed of the automatically
        constructed training set (paper Section 3.2).
        """
        normalize = cached_normalize_attribute_name
        return normalize(self.catalog_attribute) == normalize(self.offer_attribute)

    def key(self) -> Tuple[str, str, str, str]:
        """A normalised identity key for deduplication."""
        return (
            cached_normalize_attribute_name(self.catalog_attribute),
            cached_normalize_attribute_name(self.offer_attribute),
            self.merchant_id,
            self.category_id,
        )


def observed_merchant_attributes(
    offers: Iterable[Offer],
    matches: MatchStore,
    catalog: Catalog,
    require_match: bool = True,
) -> Dict[Tuple[str, str], Dict[str, str]]:
    """Merchant attribute names observed per (merchant, category).

    Returns ``(merchant_id, category_id) -> {normalised name -> original name}``.
    The category of an offer is taken from its matched product when
    ``require_match`` is true (the offline phase), otherwise from the
    offer's own ``category_id``.
    """
    observed: Dict[Tuple[str, str], Dict[str, str]] = {}
    for offer in offers:
        category_id = None
        if require_match:
            product_id = matches.product_for_offer(offer.offer_id)
            if product_id is None or not catalog.has_product(product_id):
                continue
            category_id = catalog.product(product_id).category_id
        else:
            category_id = offer.category_id
        if category_id is None:
            continue
        key = (offer.merchant_id, category_id)
        names = observed.setdefault(key, {})
        for pair in offer.specification:
            names.setdefault(pair.normalized_name(), pair.name)
    return observed


def generate_candidates(
    catalog: Catalog,
    offers: Iterable[Offer],
    matches: MatchStore,
    require_match: bool = True,
    category_ids: Sequence[str] = (),
) -> List[CandidateTuple]:
    """Enumerate candidate tuples from historical offers.

    Parameters
    ----------
    catalog:
        Supplies the per-category schemas (the A_p side).
    offers:
        Historical offers with extracted specifications (the A_o side).
    matches:
        Historical offer-to-product matches; offers without a match are
        skipped when ``require_match`` is true.
    require_match:
        When false, offers are grouped by their own ``category_id`` instead
        of their matched product's category (used by the no-history
        baseline so that it sees the same candidate space).
    category_ids:
        Optional restriction to a subset of categories (e.g. the Computing
        subtree used in Figures 7 and 8).

    Returns
    -------
    list of CandidateTuple
        Deduplicated, in deterministic order.
    """
    allowed_categories: Set[str] = set(category_ids)
    observed = observed_merchant_attributes(
        offers, matches, catalog, require_match=require_match
    )
    candidates: List[CandidateTuple] = []
    seen: Set[Tuple[str, str, str, str]] = set()
    for (merchant_id, category_id), names in sorted(observed.items()):
        if allowed_categories and category_id not in allowed_categories:
            continue
        if not catalog.has_schema(category_id):
            continue
        schema = catalog.schema_for(category_id)
        for catalog_attribute in schema.attribute_names():
            for original_name in names.values():
                candidate = CandidateTuple(
                    catalog_attribute=catalog_attribute,
                    offer_attribute=original_name,
                    merchant_id=merchant_id,
                    category_id=category_id,
                )
                key = candidate.key()
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(candidate)
    return candidates
