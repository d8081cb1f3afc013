"""Match-aware value bags at three grouping granularities.

Paper Section 3.1: the distinctive aspect of the approach is that value
distributions are computed **only from offers and products that match to
each other**, and at three levels of aggregation:

* *merchant and category* (MC): offers of merchant M in category C, and
  the catalog products matched to those offers;
* *category* (C): all offers in category C (any merchant), and the
  products matched to them;
* *merchant* (M): all offers of merchant M (any category), and the
  products matched to them.

:class:`MatchedValueIndex` materialises the value bags for all three
levels in a single pass over the historical offers, so that feature
extraction is a dictionary lookup per candidate.

Setting ``use_matches=False`` builds the "no matching" variant used as a
baseline in Figure 7: offer bags still come from the offers of the group,
but product bags come from **all** catalog products of the category
(regardless of whether they match any offer).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.model.attributes import Specification
from repro.model.catalog import Catalog
from repro.model.matches import MatchStore
from repro.model.offers import Offer
from repro.text.distributions import BagOfWords
from repro.text.memo import cached_normalize_attribute_name
from repro.text.tokenize import tokenize_value

__all__ = ["MatchedValueIndex", "GroupKey", "BagKey"]

#: Keys of the three grouping levels.
GroupKey = Tuple[str, ...]
#: Key of one value bag: (grouping, group key, normalised attribute name).
BagKey = Tuple[str, GroupKey, str]

MC = "merchant-category"
C = "category"
M = "merchant"

GROUPINGS: Tuple[str, ...] = (MC, C, M)


class MatchedValueIndex:
    """Value bags for catalog and offer attributes at MC / C / M granularity.

    Parameters
    ----------
    catalog:
        The product catalog (supplies product specifications and schemas).
    offers:
        Historical offers *with extracted specifications*.
    matches:
        Historical offer-to-product matches.
    use_matches:
        When true (the paper's approach) product bags contain only the
        products matched to the group's offers.  When false (the Figure 7
        baseline) product bags contain every catalog product of the
        category/merchant group.
    """

    def __init__(
        self,
        catalog: Catalog,
        offers: Iterable[Offer],
        matches: MatchStore,
        use_matches: bool = True,
    ) -> None:
        self._catalog = catalog
        self._use_matches = use_matches
        # (grouping, group key, normalised attribute name) -> bag
        self._offer_bags: Dict[Tuple[str, GroupKey, str], BagOfWords] = {}
        self._product_bags: Dict[Tuple[str, GroupKey, str], BagOfWords] = {}
        # (grouping, group key) -> product ids contributing to the group
        self._group_products: Dict[Tuple[str, GroupKey], Set[str]] = {}
        self._build(offers, matches)

    # -- construction -------------------------------------------------------

    def _build(self, offers: Iterable[Offer], matches: MatchStore) -> None:
        for offer in offers:
            product_id = matches.product_for_offer(offer.offer_id)
            if self._use_matches:
                if product_id is None or not self._catalog.has_product(product_id):
                    continue
                category_id = self._catalog.product(product_id).category_id
            else:
                # Without instance matches we still need a category for the
                # offer; fall back to the matched product's category when the
                # offer itself does not carry one so both configurations see
                # the same offers.
                category_id = offer.category_id
                if (
                    category_id is None
                    and product_id is not None
                    and self._catalog.has_product(product_id)
                ):
                    category_id = self._catalog.product(product_id).category_id
                if category_id is None:
                    continue
            groups = self._groups_for(offer.merchant_id, category_id)
            self._index_offer_specification(groups, offer.specification)
            if self._use_matches and product_id is not None:
                for group in groups:
                    self._group_products.setdefault(group, set()).add(product_id)
            elif not self._use_matches:
                # The no-matching baseline pools *all* catalog products of
                # the category into the group.
                category_product_ids = [
                    product.product_id
                    for product in self._catalog.products_in_category(category_id)
                ]
                for group in groups:
                    self._group_products.setdefault(group, set()).update(category_product_ids)

        # Second pass: accumulate product-side bags per group.  Sorted, not
        # set order: the order terms enter a bag is the order every JS
        # feature sums them in, and set order changes with the hash seed.
        # A product feeds several groups; its specification is tokenised once.
        product_terms: Dict[str, List[Tuple[str, List[str]]]] = {}
        for (grouping, key), product_ids in self._group_products.items():
            for product_id in sorted(product_ids):
                terms = product_terms.get(product_id)
                if terms is None:
                    specification = self._catalog.product(product_id).specification
                    terms = product_terms[product_id] = _tokenised(specification)
                for name, tokens in terms:
                    _bag(self._product_bags, (grouping, key, name)).add_terms(tokens)

    @staticmethod
    def _groups_for(merchant_id: str, category_id: str) -> List[Tuple[str, GroupKey]]:
        return [
            (MC, (merchant_id, category_id)),
            (C, (category_id,)),
            (M, (merchant_id,)),
        ]

    def _index_offer_specification(
        self, groups: List[Tuple[str, GroupKey]], specification: Specification
    ) -> None:
        for name, tokens in _tokenised(specification):
            for grouping, key in groups:
                _bag(self._offer_bags, (grouping, key, name)).add_terms(tokens)

    # -- lookups --------------------------------------------------------------

    def bag_key(self, grouping: str, merchant_id: str, category_id: str, attribute: str) -> BagKey:
        """The key an attribute's bags are stored under at the given grouping."""
        key = self._key_for(grouping, merchant_id, category_id)
        return (grouping, key, cached_normalize_attribute_name(attribute))

    def offer_bag(
        self, grouping: str, merchant_id: str, category_id: str, attribute: str
    ) -> Optional[BagOfWords]:
        """The offer-side value bag for an attribute at the given grouping."""
        return self._offer_bags.get(self.bag_key(grouping, merchant_id, category_id, attribute))

    def product_bag(
        self, grouping: str, merchant_id: str, category_id: str, attribute: str
    ) -> Optional[BagOfWords]:
        """The product-side value bag for an attribute at the given grouping."""
        return self._product_bags.get(self.bag_key(grouping, merchant_id, category_id, attribute))

    def bags_at(
        self, product_key: BagKey, offer_key: BagKey
    ) -> Tuple[Optional[BagOfWords], Optional[BagOfWords]]:
        """The product bag and the offer bag stored under two :meth:`bag_key` keys."""
        return self._product_bags.get(product_key), self._offer_bags.get(offer_key)

    @staticmethod
    def _key_for(grouping: str, merchant_id: str, category_id: str) -> GroupKey:
        if grouping == MC:
            return (merchant_id, category_id)
        if grouping == C:
            return (category_id,)
        if grouping == M:
            return (merchant_id,)
        raise ValueError(f"unknown grouping: {grouping!r}")


def _bag(bags: Dict[BagKey, BagOfWords], key: BagKey) -> BagOfWords:
    """The bag under ``key``, created empty on first use."""
    bag = bags.get(key)
    if bag is None:
        bag = bags[key] = BagOfWords()
    return bag


def _tokenised(specification: Specification) -> List[Tuple[str, List[str]]]:
    """(normalised name, value tokens) of each pair, in specification order."""
    return [(pair.normalized_name(), tokenize_value(pair.value)) for pair in specification]
