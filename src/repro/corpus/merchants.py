"""Merchant dialects: how each merchant renames attributes and reformats values.

The heterogeneity problem the paper addresses comes from every merchant
using its own "schema" per category (Section 2): different names for the
same attribute, different value formats, extra attributes with no catalog
counterpart, and an assortment biased towards certain brands.  A
:class:`MerchantDialect` captures all of that for one merchant, and
:class:`MerchantDialectFactory` samples dialects deterministically from
the corpus RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.corpus.config import CorpusConfig
from repro.corpus.vocabulary import ATTRIBUTE_SYNONYMS, BRANDS, JUNK_ATTRIBUTES
from repro.model.merchants import Merchant

__all__ = ["MerchantDialect", "MerchantDialectFactory"]


@dataclass
class MerchantDialect:
    """The idiosyncrasies of a single merchant.

    Attributes
    ----------
    merchant:
        The merchant this dialect belongs to.
    attribute_aliases:
        ``(category_id, catalog attribute name) -> merchant attribute name``.
        The merchant uses the same alias consistently within a category
        (paper Section 3.2 assumes "a merchant M will use exactly one name
        to refer to the catalog attribute A").
    brand_assortment:
        ``domain -> brands this merchant carries``; offers are only
        generated for products whose brand the merchant carries.
    junk_attributes:
        Merchant-specific attributes with no catalog counterpart, with the
        value pool to sample from.
    value_style:
        Formatting quirks: ``unit_style`` in {"suffix", "spaced", "none"},
        ``uppercase_values`` flag.
    """

    merchant: Merchant
    attribute_aliases: Dict[Tuple[str, str], str] = field(default_factory=dict)
    brand_assortment: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    junk_attributes: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)
    unit_style: str = "suffix"
    uppercase_values: bool = False

    def alias_for(self, category_id: str, catalog_attribute: str) -> str:
        """The merchant's name for a catalog attribute in a category.

        Falls back to the catalog name itself when no alias was sampled
        (e.g. for categories added after the dialect was created).
        """
        return self.attribute_aliases.get((category_id, catalog_attribute), catalog_attribute)

    def carries_brand(self, domain: str, brand: str) -> bool:
        """Whether the merchant's assortment includes ``brand`` for ``domain``."""
        assortment = self.brand_assortment.get(domain)
        if assortment is None:
            return True
        return brand in assortment


class MerchantDialectFactory:
    """Deterministically samples merchant dialects from the corpus config."""

    def __init__(self, config: CorpusConfig, rng: random.Random) -> None:
        self._config = config
        self._rng = rng

    def create(
        self,
        merchant: Merchant,
        category_ids_by_domain: Dict[str, List[Tuple[str, Sequence[str]]]],
    ) -> MerchantDialect:
        """Create the dialect for one merchant.

        Parameters
        ----------
        merchant:
            The merchant to create a dialect for.
        category_ids_by_domain:
            ``domain -> [(category_id, catalog attribute names), ...]`` for
            every leaf category the corpus will generate.
        """
        rng = self._rng
        dialect = MerchantDialect(
            merchant=merchant,
            unit_style=rng.choice(("suffix", "spaced", "none")),
            uppercase_values=rng.random() < 0.15,
        )

        # Assortment bias: the merchant carries a random subset of brands in
        # each domain it sells.
        for domain, brand_pool in BRANDS.items():
            keep = max(2, int(round(len(brand_pool) * self._config.merchant_assortment_bias)))
            dialect.brand_assortment[domain] = tuple(rng.sample(brand_pool, keep))

        # Attribute aliases: per (category, catalog attribute) choose either
        # the identical name (probability name_identity_probability), a
        # synonym from the bank, or a lightly decorated variant.
        for domain, categories in category_ids_by_domain.items():
            for category_id, attribute_names in categories:
                for attribute_name in attribute_names:
                    alias = self._sample_alias(attribute_name)
                    dialect.attribute_aliases[(category_id, attribute_name)] = alias

        # Junk attributes the merchant habitually lists.
        num_junk = rng.randint(2, 4)
        dialect.junk_attributes = list(rng.sample(list(JUNK_ATTRIBUTES), num_junk))
        return dialect

    def _sample_alias(self, catalog_attribute: str) -> str:
        rng = self._rng
        if rng.random() < self._config.name_identity_probability:
            return catalog_attribute
        synonyms = ATTRIBUTE_SYNONYMS.get(catalog_attribute)
        if synonyms and rng.random() < 0.85:
            return rng.choice(synonyms)
        # A decorated variant of the catalog name — still a distinct string,
        # exercising the name-based baselines' partial-overlap behaviour.
        decorations = (
            f"{catalog_attribute} (approx.)",
            f"Product {catalog_attribute}",
            f"{catalog_attribute} Info",
            f"Item {catalog_attribute}",
        )
        return rng.choice(decorations)
