"""The synthetic shopping-corpus generator.

`CorpusGenerator.generate()` produces a :class:`SyntheticCorpus`: catalog,
merchants, offer feed, landing pages, historical matches and full ground
truth.  Generation is deterministic for a fixed :class:`CorpusConfig`.

Generation outline
------------------
1. Build the taxonomy and per-category schemas from the category
   specifications in :mod:`repro.corpus.domains`.
2. Create merchants and sample a dialect (aliases, assortment, junk
   attributes, value formatting) for each.
3. For every leaf category, generate *true products* with complete
   specifications.  A configurable fraction is withheld from the catalog —
   these "novel" products are what the run-time synthesis pipeline must
   reconstruct.
4. For every true product, generate offers from merchants whose assortment
   carries the product's brand: merchant-voiced attribute names, value
   format noise, occasional wrong values, junk attributes, a title, a feed
   row and a rendered landing page.
5. Record historical offer-to-product matches for cataloged products.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.config import CorpusConfig, CorpusPreset
from repro.corpus.domains import (
    CATEGORY_SPECS,
    TOP_LEVEL_CATEGORIES,
    AttributeSpec,
    CategorySpec,
)
from repro.corpus.ground_truth import GroundTruth
from repro.corpus.landing_pages import LandingPageRenderer
from repro.corpus.merchants import MerchantDialect, MerchantDialectFactory
from repro.corpus.vocabulary import BRANDS, MERCHANT_NAME_WORDS, MODEL_WORDS
from repro.corpus.webstore import WebStore
from repro.model.attributes import Specification
from repro.model.catalog import Catalog
from repro.model.matches import MatchStore, OfferProductMatch
from repro.model.merchants import Merchant
from repro.model.offers import Offer
from repro.model.products import Product
from repro.model.schema import CategorySchema
from repro.model.taxonomy import Taxonomy

__all__ = ["SyntheticCorpus", "CorpusGenerator"]


@dataclass
class SyntheticCorpus:
    """Everything the generator produces for one corpus."""

    config: CorpusConfig
    catalog: Catalog
    offers: List[Offer]
    matches: MatchStore
    web: WebStore
    ground_truth: GroundTruth
    dialects: Dict[str, MerchantDialect] = field(default_factory=dict)

    def matched_offers(self) -> List[Offer]:
        """Offers with a historical offer-to-product match."""
        return [offer for offer in self.offers if self.matches.is_matched(offer.offer_id)]

    def unmatched_offers(self) -> List[Offer]:
        """Offers without a historical match (input of the run-time pipeline)."""
        return [offer for offer in self.offers if not self.matches.is_matched(offer.offer_id)]

    def summary(self) -> Dict[str, int]:
        """Headline corpus statistics."""
        return {
            "categories": len(self.catalog.taxonomy.leaves()),
            "merchants": len(self.catalog.merchants()),
            "catalog_products": self.catalog.num_products(),
            "novel_products": len(self.ground_truth.novel_product_ids),
            "offers": len(self.offers),
            "historical_matches": len(self.matches),
            "landing_pages": len(self.web),
        }


class CorpusGenerator:
    """Deterministic generator of synthetic shopping corpora."""

    def __init__(self, config: Optional[CorpusConfig] = None) -> None:
        self.config = config or CorpusConfig()

    @classmethod
    def from_preset(cls, preset: CorpusPreset, seed: int = 2011) -> "CorpusGenerator":
        """Build a generator from one of the named presets."""
        return cls(preset.config(seed=seed))

    # -- top-level ----------------------------------------------------------

    def generate(self) -> SyntheticCorpus:
        """Generate a complete corpus."""
        rng = random.Random(self.config.seed)
        specs = self._selected_specs()
        taxonomy, schemas = self._build_taxonomy(specs)
        catalog = Catalog(taxonomy)
        for schema in schemas:
            catalog.register_schema(schema)

        merchants, dialects = self._build_merchants(rng, specs)
        for merchant in merchants:
            catalog.register_merchant(merchant)
        # Merchant activity follows a heavy-tailed (Zipf-like) profile: a few
        # large merchants provide most offers while the long tail of small
        # merchants contributes only a handful each.  This sparsity is a key
        # structural property of the paper's data (1,143 merchants) — it is
        # what makes per-merchant evidence weak and motivates the
        # category-level and merchant-level feature groupings.
        activity = {
            dialect.merchant.merchant_id: 1.0 / (rank ** 0.85)
            for rank, dialect in enumerate(rng.sample(dialects, len(dialects)), start=1)
        }

        ground_truth = GroundTruth()
        self._record_dialect_aliases(dialects, specs, ground_truth)

        web = WebStore()
        renderer = LandingPageRenderer(
            rng=random.Random(rng.randrange(1 << 30)),
            missing_page_rate=self.config.missing_page_rate,
        )

        offers: List[Offer] = []
        matches = MatchStore()
        product_counter = 0
        offer_counter = 0

        for spec in specs:
            num_products = max(1, int(round(self.config.products_per_category * spec.popularity)))

            # Legacy products: catalog-only entries with no offers and value
            # distributions skewed towards the older end of each value pool.
            # They reproduce the paper's observation that catalog-wide value
            # distributions differ from any single merchant's offers.
            num_legacy = int(round(num_products * self.config.legacy_product_fraction))
            for _ in range(num_legacy):
                product_counter += 1
                legacy = self._generate_product(rng, spec, product_counter, legacy=True)
                ground_truth.record_product(legacy, novel=False)
                catalog.add_product(legacy)

            for _ in range(num_products):
                product_counter += 1
                product = self._generate_product(rng, spec, product_counter)
                is_novel = rng.random() < self.config.novel_product_fraction
                ground_truth.record_product(product, novel=is_novel)
                if not is_novel:
                    catalog.add_product(product)

                product_offers, offer_counter = self._generate_offers(
                    rng=rng,
                    renderer=renderer,
                    web=web,
                    ground_truth=ground_truth,
                    product=product,
                    spec=spec,
                    dialects=dialects,
                    activity=activity,
                    offer_counter=offer_counter,
                )
                offers.extend(product_offers)

                if not is_novel:
                    for offer in product_offers:
                        if rng.random() < self.config.match_fraction:
                            matches.add(
                                OfferProductMatch(
                                    offer_id=offer.offer_id,
                                    product_id=product.product_id,
                                    method="synthetic",
                                )
                            )

        return SyntheticCorpus(
            config=self.config,
            catalog=catalog,
            offers=offers,
            matches=matches,
            web=web,
            ground_truth=ground_truth,
            dialects={dialect.merchant.merchant_id: dialect for dialect in dialects},
        )

    # -- taxonomy and schemas ------------------------------------------------

    def _selected_specs(self) -> List[CategorySpec]:
        if self.config.top_level_ids is None:
            return list(CATEGORY_SPECS)
        wanted = set(self.config.top_level_ids)
        selected = [spec for spec in CATEGORY_SPECS if spec.top_level_id in wanted]
        if not selected:
            raise ValueError(
                f"no category specs found for top-level ids {sorted(wanted)!r}"
            )
        return selected

    def _build_taxonomy(
        self, specs: Sequence[CategorySpec]
    ) -> Tuple[Taxonomy, List[CategorySchema]]:
        taxonomy = Taxonomy()
        needed_top_levels = {spec.top_level_id for spec in specs}
        for top_level_id, name in TOP_LEVEL_CATEGORIES:
            if top_level_id in needed_top_levels:
                taxonomy.add_category(top_level_id, name)
        schemas: List[CategorySchema] = []
        for spec in specs:
            taxonomy.add_category(spec.category_id, spec.name, parent_id=spec.top_level_id)
            schema = CategorySchema(spec.category_id)
            for attribute in spec.attributes:
                schema.add_attribute(
                    attribute.name,
                    kind=attribute.attribute_kind,
                    is_key=attribute.is_key,
                    unit=attribute.values.unit,
                )
            schemas.append(schema)
        return taxonomy, schemas

    # -- merchants ------------------------------------------------------------

    def _build_merchants(
        self, rng: random.Random, specs: Sequence[CategorySpec]
    ) -> Tuple[List[Merchant], List[MerchantDialect]]:
        categories_by_domain: Dict[str, List[Tuple[str, Sequence[str]]]] = {}
        for spec in specs:
            categories_by_domain.setdefault(spec.domain, []).append(
                (spec.category_id, spec.attribute_names())
            )

        factory = MerchantDialectFactory(self.config, rng)
        merchants: List[Merchant] = []
        dialects: List[MerchantDialect] = []
        used_names: set = set()
        for index in range(self.config.num_merchants):
            name = self._merchant_name(rng, used_names)
            merchant = Merchant(
                merchant_id=f"merchant-{index:04d}",
                name=name,
                homepage=f"http://www.{name.lower().replace(' ', '')}.example.com",
            )
            merchants.append(merchant)
            dialects.append(factory.create(merchant, categories_by_domain))
        return merchants, dialects

    @staticmethod
    def _merchant_name(rng: random.Random, used_names: set) -> str:
        first_pool, second_pool = MERCHANT_NAME_WORDS
        for _ in range(100):
            name = f"{rng.choice(first_pool)}{rng.choice(second_pool)}"
            if name not in used_names:
                used_names.add(name)
                return name
        # Fall back to a numbered name when the pool is exhausted.
        name = f"Merchant{len(used_names) + 1}"
        used_names.add(name)
        return name

    def _record_dialect_aliases(
        self,
        dialects: Sequence[MerchantDialect],
        specs: Sequence[CategorySpec],
        ground_truth: GroundTruth,
    ) -> None:
        for dialect in dialects:
            for spec in specs:
                for attribute in spec.attributes:
                    alias = dialect.alias_for(spec.category_id, attribute.name)
                    ground_truth.record_alias(
                        merchant_id=dialect.merchant.merchant_id,
                        category_id=spec.category_id,
                        merchant_attribute=alias,
                        catalog_attribute=attribute.name,
                    )

    # -- products --------------------------------------------------------------

    def _generate_product(
        self, rng: random.Random, spec: CategorySpec, counter: int, legacy: bool = False
    ) -> Product:
        product_id = f"product-{counter:06d}"
        values: Dict[str, str] = {}
        brand = rng.choice(BRANDS[spec.domain])
        model = self._model_name(rng, spec.domain)
        for attribute in spec.attributes:
            if rng.random() > attribute.catalog_coverage:
                continue
            values[attribute.name] = self._catalog_value(
                rng, spec, attribute, brand, model, legacy=legacy
            )
        # Brand and key attributes are always present so that products are
        # identifiable and titles can be constructed.
        values.setdefault("Model Part Number", self._mpn(rng, brand))
        specification = Specification(list(values.items()))
        title = self._product_title(spec, values, brand, model)
        return Product(
            product_id=product_id,
            category_id=spec.category_id,
            title=title,
            specification=specification,
        )

    def _catalog_value(
        self,
        rng: random.Random,
        spec: CategorySpec,
        attribute: AttributeSpec,
        brand: str,
        model: str,
        legacy: bool = False,
    ) -> str:
        space = attribute.values
        if space.kind == "brand":
            return brand
        if space.kind == "model":
            return model
        if space.kind == "mpn":
            return self._mpn(rng, brand)
        if space.kind == "upc":
            return "".join(str(rng.randint(0, 9)) for _ in range(12))
        pool = space.pool
        if legacy and len(pool) > 2:
            # Legacy (discontinued) products skew towards the older half of
            # the value pool — e.g. smaller capacities, older interfaces.
            pool = pool[: max(2, len(pool) // 2)]
        if space.kind == "categorical":
            return rng.choice(pool)
        if space.kind == "numeric":
            number = rng.choice(pool)
            return f"{number} {space.unit}" if space.unit else str(number)
        raise ValueError(f"unknown value-space kind: {space.kind!r}")

    @staticmethod
    def _mpn(rng: random.Random, brand: str) -> str:
        prefix = "".join(ch for ch in brand.upper() if ch.isalpha())[:3] or "MPN"
        digits = "".join(str(rng.randint(0, 9)) for _ in range(6))
        suffix = "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWX") for _ in range(2))
        return f"{prefix}{digits}{suffix}"

    def _model_name(self, rng: random.Random, domain: str) -> str:
        word = rng.choice(MODEL_WORDS[domain])
        number = rng.randint(100, 9999)
        return f"{word} {number}"

    @staticmethod
    def _product_title(
        spec: CategorySpec, values: Dict[str, str], brand: str, model: str
    ) -> str:
        fragments = [brand, model]
        for highlight in ("Capacity", "Screen Size", "Megapixels", "Size", "Color"):
            value = values.get(highlight)
            if value:
                fragments.append(value)
        fragments.append(spec.name.rstrip("s"))
        return " ".join(fragments)

    # -- offers ------------------------------------------------------------------

    @staticmethod
    def _weighted_sample(
        rng: random.Random,
        items: Sequence[MerchantDialect],
        weights: Sequence[float],
        k: int,
    ) -> List[MerchantDialect]:
        """Weighted sampling without replacement (Efraimidis-Spirakis keys)."""
        if k >= len(items):
            return list(items)
        keyed = [
            (rng.random() ** (1.0 / max(weight, 1e-9)), item)
            for item, weight in zip(items, weights)
        ]
        keyed.sort(key=lambda pair: -pair[0])
        return [item for _, item in keyed[:k]]

    def _generate_offers(
        self,
        rng: random.Random,
        renderer: LandingPageRenderer,
        web: WebStore,
        ground_truth: GroundTruth,
        product: Product,
        spec: CategorySpec,
        dialects: Sequence[MerchantDialect],
        activity: Dict[str, float],
        offer_counter: int,
    ) -> Tuple[List[Offer], int]:
        brand = product.get("Brand") or ""
        eligible = [
            dialect
            for dialect in dialects
            if not brand or dialect.carries_brand(spec.domain, brand)
        ]
        if not eligible:
            eligible = list(dialects)

        low, high = self.config.offers_per_product
        num_offers = rng.randint(low, high)
        num_offers = min(num_offers, len(eligible))
        weights = [activity.get(dialect.merchant.merchant_id, 1.0) for dialect in eligible]
        chosen = self._weighted_sample(rng, eligible, weights, num_offers) if num_offers else []

        offers: List[Offer] = []
        base_price = self._base_price(rng, spec)
        for dialect in chosen:
            offer_counter += 1
            offer_id = f"offer-{offer_counter:07d}"
            page_spec = self._offer_specification(rng, product, spec, dialect)
            price = round(base_price * rng.uniform(0.85, 1.2), 2)
            url = f"{dialect.merchant.homepage}/item/{offer_id}"
            title = self._offer_title(rng, product, spec)
            offer = Offer(
                offer_id=offer_id,
                merchant_id=dialect.merchant.merchant_id,
                title=title,
                price=price,
                url=url,
                feed_category=self._feed_category(rng, spec),
                category_id=None,
            )
            web.put(url, renderer.render(offer, dialect.merchant, page_spec))
            ground_truth.record_offer(
                offer_id=offer_id,
                product_id=product.product_id,
                category_id=spec.category_id,
                page_spec=page_spec,
            )
            offers.append(offer)
        return offers, offer_counter

    def _offer_specification(
        self,
        rng: random.Random,
        product: Product,
        spec: CategorySpec,
        dialect: MerchantDialect,
    ) -> Specification:
        specification = Specification()
        for attribute in spec.attributes:
            true_value = product.get(attribute.name)
            if true_value is None:
                continue
            if rng.random() > attribute.offer_coverage:
                continue
            merchant_name = dialect.alias_for(spec.category_id, attribute.name)
            value = true_value
            if rng.random() < self.config.value_error_rate and attribute.values.pool:
                value = self._catalog_value(rng, spec, attribute, true_value, true_value)
            value = self._format_value(rng, value, dialect)
            specification.add(merchant_name, value)

        junk_low, junk_high = self.config.junk_attributes_per_offer
        num_junk = rng.randint(junk_low, junk_high) if dialect.junk_attributes else 0
        num_junk = min(num_junk, len(dialect.junk_attributes))
        for name, pool in rng.sample(dialect.junk_attributes, num_junk) if num_junk else []:
            if pool:
                value = rng.choice(pool)
            else:
                value = f"{dialect.merchant.merchant_id[-4:].upper()}-{rng.randint(10000, 99999)}"
            specification.add(name, value)
        return specification

    def _format_value(self, rng: random.Random, value: str, dialect: MerchantDialect) -> str:
        formatted = value
        parts = formatted.split(" ", 1)
        is_numeric_with_unit = len(parts) == 2 and parts[0].replace(".", "", 1).isdigit()
        if is_numeric_with_unit and rng.random() < self.config.value_format_noise:
            # Unit-style rewrites only make sense for "<number> <unit>" values.
            number, unit = parts
            if dialect.unit_style == "suffix":
                formatted = f"{number}{unit}"
            elif dialect.unit_style == "none":
                formatted = number
            else:
                formatted = f"{number} {unit}"
        elif not is_numeric_with_unit and rng.random() < self.config.value_rephrase_rate:
            # Merchants rephrase/abbreviate textual values ("Serial ATA-300"
            # -> "ATA-300", "Intel Core i5" -> "Core i5"): drop a boundary
            # token while keeping the value recognisable.
            tokens = formatted.split()
            if len(tokens) >= 2:
                if rng.random() < 0.5:
                    tokens = tokens[1:]
                else:
                    tokens = tokens[:-1]
                formatted = " ".join(tokens)
        if dialect.uppercase_values:
            formatted = formatted.upper()
        return formatted

    @staticmethod
    def _base_price(rng: random.Random, spec: CategorySpec) -> float:
        price_ranges = {
            "computing": (80.0, 1500.0),
            "cameras": (60.0, 1200.0),
            "furnishings": (25.0, 400.0),
            "kitchen": (20.0, 500.0),
        }
        low, high = price_ranges.get(spec.top_level_id, (10.0, 500.0))
        return rng.uniform(low, high)

    def _offer_title(self, rng: random.Random, product: Product, spec: CategorySpec) -> str:
        # Merchants abbreviate and reorder titles; keep brand/model plus a
        # few salient specs so the category classifier has signal.
        base = product.title
        tokens = base.split()
        if len(tokens) > 4 and rng.random() < 0.4:
            tokens = tokens[: rng.randint(3, len(tokens))]
        suffix = rng.choice(("", "", " - NEW", " (OEM)", " w/ Free Shipping"))
        return " ".join(tokens) + suffix

    @staticmethod
    def _feed_category(rng: random.Random, spec: CategorySpec) -> str:
        separators = ("|", " > ", "/")
        separator = rng.choice(separators)
        path = [spec.top_level_id.title(), spec.name]
        return separator.join(path)
