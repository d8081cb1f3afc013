"""Tests for the catalog container, products, offers and the match store."""

import pytest

from repro.model.attributes import Specification
from repro.model.catalog import Catalog
from repro.model.matches import MatchStore, OfferProductMatch
from repro.model.merchants import Merchant
from repro.model.offers import Offer
from repro.model.products import Product
from repro.model.schema import CategorySchema
from repro.model.taxonomy import Taxonomy


@pytest.fixture
def catalog() -> Catalog:
    taxonomy = Taxonomy()
    taxonomy.add_category("computing", "Computing")
    taxonomy.add_category("computing.hdd", "Hard Drives", parent_id="computing")
    cat = Catalog(taxonomy)
    cat.register_schema(CategorySchema("computing.hdd"))
    return cat


class TestCatalog:
    def test_register_schema_unknown_category(self, catalog):
        with pytest.raises(KeyError):
            catalog.register_schema(CategorySchema("missing"))

    def test_register_schema_twice(self, catalog):
        with pytest.raises(ValueError):
            catalog.register_schema(CategorySchema("computing.hdd"))

    def test_schema_for_missing(self, catalog):
        with pytest.raises(KeyError):
            catalog.schema_for("computing")

    def test_has_schema(self, catalog):
        assert catalog.has_schema("computing.hdd")
        assert not catalog.has_schema("computing")

    def test_add_and_get_product(self, catalog):
        product = Product("p-1", "computing.hdd", "A drive")
        catalog.add_product(product)
        assert catalog.product("p-1") is product
        assert catalog.has_product("p-1")
        assert catalog.num_products() == 1
        assert catalog.products_in_category("computing.hdd") == [product]

    def test_add_duplicate_product(self, catalog):
        catalog.add_product(Product("p-1", "computing.hdd"))
        with pytest.raises(ValueError):
            catalog.add_product(Product("p-1", "computing.hdd"))

    def test_add_product_unknown_category(self, catalog):
        with pytest.raises(KeyError):
            catalog.add_product(Product("p-1", "missing"))

    def test_unknown_product_lookup(self, catalog):
        with pytest.raises(KeyError):
            catalog.product("missing")

    def test_merchants(self, catalog):
        merchant = Merchant("m-1", "TechDepot")
        catalog.register_merchant(merchant)
        assert catalog.merchant("m-1") == merchant
        assert catalog.merchants() == [merchant]
        # Idempotent for identical registration.
        catalog.register_merchant(merchant)
        with pytest.raises(ValueError):
            catalog.register_merchant(Merchant("m-1", "Another Name"))
        with pytest.raises(KeyError):
            catalog.merchant("missing")

    def test_len_and_iter(self, catalog):
        catalog.add_products([Product("p-1", "computing.hdd"), Product("p-2", "computing.hdd")])
        assert len(catalog) == 2
        assert {product.product_id for product in catalog} == {"p-1", "p-2"}


class TestProductAndOffer:
    def test_product_accessors(self):
        product = Product(
            "p-1",
            "computing.hdd",
            title="Drive",
            specification=Specification([("Brand", "Hitachi")]),
            source_offer_ids=("o-1", "o-2"),
        )
        assert product.get("brand") == "Hitachi"
        assert product.num_attributes() == 1
        assert product.num_source_offers() == 2
        clone = product.with_specification(Specification([("Brand", "Seagate")]))
        assert clone.get("Brand") == "Seagate"
        assert product.get("Brand") == "Hitachi"

    def test_offer_accessors(self):
        offer = Offer(
            "o-1",
            "m-1",
            title="A drive",
            specification=Specification([("RPM", "7200")]),
        )
        assert offer.get("rpm") == "7200"
        assert offer.num_attributes() == 1
        with_category = offer.with_category("computing.hdd")
        assert with_category.category_id == "computing.hdd"
        assert offer.category_id is None
        replaced = offer.with_specification(Specification())
        assert replaced.num_attributes() == 0


class TestMatchStore:
    def test_add_and_lookup(self):
        store = MatchStore([OfferProductMatch("o-1", "p-1")])
        assert store.is_matched("o-1")
        assert store.product_for_offer("o-1") == "p-1"
        assert "o-1" in store
        assert len(store) == 1

    def test_duplicate_same_product_is_noop(self):
        store = MatchStore()
        store.add(OfferProductMatch("o-1", "p-1"))
        store.add(OfferProductMatch("o-1", "p-1"))
        assert len(store) == 1

    def test_conflicting_match_raises(self):
        store = MatchStore([OfferProductMatch("o-1", "p-1")])
        with pytest.raises(ValueError):
            store.add(OfferProductMatch("o-1", "p-2"))

    def test_unmatched(self):
        store = MatchStore([OfferProductMatch("o-1", "p-1")])
        assert store.unmatched(["o-1", "o-2"]) == ["o-2"]

    def test_missing_lookup(self):
        store = MatchStore()
        assert store.product_for_offer("o-404") is None
