"""Unit tests for the serving-side inverted index (ISSUE 5 tentpole).

Hand-built products keep these fast and precise: ranking determinism,
exact DF maintenance under upsert/remove/replace, category and
attribute facets, and the incremental-equals-rebuilt contract the
snapshot-isolation proof relies on.
"""

import pytest

from repro.model.attributes import Specification
from repro.model.products import Product
from repro.serving import CatalogIndex
from repro.text.tfidf import IncrementalTfIdf


def make_product(pid, category, title, pairs=()):
    return Product(
        product_id=pid,
        category_id=category,
        title=title,
        specification=Specification(list(pairs)),
    )


@pytest.fixture
def hdd_products():
    return [
        make_product(
            "p-1",
            "computing.hdd",
            "Seagate Barracuda 500GB hard drive",
            [("Brand", "Seagate"), ("Capacity", "500GB"), ("Interface", "SATA")],
        ),
        make_product(
            "p-2",
            "computing.hdd",
            "WD Raptor 150GB hard drive",
            [("Brand", "Western Digital"), ("Capacity", "150GB")],
        ),
        make_product(
            "p-3",
            "cameras.digital",
            "Kodak EasyShare digital camera",
            [("Brand", "Kodak"), ("Resolution", "10MP")],
        ),
    ]


class TestIndexMaintenance:
    def test_upsert_and_lookup(self, hdd_products):
        index = CatalogIndex(hdd_products)
        assert index.num_products == 3
        assert index.get_product("p-2").title == "WD Raptor 150GB hard drive"
        assert index.get_product("missing") is None

    def test_remove_restores_df_statistics_exactly(self, hdd_products):
        index = CatalogIndex(hdd_products[:1])
        vocabulary_before = index.vocabulary_size
        index.upsert(hdd_products[1])
        assert index.remove("p-2")
        assert not index.remove("p-2")
        assert index.vocabulary_size == vocabulary_before
        assert index.num_products == 1

    def test_upsert_replaces_in_place(self, hdd_products):
        index = CatalogIndex(hdd_products)
        refreshed = make_product(
            "p-1",
            "computing.hdd",
            "Seagate Barracuda 750GB hard drive",
            [("Brand", "Seagate"), ("Capacity", "750GB")],
        )
        index.upsert(refreshed)
        assert index.num_products == 3
        assert index.get_product("p-1").title.endswith("750GB hard drive")
        # The old capacity token is gone from the posting lists.
        assert not index.search("500gb")
        assert index.search("750gb")[0].product.product_id == "p-1"

    def test_incremental_equals_rebuilt(self, hdd_products):
        """The invariant the isolation proof rests on: an index reached
        through any sequence of upserts/removes scores byte-identically
        to one rebuilt from the final product set."""
        incremental = CatalogIndex()
        incremental.upsert(hdd_products[1])
        incremental.upsert(
            make_product("p-1", "computing.hdd", "placeholder title", [])
        )
        incremental.upsert(hdd_products[2])
        incremental.upsert(hdd_products[0])  # replaces the placeholder
        rebuilt = CatalogIndex(hdd_products)
        for query in ("seagate hard drive", "kodak", "150gb raptor", "drive"):
            left = [(r.product.product_id, r.score) for r in incremental.search(query)]
            right = [(r.product.product_id, r.score) for r in rebuilt.search(query)]
            assert left == right

    def test_rebuild_replaces_everything(self, hdd_products):
        index = CatalogIndex(hdd_products)
        index.rebuild(hdd_products[:1])
        assert index.num_products == 1
        assert not index.search("kodak")
        assert index.count_by_category() == {"computing.hdd": 1}


class TestSearch:
    def test_ranking_prefers_matching_product(self, hdd_products):
        index = CatalogIndex(hdd_products)
        results = index.search("seagate barracuda 500gb")
        assert results[0].product.product_id == "p-1"
        assert results[0].score > results[-1].score if len(results) > 1 else True

    def test_deterministic_tie_break_by_product_id(self):
        twins = [
            make_product("p-b", "c", "identical title text"),
            make_product("p-a", "c", "identical title text"),
        ]
        index = CatalogIndex(twins)
        results = index.search("identical title")
        assert [r.product.product_id for r in results] == ["p-a", "p-b"]
        assert results[0].score == results[1].score

    def test_top_k_truncation_and_validation(self, hdd_products):
        index = CatalogIndex(hdd_products)
        assert len(index.search("hard drive", top_k=1)) == 1
        with pytest.raises(ValueError, match="top_k"):
            index.search("hard drive", top_k=0)

    def test_empty_and_unknown_queries(self, hdd_products):
        index = CatalogIndex(hdd_products)
        assert index.search("") == []
        assert index.search("   ") == []
        assert index.search("zzzzunknowntoken") == []

    def test_category_filter(self, hdd_products):
        index = CatalogIndex(hdd_products)
        # "digital" appears in both categories (a value token of p-2's
        # "Western Digital" and a title token of p-3).
        unfiltered = {r.product.product_id for r in index.search("digital")}
        assert unfiltered == {"p-2", "p-3"}
        hits = index.search("digital", category="cameras.digital")
        assert [r.product.product_id for r in hits] == ["p-3"]

    def test_attribute_filter_uses_normalisation(self, hdd_products):
        index = CatalogIndex(hdd_products)
        hits = index.search("hard drive", attributes={"BRAND": "seagate"})
        assert [r.product.product_id for r in hits] == ["p-1"]
        assert index.search("hard drive", attributes={"Brand": "Toshiba"}) == []

    def test_search_results_serialise(self, hdd_products):
        index = CatalogIndex(hdd_products)
        payload = index.search("seagate")[0].to_dict()
        assert payload["product_id"] == "p-1"
        assert 0.0 < payload["score"] <= 1.0


class TestFacetsAndStats:
    def test_count_by_category(self, hdd_products):
        index = CatalogIndex(hdd_products)
        assert index.count_by_category() == {
            "cameras.digital": 1,
            "computing.hdd": 2,
        }
        index.remove("p-3")
        assert index.count_by_category() == {"computing.hdd": 2}

    def test_stats_shape(self, hdd_products):
        index = CatalogIndex(hdd_products)
        stats = index.stats()
        assert stats["num_products"] == 3
        assert stats["num_categories"] == 2
        assert stats["vocabulary_size"] == index.vocabulary_size > 0

    def test_untokenisable_product_stays_retrievable(self):
        index = CatalogIndex([make_product("p-x", "c", "")])
        assert index.num_products == 1
        assert index.get_product("p-x") is not None
        assert index.count_by_category() == {"c": 1}
        assert index.search("anything") == []


class TestTfIdfDiscard:
    def test_discard_is_the_exact_inverse_of_add(self):
        stats = IncrementalTfIdf(["seagate barracuda", "wd raptor"])
        stats.add("seagate momentus")
        stats.discard("seagate momentus")
        reference = IncrementalTfIdf(["seagate barracuda", "wd raptor"])
        assert stats.state_dict() == reference.state_dict()

    def test_discard_rejects_unknown_documents(self):
        stats = IncrementalTfIdf(["seagate barracuda"])
        with pytest.raises(ValueError, match="never added"):
            stats.discard("hitachi deskstar")
        # The failed discard left the statistics untouched.
        assert stats.num_documents == 1
        with pytest.raises(ValueError, match="empty"):
            IncrementalTfIdf().discard("anything")

    def test_frozen_vectorizer_rejects_discard(self):
        from repro.text.tfidf import TfIdfVectorizer

        vectorizer = TfIdfVectorizer(["seagate barracuda"])
        with pytest.raises(TypeError, match="frozen"):
            vectorizer.discard("seagate barracuda")
