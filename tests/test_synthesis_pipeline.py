"""Integration tests for the end-to-end run-time synthesis pipeline."""

from dataclasses import replace

import pytest

from repro.synthesis.clustering import KeyAttributeClusterer
from repro.synthesis.pipeline import ProductSynthesisPipeline


class TestPipelineOnTinyCorpus:
    def test_produces_products_with_schema_attributes(self, tiny_harness):
        result = tiny_harness.synthesis_result
        assert result.num_products() > 10
        assert result.num_attributes() > result.num_products()
        catalog = tiny_harness.corpus.catalog
        for product in result.products[:50]:
            schema = catalog.schema_for(product.category_id)
            for name in product.attribute_names():
                assert schema.has_attribute(name), (product.category_id, name)

    def test_products_record_source_offers(self, tiny_harness):
        for product in tiny_harness.synthesis_result.products:
            assert product.num_source_offers() >= 1
            assert product.product_id.startswith("synth-")

    def test_junk_attributes_filtered_out(self, tiny_harness):
        """Merchant junk attributes (Warranty, Shipping, SKU...) never survive."""
        junk_names = {"warranty", "shipping", "condition", "availability", "sku", "rebate"}
        for product in tiny_harness.synthesis_result.products:
            for name in product.attribute_names():
                assert name.lower() not in junk_names

    def test_pricing_noise_filtered_out(self, tiny_harness):
        """Pairs wrongly extracted from the pricing table are dropped by reconciliation."""
        noise_names = {"our price", "list price", "you save"}
        for product in tiny_harness.synthesis_result.products:
            for name in product.attribute_names():
                assert name.lower() not in noise_names

    def test_one_cluster_per_true_product_mostly(self, tiny_harness, tiny_corpus):
        """Clusters map 1:1 to true products for the overwhelming majority."""
        truth = tiny_corpus.ground_truth
        pure_clusters = 0
        clusters = tiny_harness.synthesis_result.clusters
        for cluster in clusters:
            true_products = {
                truth.offer_to_product.get(offer_id) for offer_id in cluster.offer_ids()
            }
            if len(true_products) == 1:
                pure_clusters += 1
        assert pure_clusters / len(clusters) > 0.95

    def test_reconciliation_stats_recorded(self, tiny_harness):
        stats = tiny_harness.synthesis_result.reconciliation_stats
        assert stats.offers_processed == len(tiny_harness.unmatched_offers)
        assert stats.pairs_seen > 0
        assert 0 < stats.pairs_mapped < stats.pairs_seen

    def test_average_attributes_reasonable(self, tiny_harness):
        average = tiny_harness.synthesis_result.average_attributes_per_product()
        assert 2.0 < average < 15.0

    def test_oracle_quality(self, tiny_harness):
        evaluation = tiny_harness.evaluate_synthesis()
        assert evaluation.attribute_precision > 0.8
        assert evaluation.product_precision > 0.5
        assert evaluation.attribute_recall > 0.5


class TestPipelineConfiguration:
    def test_missing_category_classifier_raises(self, tiny_harness):
        pipeline = ProductSynthesisPipeline(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=None,
        )
        with pytest.raises(ValueError):
            pipeline.synthesize(tiny_harness.corpus.unmatched_offers()[:5])

    def test_pre_categorised_offers_bypass_classifier(self, tiny_harness, tiny_corpus):
        truth = tiny_corpus.ground_truth
        offers = [
            offer.with_category(truth.offer_true_category[offer.offer_id])
            for offer in tiny_harness.unmatched_offers[:100]
        ]
        pipeline = ProductSynthesisPipeline(
            catalog=tiny_corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=None,
        )
        result = pipeline.synthesize(offers)
        assert result.num_products() > 0

    def test_min_cluster_size_reduces_products(self, tiny_harness):
        base = tiny_harness.synthesis_result
        pipeline = ProductSynthesisPipeline(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
            clusterer=KeyAttributeClusterer(tiny_harness.corpus.catalog, min_cluster_size=2),
        )
        strict = pipeline.synthesize(tiny_harness.unmatched_offers)
        assert strict.num_products() < base.num_products()

    def test_empty_offer_list(self, tiny_harness):
        pipeline = ProductSynthesisPipeline(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
        )
        result = pipeline.synthesize([])
        assert result.num_products() == 0
        assert result.num_attributes() == 0
        assert result.average_attributes_per_product() == 0.0

    def test_offer_carrying_a_specification_keeps_it_beside_raw_offers(self, tiny_harness):
        """Extraction is per offer: a raw neighbour does not re-extract a carried spec."""
        carried = max(tiny_harness.unmatched_offers, key=lambda offer: len(offer.specification))
        dead = replace(carried, url="http://gone.example.com/offer")
        category = tiny_harness.corpus.ground_truth.offer_true_category
        raw = next(
            offer
            for offer in tiny_harness.corpus.unmatched_offers()
            if category[offer.offer_id] != category[carried.offer_id]
        )
        pipeline = ProductSynthesisPipeline(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
        )

        def product_of(result):
            return [
                product for product in result.products if dead.offer_id in product.source_offer_ids
            ]

        alone = pipeline.synthesize([dead])
        together = pipeline.synthesize([dead, raw])
        assert alone.extraction_stats is None
        assert product_of(alone) and product_of(alone)[0].num_attributes() > 0
        assert product_of(together) == product_of(alone)
        assert together.extraction_stats.offers_processed == 1
