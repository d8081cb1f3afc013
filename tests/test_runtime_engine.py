"""Tests for the streaming runtime engine (repro.runtime)."""

import pytest

from repro.matching.correspondence import AttributeCorrespondence, CorrespondenceSet
from repro.model.attributes import Specification
from repro.model.catalog import Catalog
from repro.model.merchants import Merchant
from repro.model.offers import Offer
from repro.model.taxonomy import Taxonomy
from repro.runtime import (
    SerialExecutor,
    SynthesisEngine,
    partition_by_shard,
    resolve_executor,
    shard_for_category,
)
from repro.synthesis.pipeline import ProductSynthesisPipeline, stable_product_id
from repro.text.tfidf import IncrementalTfIdf, TfIdfVectorizer


from conftest import product_fingerprint as fingerprint


def make_engine(harness, **kwargs):
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        **kwargs,
    )


def stream(offers, num_batches):
    size = max(1, (len(offers) + num_batches - 1) // num_batches)
    return [offers[start : start + size] for start in range(0, len(offers), size)]


class TestEngineBasics:
    def test_empty_batch(self, tiny_harness):
        engine = make_engine(tiny_harness)
        report = engine.ingest([])
        assert report.offers_in_batch == 0
        assert report.offers_new == 0
        assert report.clusters_touched == 0
        assert engine.products() == []
        snapshot = engine.snapshot()
        assert snapshot.num_products() == 0
        assert snapshot.offers_ingested == 0

    def test_matches_monolithic_pipeline(self, tiny_harness):
        engine = make_engine(tiny_harness, num_shards=4)
        for batch in stream(tiny_harness.unmatched_offers, 3):
            engine.ingest(batch)
        expected = sorted(fingerprint(tiny_harness.synthesis_result.products))
        assert sorted(fingerprint(engine.products())) == expected

    def test_repeated_ingest_idempotent(self, tiny_harness):
        engine = make_engine(tiny_harness)
        offers = tiny_harness.unmatched_offers
        first_report = engine.ingest(offers)
        before = fingerprint(engine.products())
        replay_report = engine.ingest(offers)
        assert replay_report.offers_new == 0
        assert replay_report.offers_duplicate == len(offers)
        assert replay_report.clusters_touched == 0
        assert fingerprint(engine.products()) == before
        assert first_report.offers_new == len(offers)

    def test_duplicates_within_one_batch_deduplicated(self, tiny_harness):
        """Regression: repeats inside a single batch were processed twice."""
        engine = make_engine(tiny_harness)
        offer = tiny_harness.unmatched_offers[0]
        report = engine.ingest([offer, offer, offer])
        assert report.offers_new == 1
        assert report.offers_duplicate == 2
        assert engine.snapshot().offers_ingested == 1
        for product in engine.products():
            assert len(set(product.source_offer_ids)) == len(product.source_offer_ids)

    def test_mixed_extraction_batching_invariant(self, tiny_harness, tiny_corpus):
        """Regression: a mixed pre-extracted/raw stream must not depend on
        how it is micro-batched (extraction decisions are per offer)."""
        extracted = tiny_harness.unmatched_offers[:30]
        raw = tiny_corpus.unmatched_offers()[30:60]  # empty specs, URLs present
        mixed = extracted + raw
        one_shot = make_engine(tiny_harness)
        streamed = make_engine(tiny_harness)
        one_shot.ingest(mixed)
        for batch in stream(mixed, 5):
            streamed.ingest(batch)
        assert fingerprint(streamed.products()) == fingerprint(one_shot.products())
        # Pre-filled specifications are kept verbatim, raw ones extracted.
        assert one_shot.snapshot().offers_ingested == len(mixed)

    def test_ingest_report_accounting(self, tiny_harness):
        engine = make_engine(tiny_harness)
        offers = tiny_harness.unmatched_offers
        report = engine.ingest(offers)
        assert report.offers_in_batch == len(offers)
        routed = (
            report.offers_clustered
            + report.offers_without_key
            + report.offers_uncategorised
        )
        assert routed == report.offers_new
        assert report.clusters_touched == engine.num_clusters()
        assert report.products_refreshed == len(engine.products())

    def test_snapshot_accumulates_across_batches(self, tiny_harness):
        engine = make_engine(tiny_harness)
        batches = stream(tiny_harness.unmatched_offers, 4)
        seen = 0
        for batch in batches:
            engine.ingest(batch)
            seen += len(batch)
            assert engine.snapshot().offers_ingested == seen
        snapshot = engine.snapshot()
        assert snapshot.reconciliation_stats.offers_processed == seen

    def test_min_cluster_size_applied_at_emission(self, tiny_harness):
        strict = make_engine(tiny_harness, min_cluster_size=2)
        loose = make_engine(tiny_harness)
        strict.ingest(tiny_harness.unmatched_offers)
        loose.ingest(tiny_harness.unmatched_offers)
        assert len(strict.products()) < len(loose.products())
        # Sub-threshold clusters are tracked, ready to grow past the bar.
        assert strict.num_clusters() == loose.num_clusters()

    def test_clusterer_min_cluster_size_honoured(self, tiny_harness):
        """Regression: a user-supplied clusterer's threshold was ignored."""
        from repro.synthesis.clustering import KeyAttributeClusterer

        clusterer = KeyAttributeClusterer(tiny_harness.corpus.catalog, min_cluster_size=2)
        engine = make_engine(tiny_harness, clusterer=clusterer)
        engine.ingest(tiny_harness.unmatched_offers)
        pipeline = ProductSynthesisPipeline(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
            clusterer=clusterer,
        )
        expected = sorted(fingerprint(pipeline.synthesize(tiny_harness.unmatched_offers).products))
        assert sorted(fingerprint(engine.products())) == expected

    def test_snapshot_is_a_point_in_time_copy(self, tiny_harness):
        """Regression: snapshots aliased the live reconciliation stats."""
        engine = make_engine(tiny_harness)
        batches = stream(tiny_harness.unmatched_offers, 2)
        engine.ingest(batches[0])
        snap = engine.snapshot()
        processed_then = snap.reconciliation_stats.offers_processed
        engine.ingest(batches[1])
        assert snap.reconciliation_stats.offers_processed == processed_then
        assert engine.snapshot().reconciliation_stats.offers_processed > processed_then


class TestExecutorParity:
    def test_parallel_byte_identical_to_serial(self, tiny_harness):
        serial = make_engine(tiny_harness, num_shards=4, executor="serial")
        parallel = make_engine(tiny_harness, num_shards=4, executor="process")
        for batch in stream(tiny_harness.unmatched_offers, 3):
            serial.ingest(batch)
            parallel.ingest(batch)
        assert fingerprint(parallel.products()) == fingerprint(serial.products())
        parallel.close()

    def test_shard_count_does_not_change_output(self, tiny_harness):
        narrow = make_engine(tiny_harness, num_shards=1)
        wide = make_engine(tiny_harness, num_shards=16)
        narrow.ingest(tiny_harness.unmatched_offers)
        wide.ingest(tiny_harness.unmatched_offers)
        assert fingerprint(narrow.products()) == fingerprint(wide.products())

    def test_batching_does_not_change_output(self, tiny_harness):
        one_shot = make_engine(tiny_harness)
        streamed = make_engine(tiny_harness)
        one_shot.ingest(tiny_harness.unmatched_offers)
        for batch in stream(tiny_harness.unmatched_offers, 7):
            streamed.ingest(batch)
        assert fingerprint(streamed.products()) == fingerprint(one_shot.products())

    def test_engine_context_manager_closes_executor(self, tiny_harness):
        with make_engine(tiny_harness, executor="process") as engine:
            engine.ingest(tiny_harness.unmatched_offers[:20])
            assert engine.products() or engine.num_clusters() >= 0

    def test_engine_close_is_idempotent(self, tiny_harness):
        engine = make_engine(tiny_harness, executor="process")
        engine.ingest(tiny_harness.unmatched_offers[:20])
        engine.close()
        engine.close()  # safe to call twice
        with make_engine(tiny_harness, executor="process") as context_engine:
            context_engine.ingest(tiny_harness.unmatched_offers[:20])
        context_engine.close()  # and after __exit__

    def test_resolve_executor_rejects_unknown_name(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_executor("gpu")
        # The error lists the valid executor names.
        message = str(excinfo.value)
        for name in ("serial", "process"):
            assert name in message
        assert isinstance(resolve_executor(None), SerialExecutor)


class TestNoSchemaCategory:
    @pytest.fixture
    def gadget_setup(self):
        """A category that exists in the taxonomy but has no schema."""
        taxonomy = Taxonomy()
        taxonomy.add_category("gadgets", "Gadgets")
        catalog = Catalog(taxonomy)
        catalog.register_merchant(Merchant("m-1", "GadgetMart"))
        correspondences = CorrespondenceSet(
            [
                AttributeCorrespondence("Model Part Number", "MPN", "m-1", "gadgets"),
                AttributeCorrespondence("Color", "Colour", "m-1", "gadgets"),
            ]
        )
        offers = [
            Offer(
                offer_id=f"g-{index}",
                merchant_id="m-1",
                title=f"Gadget {index}",
                category_id="gadgets",
                specification=Specification(
                    [("MPN", "GX-100"), ("Colour", "Black"), ("Junk", "ignored")]
                ),
            )
            for index in range(1, 4)
        ]
        return catalog, correspondences, offers

    def test_products_fall_back_to_observed_names(self, gadget_setup):
        catalog, correspondences, offers = gadget_setup
        engine = SynthesisEngine(catalog=catalog, correspondences=correspondences)
        report = engine.ingest(offers)
        assert report.offers_clustered == 3
        products = engine.products()
        assert len(products) == 1
        product = products[0]
        assert product.category_id == "gadgets"
        assert product.get("Model Part Number") == "GX-100"
        assert product.get("Color") == "Black"
        # Unmapped merchant attributes never survive reconciliation.
        assert product.get("Junk") is None
        assert set(product.source_offer_ids) == {"g-1", "g-2", "g-3"}

    def test_engine_matches_pipeline_without_schema(self, gadget_setup):
        catalog, correspondences, offers = gadget_setup
        engine = SynthesisEngine(catalog=catalog, correspondences=correspondences)
        engine.ingest(offers)
        pipeline = ProductSynthesisPipeline(catalog=catalog, correspondences=correspondences)
        expected = sorted(fingerprint(pipeline.synthesize(offers).products))
        assert sorted(fingerprint(engine.products())) == expected


class TestStableProductIds:
    def test_stable_product_id_deterministic(self):
        first = stable_product_id("computing.hdd", "Model Part Number:abc123")
        second = stable_product_id("computing.hdd", "Model Part Number:abc123")
        assert first == second
        assert first.startswith("synth-")
        assert first != stable_product_id("cameras", "Model Part Number:abc123")
        assert first != stable_product_id("computing.hdd", "UPC:abc123")

    def test_separate_pipeline_batches_do_not_collide(self, tiny_harness):
        """Regression: per-call `synth-{index}` ids collided across batches."""
        offers = tiny_harness.unmatched_offers
        half = len(offers) // 2
        pipeline = ProductSynthesisPipeline(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
        )
        first = pipeline.synthesize(offers[:half]).products
        second = pipeline.synthesize(offers[half:]).products
        assert first and second
        first_ids = {product.product_id for product in first}
        second_ids = {product.product_id for product in second}
        assert not first_ids & second_ids

    def test_engine_ids_stable_across_batchings(self, tiny_harness):
        coarse = make_engine(tiny_harness)
        fine = make_engine(tiny_harness)
        coarse.ingest(tiny_harness.unmatched_offers)
        for batch in stream(tiny_harness.unmatched_offers, 9):
            fine.ingest(batch)
        coarse_ids = [product.product_id for product in coarse.products()]
        fine_ids = [product.product_id for product in fine.products()]
        assert coarse_ids == fine_ids
        assert len(set(coarse_ids)) == len(coarse_ids)


class TestSharding:
    def test_shard_stable_and_in_range(self):
        for num_shards in (1, 2, 7, 64):
            index = shard_for_category("computing.hdd", num_shards)
            assert 0 <= index < num_shards
            assert shard_for_category("computing.hdd", num_shards) == index

    def test_partition_by_shard_preserves_order(self):
        items = ["a", "b", "c", "d"]
        categories = ["x", "y", "x", "y"]
        shards = partition_by_shard(items, categories, 4)
        recovered = [item for shard in shards.values() for item in shard]
        assert sorted(recovered) == items
        x_shard = shard_for_category("x", 4)
        assert [item for item in shards[x_shard] if item in ("a", "c")] == ["a", "c"]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_for_category("x", 0)


class TestTextMemo:
    def test_caches_transparent_and_observable(self):
        from repro.text.memo import (
            cached_normalize_attribute_name,
            cached_tokenize_value,
            clear_text_caches,
            text_cache_info,
        )
        from repro.text.normalize import normalize_attribute_name
        from repro.text.tokenize import tokenize_value

        clear_text_caches()
        assert cached_normalize_attribute_name("Mfr. Part #") == normalize_attribute_name(
            "Mfr. Part #"
        )
        assert list(cached_tokenize_value("500 GB")) == tokenize_value("500 GB")
        cached_tokenize_value("500 GB")
        info = text_cache_info()
        assert info["cached_tokenize_value"]["hits"] >= 1
        clear_text_caches()
        assert text_cache_info()["cached_tokenize_value"]["size"] == 0

    def test_ingest_normalises_each_attribute_name_once(self, tiny_harness, monkeypatch):
        # Work on the offer path is per distinct name, not per pair and
        # schema attribute: every module's reference to the uncached
        # normaliser is counted while a stream is ingested from cold caches.
        import sys

        import repro.text.normalize as normalize_module
        from repro.text.memo import clear_text_caches

        # Learning and extraction run here, before the counter goes in.
        offers = tiny_harness.unmatched_offers[:120]
        engine = make_engine(tiny_harness, num_shards=4)

        original = normalize_module.normalize_attribute_name
        calls = []

        def counted(name):
            calls.append(name)
            return original(name)

        for module in list(sys.modules.values()):
            if getattr(module, "normalize_attribute_name", None) is original:
                monkeypatch.setattr(module, "normalize_attribute_name", counted)
        clear_text_caches()
        for batch in stream(offers, 6):
            engine.ingest(batch)
        assert engine.products()
        pairs = sum(len(offer.specification) for offer in offers)
        assert 0 < len(calls) == len(set(calls)) < pairs


class TestIncrementalTfIdf:
    def test_incremental_matches_batch_statistics(self):
        corpus = ["Seagate Barracuda", "Seagate Momentus", "WD Raptor"]
        frozen = TfIdfVectorizer(corpus)
        incremental = IncrementalTfIdf()
        incremental.extend(corpus)
        assert incremental.num_documents == frozen.num_documents
        for token in ("seagate", "barracuda", "raptor", "unseen"):
            assert incremental.idf(token) == pytest.approx(frozen.idf(token))
        assert incremental.transform("Seagate Raptor") == frozen.transform("Seagate Raptor")

    def test_merge_agrees_with_serial(self):
        left = IncrementalTfIdf(["Seagate Barracuda", "WD Raptor"])
        right = IncrementalTfIdf(["Seagate Momentus"])
        left.merge(right)
        serial = IncrementalTfIdf(
            ["Seagate Barracuda", "WD Raptor", "Seagate Momentus"]
        )
        assert left.num_documents == serial.num_documents
        assert left.vocabulary_size == serial.vocabulary_size
        assert left.idf("seagate") == pytest.approx(serial.idf("seagate"))

    def test_vectorizer_is_frozen(self):
        frozen = TfIdfVectorizer(["Seagate Barracuda"])
        with pytest.raises(TypeError):
            frozen.add("WD Raptor")
        with pytest.raises(TypeError):
            frozen.extend(["WD Raptor"])
        with pytest.raises(TypeError):
            frozen.merge(IncrementalTfIdf(["WD Raptor"]))
        assert frozen.num_documents == 1


class TestMemoizedValueFusion:
    def test_transparent_and_picklable(self):
        import pickle

        from repro.synthesis.fusion import CentroidValueFusion, MemoizedValueFusion

        values = ["Windows Vista", "Microsoft Windows Vista", "Windows Vista"]
        base = CentroidValueFusion()
        memo = MemoizedValueFusion(base)
        assert memo.select(values) == base.select(values)
        assert memo.select(values) == base.select(values)
        assert memo.hits >= 1
        clone = pickle.loads(pickle.dumps(memo))  # process-pool payload path
        assert clone.select(values) == base.select(values)

    def test_shared_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.synthesis.fusion import MemoizedValueFusion

        memo = MemoizedValueFusion(maxsize=4)
        value_lists = [[f"value {index}", f"value {index} extended"] for index in range(40)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(memo.select, value_lists * 8))
        assert len(results) == 320
        assert all(selected is not None for selected in results)
