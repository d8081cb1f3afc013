"""Tests for JSON persistence and the name-matcher feature extension."""

import json

import pytest

from repro.matching.candidates import CandidateTuple
from repro.matching.correspondence import AttributeCorrespondence, CorrespondenceSet
from repro.matching.features import (
    EXTENDED_FEATURE_NAMES,
    FEATURE_NAMES,
    NAME_FEATURE,
    DistributionalFeatureExtractor,
    attribute_name_similarity,
)
from repro.matching.grouping import MatchedValueIndex
from repro.matching.learner import OfflineLearner
from repro.model.persistence import (
    catalog_from_dict,
    catalog_to_dict,
    correspondences_from_dict,
    correspondences_to_dict,
    load_catalog,
    load_correspondences,
    offer_from_dict,
    offer_to_dict,
    offers_from_dicts,
    offers_to_dicts,
    products_from_dicts,
    products_to_dicts,
    save_catalog,
    save_correspondences,
)


class TestCatalogPersistence:
    def test_round_trip_micro_catalog(self, hdd_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(hdd_catalog, path)
        restored = load_catalog(path)

        assert len(restored.taxonomy) == len(hdd_catalog.taxonomy)
        assert restored.num_products() == hdd_catalog.num_products()
        assert set(restored.schema_for("computing.hdd").attribute_names()) == set(
            hdd_catalog.schema_for("computing.hdd").attribute_names()
        )
        assert restored.schema_for("computing.hdd").is_key_attribute("Model Part Number")
        assert restored.product("p-1").get("Brand") == "Seagate"
        assert restored.merchant("m-1").name == "Microwarehouse"

    def test_round_trip_generated_catalog(self, tiny_corpus, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(tiny_corpus.catalog, path)
        restored = load_catalog(path)
        assert restored.num_products() == tiny_corpus.catalog.num_products()
        assert len(restored.schemas()) == len(tiny_corpus.catalog.schemas())
        # The file is valid JSON and carries the format version.
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1

    def test_unsupported_version_rejected(self, hdd_catalog):
        payload = catalog_to_dict(hdd_catalog)
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            catalog_from_dict(payload)

    def test_unresolvable_parent_rejected(self):
        payload = {
            "format_version": 1,
            "categories": [{"category_id": "child", "name": "Child", "parent_id": "missing"}],
        }
        with pytest.raises(ValueError):
            catalog_from_dict(payload)

    def test_child_before_parent_still_loads(self, hdd_catalog):
        payload = catalog_to_dict(hdd_catalog)
        payload["categories"] = list(reversed(payload["categories"]))
        restored = catalog_from_dict(payload)
        assert len(restored.taxonomy) == 2


class TestProductAndCorrespondencePersistence:
    def test_products_round_trip(self, tiny_harness):
        products = tiny_harness.synthesis_result.products[:10]
        restored = products_from_dicts(products_to_dicts(products))
        assert len(restored) == len(products)
        for before, after in zip(products, restored):
            assert before.product_id == after.product_id
            assert before.specification == after.specification
            assert before.source_offer_ids == after.source_offer_ids

    def test_decoded_attribute_names_are_shared(self, tiny_harness):
        products = tiny_harness.synthesis_result.products
        restored = products_from_dicts(json.loads(json.dumps(products_to_dicts(products))))
        assert [p.specification for p in restored] == [p.specification for p in products]
        # JSON decoding makes a fresh string per occurrence; every decoded
        # occurrence of one attribute name is the same object.
        by_name = {}
        for product in restored:
            for attribute in product.specification:
                assert by_name.setdefault(attribute.name, attribute.name) is attribute.name
        assert sum(len(p.specification) for p in restored) > len(by_name)

    def test_offer_round_trip_is_exact(self, tiny_harness):
        offers = tiny_harness.unmatched_offers[:10]
        restored = offers_from_dicts(json.loads(json.dumps(offers_to_dicts(offers))))
        # Every field round-trips exactly (dataclass equality covers the
        # specification too) — the durable catalog store relies on this
        # to re-fuse byte-identical products after a restart.
        assert restored == offers

    def test_offer_round_trip_optional_fields(self):
        from repro.model.offers import Offer

        bare = Offer(offer_id="o-1", merchant_id="m-1", title="Widget")
        assert offer_from_dict(offer_to_dict(bare)) == bare
        assert "category_id" not in offer_to_dict(bare)
        assert "image_url" not in offer_to_dict(bare)

    def test_correspondences_round_trip(self, tmp_path):
        correspondences = CorrespondenceSet(
            [
                AttributeCorrespondence("Capacity", "Hard Disk Size", "m-1", "hdd", 0.93),
                AttributeCorrespondence("Brand", "Mfg", "m-2", "hdd", 0.71),
            ]
        )
        path = tmp_path / "correspondences.json"
        save_correspondences(correspondences, path)
        restored = load_correspondences(path)
        assert len(restored) == 2
        assert restored.translate("m-1", "hdd", "Hard Disk Size") == "Capacity"
        assert restored.translate("m-2", "hdd", "Mfg") == "Brand"

    def test_correspondences_bad_version(self):
        payload = correspondences_to_dict(CorrespondenceSet())
        payload["format_version"] = 2
        with pytest.raises(ValueError):
            correspondences_from_dict(payload)

    def test_learned_correspondences_survive_round_trip(self, tiny_harness, tmp_path):
        correspondences = tiny_harness.offline_result.correspondences
        path = tmp_path / "learned.json"
        save_correspondences(correspondences, path)
        restored = load_correspondences(path)
        assert len(restored) == len(correspondences)


class TestNameFeatureExtension:
    def test_name_similarity_bounds_and_ordering(self):
        assert attribute_name_similarity("Capacity", "Capacity") == pytest.approx(1.0)
        related = attribute_name_similarity("Buffer Size", "Buffer Memory")
        unrelated = attribute_name_similarity("Buffer Size", "Optical Zoom")
        assert 0.0 <= unrelated < related <= 1.0

    def test_extended_feature_names(self):
        assert EXTENDED_FEATURE_NAMES == FEATURE_NAMES + (NAME_FEATURE,)

    def test_extractor_supports_name_feature(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        extractor = DistributionalFeatureExtractor(index, EXTENDED_FEATURE_NAMES)
        features = extractor.extract(
            CandidateTuple("Interface", "Int. Type", "m-1", "computing.hdd")
        )
        assert len(features) == 7
        name_value = features[-1]
        assert 0.0 < name_value < 1.0

    def test_learner_accepts_extended_features(self, hdd_catalog, hdd_offers, hdd_matches):
        learner = OfflineLearner(hdd_catalog, feature_names=EXTENDED_FEATURE_NAMES)
        result = learner.learn(hdd_offers, hdd_matches)
        assert result.num_candidates() == 20
        mapping = result.correspondences.mapping_for("m-1", "computing.hdd")
        assert mapping.get("RPM") == "Speed"
