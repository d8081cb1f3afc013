"""Tests for match-aware value bags, candidates and the six distributional features."""

import pytest

from repro.matching.candidates import CandidateTuple, generate_candidates
from repro.matching.features import FEATURE_NAMES, DistributionalFeatureExtractor
from repro.matching.grouping import C, M, MC, MatchedValueIndex


class TestCandidateGeneration:
    def test_candidates_cover_schema_times_merchant_attributes(
        self, hdd_catalog, hdd_offers, hdd_matches
    ):
        candidates = generate_candidates(hdd_catalog, hdd_offers, hdd_matches)
        catalog_attributes = {candidate.catalog_attribute for candidate in candidates}
        offer_attributes = {candidate.offer_attribute for candidate in candidates}
        assert catalog_attributes == {
            "Model Part Number",
            "Brand",
            "Model",
            "Speed",
            "Interface",
        }
        assert offer_attributes == {"Mfr. Part #", "Product Description", "RPM", "Int. Type"}
        # 5 catalog attributes x 4 merchant attributes for one (merchant, category).
        assert len(candidates) == 20

    def test_unmatched_offers_ignored(self, hdd_catalog, hdd_offers, hdd_matches):
        from repro.model.offers import Offer
        from repro.model.attributes import Specification

        extra = Offer(
            "o-unmatched",
            "m-1",
            "Mystery product",
            specification=Specification([("Mystery Attr", "42")]),
        )
        candidates = generate_candidates(hdd_catalog, list(hdd_offers) + [extra], hdd_matches)
        assert all(c.offer_attribute != "Mystery Attr" for c in candidates)

    def test_category_restriction(self, hdd_catalog, hdd_offers, hdd_matches):
        assert (
            generate_candidates(
                hdd_catalog, hdd_offers, hdd_matches, category_ids=["cameras.digital"]
            )
            == []
        )

    def test_name_identity_detection(self):
        identity = CandidateTuple("Brand", "brand", "m", "c")
        assert identity.is_name_identity()
        different = CandidateTuple("Brand", "Manufacturer", "m", "c")
        assert not different.is_name_identity()

    def test_candidates_deduplicated(self, hdd_catalog, hdd_offers, hdd_matches):
        candidates = generate_candidates(hdd_catalog, hdd_offers, hdd_matches)
        keys = [candidate.key() for candidate in candidates]
        assert len(keys) == len(set(keys))


class TestMatchedValueIndex:
    def test_speed_rpm_bags_identical(self, hdd_catalog, hdd_offers, hdd_matches):
        """Paper Figure 5(b): after match filtering, Speed and RPM have the same values."""
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        speed = index.product_bag(MC, "m-1", "computing.hdd", "Speed")
        rpm = index.offer_bag(MC, "m-1", "computing.hdd", "RPM")
        assert speed is not None and rpm is not None
        assert speed.counts() == rpm.counts()

    def test_match_filtering_excludes_unmatched_product(self, hdd_catalog, hdd_offers, hdd_matches):
        """Product p-5 (10000 rpm, no offer) must not contribute to matched bags."""
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        speed = index.product_bag(MC, "m-1", "computing.hdd", "Speed")
        assert "10000" not in speed.term_set()

    def test_no_match_variant_includes_all_products(self, hdd_catalog, hdd_offers, hdd_matches):
        offers = [offer.with_category("computing.hdd") for offer in hdd_offers]
        index = MatchedValueIndex(hdd_catalog, offers, hdd_matches, use_matches=False)
        speed = index.product_bag(C, "m-1", "computing.hdd", "Speed")
        assert "10000" in speed.term_set()

    def test_grouping_keys(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        assert index.offer_bag(C, "ignored-merchant", "computing.hdd", "RPM") is not None
        assert index.offer_bag(M, "m-1", "ignored-category", "RPM") is not None
        assert index.offer_bag(MC, "other-merchant", "computing.hdd", "RPM") is None

    def test_unknown_grouping_raises(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        with pytest.raises(ValueError):
            index.offer_bag("bogus", "m-1", "computing.hdd", "RPM")



class TestDistributionalFeatures:
    def test_feature_vector_length_and_order(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        extractor = DistributionalFeatureExtractor(index)
        assert extractor.feature_names == FEATURE_NAMES
        candidate = CandidateTuple("Speed", "RPM", "m-1", "computing.hdd")
        features = extractor.extract(candidate)
        assert len(features) == 6
        assert all(0.0 <= value <= 1.0 for value in features)

    def test_correct_pair_scores_higher_than_wrong_pair(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        extractor = DistributionalFeatureExtractor(index)
        speed_rpm = extractor.extract(CandidateTuple("Speed", "RPM", "m-1", "computing.hdd"))
        speed_int = extractor.extract(CandidateTuple("Speed", "Int. Type", "m-1", "computing.hdd"))
        assert sum(speed_rpm) > sum(speed_int)

    def test_interface_closer_to_int_type_than_rpm(self, hdd_catalog, hdd_offers, hdd_matches):
        """The paper's Figure 5(d) comparison expressed through the JS-MC feature."""
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        extractor = DistributionalFeatureExtractor(index, ("JS-MC",))
        interface_int = extractor.extract(
            CandidateTuple("Interface", "Int. Type", "m-1", "computing.hdd")
        )[0]
        interface_rpm = extractor.extract(
            CandidateTuple("Interface", "RPM", "m-1", "computing.hdd")
        )[0]
        assert interface_int > interface_rpm

    def test_missing_bags_give_zero(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        extractor = DistributionalFeatureExtractor(index)
        features = extractor.extract(
            CandidateTuple("Speed", "Nonexistent Attribute", "m-1", "computing.hdd")
        )
        assert features == [0.0] * 6

    def test_single_feature_subset(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        extractor = DistributionalFeatureExtractor(index, ("Jaccard-MC",))
        features = extractor.extract(CandidateTuple("Speed", "RPM", "m-1", "computing.hdd"))
        assert len(features) == 1

    def test_unknown_feature_rejected(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        with pytest.raises(ValueError):
            DistributionalFeatureExtractor(index, ("Bogus",))
        with pytest.raises(ValueError):
            DistributionalFeatureExtractor(index, ())

    def test_extract_many(self, hdd_catalog, hdd_offers, hdd_matches):
        index = MatchedValueIndex(hdd_catalog, hdd_offers, hdd_matches)
        extractor = DistributionalFeatureExtractor(index)
        candidates = [
            CandidateTuple("Speed", "RPM", "m-1", "computing.hdd"),
            CandidateTuple("Interface", "Int. Type", "m-1", "computing.hdd"),
        ]
        matrix = extractor.extract_many(candidates)
        assert len(matrix) == 2
        assert all(len(row) == 6 for row in matrix)
