"""Tests for the run-time pipeline components: classification, reconciliation,
clustering and value fusion."""

import pickle

import pytest
from conftest import reference_centroid_select
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.correspondence import AttributeCorrespondence, CorrespondenceSet
from repro.model.attributes import Specification
from repro.model.offers import Offer
from repro.runtime import SynthesisEngine
from repro.synthesis.category_classifier import TitleCategoryClassifier
from repro.synthesis.clustering import KeyAttributeClusterer, OfferCluster, TitleClusterer
from repro.synthesis.fusion import (
    CentroidValueFusion,
    MajorityValueFusion,
    MemoizedValueFusion,
    fuse_cluster,
)
from repro.synthesis.reconciliation import SchemaReconciler
from repro.text.normalize import normalize_attribute_name


def _offer(offer_id, merchant, category, pairs, title="an offer"):
    return Offer(
        offer_id=offer_id,
        merchant_id=merchant,
        title=title,
        category_id=category,
        specification=Specification(pairs),
    )


class TestCategoryClassifier:
    def test_train_and_classify_on_tiny_corpus(self, tiny_harness, tiny_corpus):
        classifier = tiny_harness.category_classifier
        truth = tiny_corpus.ground_truth.offer_true_category
        accuracy = classifier.accuracy(tiny_harness.unmatched_offers, truth)
        assert accuracy > 0.6

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            TitleCategoryClassifier().classify("Seagate Barracuda")

    def test_assign_categories_preserves_existing(self, tiny_harness):
        classifier = tiny_harness.category_classifier
        offer = _offer("o-x", "m", "preassigned.category", [], title="Seagate 500GB Hard Drive")
        assigned = classifier.assign_categories([offer])
        assert assigned[0].category_id == "preassigned.category"

    def test_training_requires_documents(self, hdd_catalog):
        from repro.model.matches import MatchStore

        empty_catalog_products = [p for p in hdd_catalog.products()]
        assert empty_catalog_products  # catalog has titled products, so training works
        classifier = TitleCategoryClassifier().train_from_history(
            hdd_catalog, [], MatchStore()
        )
        assert classifier.is_trained

    def test_pickle_round_trip_scores_identically(self, tiny_harness):
        # What a spawned cluster node receives: the counts, never the
        # scoring tables derived from them (those are rebuilt node-side).
        classifier = tiny_harness.category_classifier
        titles = [offer.title for offer in tiny_harness.unmatched_offers[:40]] + ["", "zzz qqq"]
        scored = [
            classifier._model.log_scores(classifier.routing_features(title)) for title in titles
        ]
        payload = pickle.dumps(classifier)
        restored = pickle.loads(payload)
        assert restored._model._tables is None
        assert [
            restored._model.log_scores(restored.routing_features(title)) for title in titles
        ] == scored
        assert [restored.classify(title) for title in titles] == [
            classifier.classify(title) for title in titles
        ]
        assert len(pickle.dumps(restored)) == len(payload)


class TestSchemaReconciler:
    @pytest.fixture
    def reconciler(self):
        correspondences = CorrespondenceSet(
            [
                AttributeCorrespondence("Capacity", "Hard Disk Size", "m-1", "hdd", 0.9),
                AttributeCorrespondence("Spindle Speed", "RPM", "m-1", "hdd", 0.8),
            ]
        )
        return SchemaReconciler(correspondences)

    def test_mapped_pairs_translated(self, reconciler):
        offer = _offer("o-1", "m-1", "hdd", [("Hard Disk Size", "500 GB"), ("RPM", "7200")])
        reconciled = reconciler.reconcile_offer(offer)
        assert reconciled.get("Capacity") == "500 GB"
        assert reconciled.get("Spindle Speed") == "7200"

    def test_unmapped_pairs_discarded(self, reconciler):
        offer = _offer("o-1", "m-1", "hdd", [("Warranty", "1 Year"), ("RPM", "7200")])
        reconciled = reconciler.reconcile_offer(offer)
        assert not reconciled.specification.has("Warranty")
        assert len(reconciled.specification) == 1

    def test_unknown_merchant_discards_everything(self, reconciler):
        offer = _offer("o-1", "other-merchant", "hdd", [("RPM", "7200")])
        assert len(reconciler.reconcile_offer(offer).specification) == 0

    def test_offer_without_category(self, reconciler):
        offer = Offer("o-1", "m-1", "title", specification=Specification([("RPM", "7200")]))
        assert len(reconciler.reconcile_offer(offer).specification) == 0

    def test_batch_stats(self, reconciler):
        offers = [
            _offer("o-1", "m-1", "hdd", [("RPM", "7200"), ("Junk", "x")]),
            _offer("o-2", "m-1", "hdd", [("Hard Disk Size", "500 GB")]),
        ]
        reconciled, stats = reconciler.reconcile_offers(offers)
        assert stats.offers_processed == 2
        assert stats.pairs_seen == 3
        assert stats.pairs_mapped == 2
        assert stats.pairs_discarded == 1
        assert len(reconciled) == 2


class TestClustering:
    def test_same_key_clusters_together(self, hdd_catalog):
        clusterer = KeyAttributeClusterer(hdd_catalog)
        offers = [
            _offer("o-1", "m-1", "computing.hdd", [("Model Part Number", "ABC-123")]),
            _offer("o-2", "m-2", "computing.hdd", [("Model Part Number", "abc123")]),
            _offer("o-3", "m-3", "computing.hdd", [("Model Part Number", "XYZ999")]),
        ]
        clusters = clusterer.cluster(offers)
        sizes = sorted(cluster.size() for cluster in clusters)
        assert sizes == [1, 2]

    def test_offers_without_key_dropped(self, hdd_catalog):
        clusterer = KeyAttributeClusterer(hdd_catalog)
        offers = [_offer("o-1", "m-1", "computing.hdd", [("Brand", "Seagate")])]
        assert clusterer.cluster(offers) == []

    def test_clusters_do_not_span_categories(self, hdd_catalog):
        clusterer = KeyAttributeClusterer(hdd_catalog)
        offers = [
            _offer("o-1", "m-1", "computing.hdd", [("Model Part Number", "SAME")]),
            _offer("o-2", "m-1", "cameras.digital", [("Model Part Number", "SAME")]),
        ]
        clusters = clusterer.cluster(offers)
        assert len(clusters) == 2

    def test_min_cluster_size(self, hdd_catalog):
        clusterer = KeyAttributeClusterer(hdd_catalog, min_cluster_size=2)
        offers = [
            _offer("o-1", "m-1", "computing.hdd", [("Model Part Number", "A1")]),
            _offer("o-2", "m-2", "computing.hdd", [("Model Part Number", "A1")]),
            _offer("o-3", "m-3", "computing.hdd", [("Model Part Number", "B2")]),
        ]
        clusters = clusterer.cluster(offers)
        assert len(clusters) == 1
        assert clusters[0].size() == 2

    def test_invalid_min_cluster_size(self, hdd_catalog):
        with pytest.raises(ValueError):
            KeyAttributeClusterer(hdd_catalog, min_cluster_size=0)

    def test_falls_back_to_upc_key(self, hdd_catalog):
        # The hdd schema declares MPN and no UPC, so the fallback list applies
        # only when a schema has no keys; simulate with an uncatalogued category.
        clusterer = KeyAttributeClusterer(hdd_catalog)
        offers = [
            _offer("o-1", "m-1", "unknown.category", [("UPC", "0123456789")]),
            _offer("o-2", "m-2", "unknown.category", [("UPC", "0123456789")]),
        ]
        clusters = clusterer.cluster(offers)
        assert len(clusters) == 1
        assert clusters[0].size() == 2

    def test_title_clusterer_groups_similar_titles(self):
        clusterer = TitleClusterer(similarity_threshold=0.5)
        offers = [
            _offer("o-1", "m-1", "hdd", [], title="Seagate Barracuda 500GB SATA"),
            _offer("o-2", "m-2", "hdd", [], title="Seagate Barracuda 500GB SATA Hard Drive"),
            _offer("o-3", "m-3", "hdd", [], title="Canon EOS Rebel Camera"),
        ]
        clusters = clusterer.cluster(offers)
        assert len(clusters) == 2

    def test_title_clusterer_invalid_threshold(self):
        with pytest.raises(ValueError):
            TitleClusterer(similarity_threshold=0.0)


class TestValueFusion:
    def test_majority_voting_single_token(self):
        fusion = MajorityValueFusion()
        assert fusion.select(["1024", "1024", "1024", "1024", "2048"]) == "1024"

    def test_majority_voting_empty(self):
        assert MajorityValueFusion().select([]) is None

    def test_centroid_fusion_paper_appendix_example(self):
        """Appendix A: 'Microsoft Windows Vista' is closest to the centroid."""
        fusion = CentroidValueFusion()
        values = ["Windows Vista", "Microsoft Windows Vista", "Microsoft Vista"]
        assert fusion.select(values) == "Microsoft Windows Vista"

    def test_centroid_fusion_majority_still_wins_for_single_tokens(self):
        fusion = CentroidValueFusion()
        assert fusion.select(["1024", "1024", "2048"]) == "1024"

    def test_centroid_fusion_single_value(self):
        assert CentroidValueFusion().select(["only"]) == "only"

    def test_centroid_fusion_empty(self):
        assert CentroidValueFusion().select([]) is None

    def test_centroid_fusion_deterministic_on_ties(self):
        fusion = CentroidValueFusion()
        first = fusion.select(["alpha beta", "beta alpha"])
        second = fusion.select(["beta alpha", "alpha beta"])
        assert first == second

    def test_fuse_cluster_respects_schema_attributes(self):
        cluster = OfferCluster(
            category_id="hdd",
            key="mpn:x",
            offers=[
                _offer("o-1", "m-1", "hdd", [("Capacity", "500 GB"), ("Junk", "zzz")]),
                _offer("o-2", "m-2", "hdd", [("Capacity", "500GB")]),
            ],
        )
        fused = fuse_cluster(cluster, ["Capacity", "Spindle Speed"])
        assert fused.has("Capacity")
        assert not fused.has("Junk")
        assert not fused.has("Spindle Speed")


# --- the one-pass gather equals the per-attribute get_all sweep ---------------

# Schema names and the spellings merchants (or a sloppy reconciler) might
# deliver them in: same name repeated, case/punctuation/whitespace variants.
_SCHEMA = ["Capacity", "Spindle Speed", "Brand", "Mfr. Part #", "Never Carried"]
_SPELLINGS = st.sampled_from(
    [
        "Capacity",
        "capacity",
        "CAPACITY.",
        "Spindle Speed",
        "spindle-speed",
        "Spindle   Speed",
        "Brand",
        "brand!",
        "Mfr. Part #",
        "mfr part",
        "Junk",
        "",
    ]
)
_VALUES = st.sampled_from(
    ["500 GB", "500GB", "7200", "7200 rpm", "Seagate", "seagate technology", "Black", "", "-"]
)
_CLUSTER_OFFERS = st.lists(st.lists(st.tuples(_SPELLINGS, _VALUES), max_size=6), max_size=5)


class _RecordingFusion:
    """Delegates to a real strategy and keeps every value list it was given."""

    def __init__(self, base):
        self.base = base
        self.seen = []

    def select(self, values):
        self.seen.append(list(values))
        return self.base.select(values)


def _reference_fuse(cluster, attribute_names, fusion):
    """The gather written against the uncached normaliser, attribute by attribute."""
    fused = Specification()
    for attribute_name in attribute_names:
        wanted = normalize_attribute_name(attribute_name)
        values = [
            pair.value
            for offer in cluster.offers
            for pair in offer.specification
            if normalize_attribute_name(pair.name) == wanted
        ]
        representative = fusion.select(values)
        if representative is not None:
            fused.add(attribute_name, representative)
    return fused


class TestFuseClusterGather:
    @pytest.mark.parametrize("make_fusion", [CentroidValueFusion, MemoizedValueFusion])
    @given(offer_pairs=_CLUSTER_OFFERS, schema=st.permutations(_SCHEMA + ["capacity"]))
    @settings(max_examples=120, deadline=None)
    def test_equals_per_attribute_sweep(self, make_fusion, offer_pairs, schema):
        cluster = OfferCluster(
            category_id="hdd",
            key="mpn:x",
            offers=[
                _offer(f"o-{index}", "m-1", "hdd", pairs)
                for index, pairs in enumerate(offer_pairs)
            ],
        )
        expected_fusion = _RecordingFusion(make_fusion())
        expected = _reference_fuse(cluster, schema, expected_fusion)
        actual_fusion = _RecordingFusion(make_fusion())
        actual = fuse_cluster(cluster, schema, fusion=actual_fusion)
        assert actual == expected
        # Same value lists in the same order: the memo's keys are unchanged.
        assert actual_fusion.seen == expected_fusion.seen

    def test_multi_valued_and_variant_names_keep_offer_then_pair_order(self):
        cluster = OfferCluster(
            category_id="hdd",
            key="mpn:x",
            offers=[
                _offer("o-1", "m-1", "hdd", [("Color", "Black"), ("COLOR.", "Silver")]),
                _offer("o-2", "m-2", "hdd", [("Brand", "Seagate"), ("color", "Black")]),
            ],
        )
        fusion = _RecordingFusion(CentroidValueFusion())
        fused = fuse_cluster(cluster, ["Color", "Brand", "Capacity"], fusion=fusion)
        assert fusion.seen == [["Black", "Silver", "Black"], ["Seagate"], []]
        assert fused.pairs() == Specification([("Color", "Black"), ("Brand", "Seagate")]).pairs()


# --- the centroid kernel equals the binary-vector definition -----------------

# Token-bearing values, values with no token at all, raw spellings that
# normalise equal (the tie-break), and values repeating a term.
_FUSION_VALUES = st.one_of(
    st.sampled_from(
        [
            "Windows Vista",
            "Microsoft Windows Vista",
            "Microsoft Vista",
            "500 GB",
            "500GB",
            "500 gb",
            "7200 rpm",
            "7200",
            "Black",
            "black",
            "BLACK.",
            "alpha beta",
            "beta alpha",
            "a a b",
            "",
            "-",
            "  ",
        ]
    ),
    st.text(alphabet="ab 5G-.", max_size=8),
)


@st.composite
def _value_lists(draw):
    """Candidate lists: free-form, with duplicates shuffled in, or one value repeated."""
    shape = draw(st.sampled_from(["free", "duplicates", "single"]))
    if shape == "single":
        return [draw(_FUSION_VALUES)] * draw(st.integers(min_value=1, max_value=6))
    values = draw(st.lists(_FUSION_VALUES, max_size=10))
    if shape == "duplicates" and values:
        values = values + draw(st.lists(st.sampled_from(values), min_size=1, max_size=6))
        values = draw(st.permutations(values))
    return list(values)


class TestCentroidKernelEqualsTheVectorDefinition:
    @given(values=_value_lists())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_the_binary_vector_reference(self, values):
        assert CentroidValueFusion().select(values) == reference_centroid_select(values)

    def test_full_ties_go_to_the_first_listed_value(self):
        fusion = CentroidValueFusion()
        assert fusion.select(["Black", "black", "white"]) == "Black"
        assert fusion.select(["black", "Black", "white"]) == "black"
        # Same terms, different normalised text: the lexicographic key decides.
        assert fusion.select(["BLACK.", "Black"]) == "Black"

    def test_token_less_values_are_not_candidates(self):
        fusion = CentroidValueFusion()
        assert fusion.select(["", "-", "  "]) is None
        assert fusion.select(["-", "500 GB", ""]) == "500 GB"

    def test_every_list_the_tiny_stream_selects_from(self, tiny_harness):
        recording = _RecordingFusion(CentroidValueFusion())
        engine = SynthesisEngine(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
            fusion=recording,
        )
        offers = tiny_harness.unmatched_offers
        for start in range(0, len(offers), 25):
            engine.ingest(offers[start : start + 25])
        assert len(recording.seen) > 100
        kernel = CentroidValueFusion()
        for values in recording.seen:
            assert kernel.select(values) == reference_centroid_select(values)
