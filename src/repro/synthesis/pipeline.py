"""The end-to-end Run-Time Offer Processing Pipeline (paper Figure 4).

:class:`ProductSynthesisPipeline` chains category classification, web-page
attribute extraction, schema reconciliation, key-attribute clustering and
value fusion to turn unmatched offers into new structured products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.extraction.extractor import ExtractionResult, WebPageAttributeExtractor
from repro.matching.correspondence import CorrespondenceSet
from repro.model.catalog import Catalog
from repro.model.offers import Offer
from repro.model.products import Product, stable_product_id
from repro.synthesis.category_classifier import TitleCategoryClassifier
from repro.synthesis.clustering import KeyAttributeClusterer, OfferCluster
from repro.synthesis.fusion import CentroidValueFusion, fuse_cluster
from repro.synthesis.reconciliation import ReconciliationStats, SchemaReconciler

__all__ = [
    "SynthesisResult",
    "ProductSynthesisPipeline",
    "stable_product_id",
    "build_product_from_cluster",
]


def build_product_from_cluster(
    cluster: OfferCluster,
    attribute_names: Sequence[str],
    fusion: CentroidValueFusion,
) -> Optional[Product]:
    """Fuse one cluster into a product, or ``None`` when nothing survives.

    Shared by the one-shot pipeline and the streaming engine so both
    construct byte-identical products for the same cluster.
    """
    specification = fuse_cluster(cluster, attribute_names, fusion=fusion)
    if len(specification) == 0:
        return None
    # The shortest title tends to be the cleanest merchant phrasing.
    titles = [offer.title for offer in cluster.offers if offer.title]
    title = min(titles, key=len) if titles else ""
    return Product(
        product_id=stable_product_id(cluster.category_id, cluster.key),
        category_id=cluster.category_id,
        title=title,
        specification=specification,
        source_offer_ids=tuple(cluster.offer_ids()),
    )


@dataclass
class SynthesisResult:
    """The output of one pipeline run."""

    products: List[Product]
    clusters: List[OfferCluster]
    reconciliation_stats: ReconciliationStats
    extraction_stats: Optional[ExtractionResult] = None
    #: offer_id -> category assigned by the classifier (or carried in).
    assigned_categories: Dict[str, str] = field(default_factory=dict)

    def num_products(self) -> int:
        """Number of synthesized products."""
        return len(self.products)

    def num_attributes(self) -> int:
        """Total number of synthesized attribute-value pairs."""
        return sum(product.num_attributes() for product in self.products)

    def average_attributes_per_product(self) -> float:
        """Mean number of attributes per synthesized product."""
        if not self.products:
            return 0.0
        return self.num_attributes() / len(self.products)


class ProductSynthesisPipeline:
    """Synthesize new catalog products from unmatched merchant offers.

    Parameters
    ----------
    catalog:
        The product catalog (schemas, taxonomy; synthesized products are
        *not* automatically added to it).
    correspondences:
        The attribute correspondences produced by the Offline Learning
        phase.
    extractor:
        Web-page attribute extractor; optional when the offers already
        carry extracted specifications.
    category_classifier:
        Title classifier used for offers without a category; optional when
        every offer already has ``category_id`` set.
    clusterer:
        Offer clustering strategy (defaults to key-attribute clustering
        keeping every cluster; a clusterer's ``min_cluster_size`` is the
        minimum number of offers a cluster needs to yield a product).
    fusion:
        Value fusion strategy (defaults to centroid voting).
    """

    def __init__(
        self,
        catalog: Catalog,
        correspondences: CorrespondenceSet,
        extractor: Optional[WebPageAttributeExtractor] = None,
        category_classifier: Optional[TitleCategoryClassifier] = None,
        clusterer: Optional[KeyAttributeClusterer] = None,
        fusion: Optional[CentroidValueFusion] = None,
    ) -> None:
        self.catalog = catalog
        self.correspondences = correspondences
        self.extractor = extractor
        self.category_classifier = category_classifier
        self.clusterer = clusterer or KeyAttributeClusterer(catalog)
        self.fusion = fusion or CentroidValueFusion()
        self.reconciler = SchemaReconciler(correspondences)

    # -- pipeline stages -------------------------------------------------------

    def _assign_categories(self, offers: Sequence[Offer]) -> List[Offer]:
        needs_classification = [offer for offer in offers if offer.category_id is None]
        if not needs_classification:
            return list(offers)
        if self.category_classifier is None or not self.category_classifier.is_trained:
            raise ValueError(
                "offers without a category require a trained category classifier"
            )
        return self.category_classifier.assign_categories(list(offers))

    def _extract_specifications(
        self, offers: Sequence[Offer]
    ) -> "tuple[List[Offer], Optional[ExtractionResult]]":
        """Extract a specification for each offer that carries none.

        Strictly per offer: an offer that carries a specification keeps it
        verbatim, and the statistics count only the offers extracted.
        """
        missing = [offer for offer in offers if len(offer.specification) == 0]
        if self.extractor is None or not missing:
            return list(offers), None
        extracted, stats = self.extractor.extract_offers(missing)
        filled = iter(extracted)
        merged = [next(filled) if len(offer.specification) == 0 else offer for offer in offers]
        return merged, stats

    # -- main entry point ----------------------------------------------------------

    def synthesize(self, offers: Sequence[Offer]) -> SynthesisResult:
        """Run the full pipeline over a batch of unmatched offers."""
        categorised = self._assign_categories(offers)
        extracted, extraction_stats = self._extract_specifications(categorised)
        reconciled, reconciliation_stats = self.reconciler.reconcile_offers(extracted)
        clusters = self.clusterer.cluster(reconciled)

        products: List[Product] = []
        for cluster in clusters:
            product = build_product_from_cluster(
                cluster, self.attribute_names_for(cluster), self.fusion
            )
            if product is not None:
                products.append(product)

        assigned = {
            offer.offer_id: offer.category_id
            for offer in categorised
            if offer.category_id is not None
        }
        return SynthesisResult(
            products=products,
            clusters=clusters,
            reconciliation_stats=reconciliation_stats,
            extraction_stats=extraction_stats,
            assigned_categories=assigned,
        )

    # -- helpers ---------------------------------------------------------------------

    def attribute_names_for(self, cluster: OfferCluster) -> List[str]:
        """The catalog attributes to fuse for a cluster.

        The category schema when one exists; otherwise the attribute names
        observed across the cluster's offers, in first-seen order.
        """
        if self.catalog.has_schema(cluster.category_id):
            return self.catalog.schema_for(cluster.category_id).attribute_names()
        return self._observed_names(cluster)

    @staticmethod
    def _observed_names(cluster: OfferCluster) -> List[str]:
        names: List[str] = []
        seen = set()
        for offer in cluster.offers:
            for name in offer.attribute_names():
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return names
