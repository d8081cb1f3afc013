"""Run-Time Offer Processing Pipeline (paper Section 4, Figure 4 right half).

Given incoming offers that could not be matched to any existing catalog
product, the pipeline

1. assigns each offer to a catalog category from its title
   (:mod:`repro.synthesis.category_classifier`);
2. extracts the offer specification from the merchant landing page
   (:mod:`repro.extraction`);
3. translates merchant attribute names into catalog attribute names and
   drops unmapped pairs (:mod:`repro.synthesis.reconciliation`);
4. clusters reconciled offers by their key attributes (MPN/UPC) so that
   each cluster corresponds to one product
   (:mod:`repro.synthesis.clustering`);
5. fuses each cluster into a single product specification with term-level
   generalised majority voting (:mod:`repro.synthesis.fusion`).

:class:`~repro.synthesis.pipeline.ProductSynthesisPipeline` wires the five
steps together.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the store reads clusters and reconciliation
# stats, which must not load the classifier, extraction or fusion.
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.synthesis.category_classifier": ("TitleCategoryClassifier",),
        "repro.synthesis.clustering": ("KeyAttributeClusterer", "TitleClusterer", "OfferCluster"),
        "repro.synthesis.fusion": ("CentroidValueFusion", "MajorityValueFusion"),
        "repro.synthesis.pipeline": ("ProductSynthesisPipeline", "SynthesisResult"),
        "repro.synthesis.reconciliation": ("SchemaReconciler",),
    },
)
