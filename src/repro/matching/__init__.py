"""Offline Learning: attribute-correspondence creation (paper Section 3).

This package is the paper's primary contribution.  Given the catalog,
historical offers and their offer-to-product matches, it

1. builds value bags restricted to matched offer/product pairs at three
   grouping granularities (merchant+category, category, merchant) —
   :mod:`repro.matching.grouping`;
2. enumerates candidate tuples ⟨A_p, A_o, M, C⟩ —
   :mod:`repro.matching.candidates`;
3. computes the six distributional-similarity features of paper Table 1 —
   :mod:`repro.matching.features`;
4. constructs a training set automatically from name-identity candidates —
   :mod:`repro.matching.training`;
5. trains a logistic-regression classifier and scores every candidate,
   producing :class:`~repro.matching.correspondence.AttributeCorrespondence`
   objects consumed by schema reconciliation —
   :mod:`repro.matching.learner`.
"""

from repro._lazy import lazy_exports

# Resolved on first access: correspondences are read by persistence and
# reconciliation, which must not load the learner (and numpy with it).
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.matching.candidates": ("CandidateTuple", "generate_candidates"),
        "repro.matching.correspondence": (
            "AttributeCorrespondence",
            "CorrespondenceSet",
            "ScoredCandidate",
        ),
        "repro.matching.features": (
            "FEATURE_NAMES",
            "EXTENDED_FEATURE_NAMES",
            "NAME_FEATURE",
            "DistributionalFeatureExtractor",
            "attribute_name_similarity",
        ),
        "repro.matching.grouping": ("MatchedValueIndex",),
        "repro.matching.learner": ("OfflineLearner", "OfflineLearningResult"),
        "repro.matching.training": ("build_training_set",),
    },
)
