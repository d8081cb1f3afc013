"""Machine-learning substrate.

The paper's attribute-correspondence classifier is a logistic regression
(Section 3.2); the LSD-style baseline uses a multinomial Naive Bayes
matcher (Appendix C); DUMAS solves a bipartite weighted matching problem
over its merchant similarity matrix (Appendix C).  All three building
blocks are implemented here from first principles on top of numpy so that
the reproduction has no opaque ML dependencies.
"""

from repro._lazy import lazy_exports

# Resolved on first access: importing one metric must not load numpy.
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.learning.datasets": ("LabeledDataset",),
        "repro.learning.logistic": ("LogisticRegressionClassifier",),
        "repro.learning.matching_lp": ("max_weight_bipartite_matching",),
        "repro.learning.metrics": (
            "accuracy_score",
            "confusion_counts",
            "f1_score",
            "precision_score",
            "recall_score",
        ),
        "repro.learning.naive_bayes": ("MultinomialNaiveBayes",),
    },
)
