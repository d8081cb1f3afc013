"""Automated training-set construction (paper Section 3.2).

No manually labelled data is available at the scale of a product search
engine, so the training set is derived from *name-identity* candidate
tuples:

* ⟨A, A, M, C⟩ (merchant uses exactly the catalog attribute name)
  → positive example;
* ⟨A, B, M, C⟩ with A ≠ B, when ⟨A, A, M, C⟩ also exists
  → negative example (a merchant uses exactly one name per catalog
  attribute, so if it already uses A verbatim, B cannot also mean A).

Labels are only defined where a name identity exists; all remaining
candidates are unlabelled and are scored by the trained classifier.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.learning.datasets import LabeledDataset
from repro.matching.candidates import CandidateTuple
from repro.matching.features import DistributionalFeatureExtractor
from repro.text.memo import cached_normalize_attribute_name

__all__ = ["label_candidates", "build_training_set"]


def label_candidates(candidates: Sequence[CandidateTuple]) -> Dict[CandidateTuple, int]:
    """Assign automatic labels to the candidates where a name identity exists.

    Returns a mapping from candidate to label (1 or 0); candidates without
    an automatic label are absent from the mapping.
    """
    # Catalog attributes that have a name-identity candidate, per (M, C).
    identity_attributes: Dict[Tuple[str, str], Set[str]] = {}
    for candidate in candidates:
        if candidate.is_name_identity():
            key = (candidate.merchant_id, candidate.category_id)
            identity_attributes.setdefault(key, set()).add(
                cached_normalize_attribute_name(candidate.catalog_attribute)
            )

    labels: Dict[CandidateTuple, int] = {}
    for candidate in candidates:
        key = (candidate.merchant_id, candidate.category_id)
        catalog_name = cached_normalize_attribute_name(candidate.catalog_attribute)
        if candidate.is_name_identity():
            labels[candidate] = 1
        elif catalog_name in identity_attributes.get(key, set()):
            # The merchant already uses the exact catalog name for this
            # attribute, so a differently named attribute is a negative.
            labels[candidate] = 0
    return labels


def build_training_set(
    candidates: Sequence[CandidateTuple],
    extractor: DistributionalFeatureExtractor,
    max_examples: Optional[int] = None,
) -> LabeledDataset:
    """Build the automatically labelled training set.

    Parameters
    ----------
    candidates:
        All candidate tuples (labelled and unlabelled).
    extractor:
        Feature extractor supplying the classifier features.
    max_examples:
        Optional cap on the number of training examples (useful for quick
        experiments); positives and negatives are truncated proportionally.

    Returns
    -------
    LabeledDataset
        Feature vectors and labels; the originating candidate is stored as
        each example's identifier.
    """
    labels = label_candidates(candidates)
    labelled = [(candidate, label) for candidate, label in labels.items()]
    # Deterministic order: positives and negatives interleaved by key.
    labelled.sort(key=lambda item: item[0].key())

    if max_examples is not None and len(labelled) > max_examples:
        if max_examples < 2:
            raise ValueError(f"max_examples must be >= 2, got {max_examples}")
        positives = [item for item in labelled if item[1] == 1]
        negatives = [item for item in labelled if item[1] == 0]
        positive_share = len(positives) / len(labelled)
        keep_positive = max(1, int(round(max_examples * positive_share)))
        keep_negative = max(1, max_examples - keep_positive)
        labelled = positives[:keep_positive] + negatives[:keep_negative]

    dataset = LabeledDataset(feature_names=extractor.feature_names)
    for candidate, label in labelled:
        dataset.add(extractor.extract(candidate), label, identifier=candidate)
    return dataset
