"""The Offline Learning phase end-to-end (paper Figure 4, left half).

:class:`OfflineLearner` wires together web-page attribute extraction for
historical offers, the match-aware value index, candidate generation, the
automatically constructed training set, the logistic-regression
classifier, and finally emits the scored candidates and the accepted
:class:`~repro.matching.correspondence.CorrespondenceSet` used by schema
reconciliation at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.extraction.extractor import WebPageAttributeExtractor
from repro.learning.datasets import LabeledDataset
from repro.learning.logistic import LogisticRegressionClassifier
from repro.matching.candidates import CandidateTuple, generate_candidates
from repro.matching.correspondence import (
    AttributeCorrespondence,
    CorrespondenceSet,
    ScoredCandidate,
)
from repro.matching.features import FEATURE_NAMES, DistributionalFeatureExtractor
from repro.matching.grouping import MatchedValueIndex
from repro.matching.training import build_training_set
from repro.model.catalog import Catalog
from repro.model.matches import MatchStore
from repro.model.offers import Offer

__all__ = ["OfflineLearningResult", "OfflineLearner"]


@dataclass
class OfflineLearningResult:
    """Everything produced by one offline-learning run."""

    #: Every candidate with its classifier score.
    scored_candidates: List[ScoredCandidate]
    #: Correspondences accepted at the configured threshold.
    correspondences: CorrespondenceSet
    #: The automatically constructed training set.
    training_set: LabeledDataset
    #: The trained classifier (``None`` when the training set was degenerate).
    classifier: Optional[LogisticRegressionClassifier]
    #: The value index (kept for inspection and ablations).
    index: MatchedValueIndex

    def num_candidates(self) -> int:
        """Number of candidate tuples scored."""
        return len(self.scored_candidates)

    def num_accepted(self) -> int:
        """Number of accepted correspondences."""
        return len(self.correspondences)

    def candidates_above(self, threshold: float) -> List[ScoredCandidate]:
        """Scored candidates with score strictly greater than ``threshold``."""
        return [sc for sc in self.scored_candidates if sc.score > threshold]


class OfflineLearner:
    """Learn attribute correspondences from historical offer-product matches.

    Parameters
    ----------
    catalog:
        The product catalog.
    acceptance_threshold:
        Classifier score above which a candidate becomes a correspondence.
    feature_names:
        Features to use (defaults to all six of paper Table 1); the
        single-feature baselines of Figure 6 pass a single name.
    use_matches:
        When false, value bags ignore the historical matches (the Figure 7
        baseline).
    include_identity_correspondences:
        Whether name-identity candidates are always accepted as
        correspondences (the paper's first training-set assumption).
    max_training_examples:
        Optional cap on the automatically labelled training set size.
    """

    def __init__(
        self,
        catalog: Catalog,
        acceptance_threshold: float = 0.5,
        feature_names: Sequence[str] = FEATURE_NAMES,
        use_matches: bool = True,
        include_identity_correspondences: bool = True,
        max_training_examples: Optional[int] = None,
        classifier_factory=None,
    ) -> None:
        if not 0.0 <= acceptance_threshold <= 1.0:
            raise ValueError(
                f"acceptance_threshold must be within [0, 1], got {acceptance_threshold}"
            )
        self.catalog = catalog
        self.acceptance_threshold = acceptance_threshold
        self.feature_names = tuple(feature_names)
        self.use_matches = use_matches
        self.include_identity_correspondences = include_identity_correspondences
        self.max_training_examples = max_training_examples
        self._classifier_factory = classifier_factory or LogisticRegressionClassifier

    # -- main entry point --------------------------------------------------------

    def learn(
        self,
        historical_offers: Sequence[Offer],
        matches: MatchStore,
        extractor: Optional[WebPageAttributeExtractor] = None,
        category_ids: Sequence[str] = (),
    ) -> OfflineLearningResult:
        """Run the full offline-learning phase.

        Parameters
        ----------
        historical_offers:
            Offers with historical matches.  If ``extractor`` is given and
            an offer has an empty specification, the specification is
            extracted from its landing page first.
        matches:
            The historical offer-to-product matches.
        extractor:
            Optional web-page attribute extractor used to fill in missing
            offer specifications.
        category_ids:
            Optional restriction to a subset of categories.
        """
        offers = self._ensure_specifications(historical_offers, extractor)
        index = MatchedValueIndex(
            self.catalog, offers, matches, use_matches=self.use_matches
        )
        feature_extractor = DistributionalFeatureExtractor(index, self.feature_names)
        candidates = generate_candidates(
            self.catalog, offers, matches, require_match=True, category_ids=category_ids
        )
        training_set = build_training_set(
            candidates, feature_extractor, max_examples=self.max_training_examples
        )
        classifier = self._train(training_set)
        scored = self._score_candidates(candidates, feature_extractor, training_set, classifier)
        correspondences = self._accept(scored)
        return OfflineLearningResult(
            scored_candidates=scored,
            correspondences=correspondences,
            training_set=training_set,
            classifier=classifier,
            index=index,
        )

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _ensure_specifications(
        offers: Sequence[Offer], extractor: Optional[WebPageAttributeExtractor]
    ) -> List[Offer]:
        if extractor is None:
            return list(offers)
        enriched: List[Offer] = []
        for offer in offers:
            if len(offer.specification) == 0:
                enriched.append(extractor.extract_offer(offer))
            else:
                enriched.append(offer)
        return enriched

    def _train(self, training_set: LabeledDataset) -> Optional[LogisticRegressionClassifier]:
        if len(training_set) == 0 or training_set.is_degenerate():
            return None
        classifier = self._classifier_factory()
        classifier.fit_dataset(training_set)
        return classifier

    def _score_candidates(
        self,
        candidates: Sequence[CandidateTuple],
        feature_extractor: DistributionalFeatureExtractor,
        training_set: LabeledDataset,
        classifier: Optional[LogisticRegressionClassifier],
    ) -> List[ScoredCandidate]:
        if not candidates:
            return []
        # Training candidates keep the vectors the training set already holds.
        known = dict(zip(training_set.identifiers, training_set.examples))
        vectors = [known.get(each) or feature_extractor.extract(each) for each in candidates]
        features = np.asarray(vectors, dtype=float)
        if classifier is not None:
            scores = classifier.predict_proba(features)
        else:
            # Degenerate training set: fall back to the mean of the features,
            # which keeps the pipeline usable on tiny corpora.
            scores = features.mean(axis=1)
        return [
            ScoredCandidate(candidate=candidate, score=float(score))
            for candidate, score in zip(candidates, scores)
        ]

    def _accept(self, scored: Sequence[ScoredCandidate]) -> CorrespondenceSet:
        correspondences = CorrespondenceSet()
        for scored_candidate in scored:
            candidate = scored_candidate.candidate
            if self.include_identity_correspondences and candidate.is_name_identity():
                correspondences.add(AttributeCorrespondence.from_candidate(candidate, 1.0))
                continue
            if scored_candidate.score > self.acceptance_threshold:
                correspondences.add(
                    AttributeCorrespondence.from_candidate(candidate, scored_candidate.score)
                )
        return correspondences
