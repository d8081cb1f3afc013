"""Title-based category classification of incoming offers.

Paper Section 2: "To determine the category for a given offer, we use a
simple classifier, which given the title of the offer, returns its
category C under the catalog taxonomy."  The paper omits the classifier's
details and notes the pipeline is resilient to its errors; we use a
multinomial Naive Bayes over title unigrams and bigrams, trained from the
titles of historically matched offers (whose category is known through
their matched product) plus the catalog products' own titles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.learning.naive_bayes import MultinomialNaiveBayes
from repro.model.catalog import Catalog
from repro.model.matches import MatchStore
from repro.model.offers import Offer
from repro.text.memo import cached_tokenize_title
from repro.text.tokenize import sliding_ngrams

__all__ = ["TitleCategoryClassifier"]


class TitleCategoryClassifier:
    """Assign catalog categories to offers from their titles.

    Parameters
    ----------
    use_bigrams:
        Include title bigrams ("hard drive", "digital camera") as features
        in addition to unigrams.
    """

    def __init__(self, use_bigrams: bool = True) -> None:
        self.use_bigrams = use_bigrams
        self._model: Optional[MultinomialNaiveBayes] = None

    # -- features -----------------------------------------------------------

    def _features(self, title: str) -> List[str]:
        tokens = cached_tokenize_title(title)
        features = list(tokens)
        if self.use_bigrams:
            features.extend(sliding_ngrams(tokens, 2))
        return features

    def routing_features(self, title: str) -> List[str]:
        """The exact feature sequence :meth:`classify` scores for a title.

        Public so cluster coordinators can build cheap routing hints over
        the same feature space the real classifier uses.
        """
        return self._features(title)

    def routing_hints(self) -> Dict[str, str]:
        """feature -> dominant category, for cheap coordinator routing.

        A one-dict-lookup approximation of :meth:`classify`: the class
        where each feature was observed most often during training.  Used
        by hint-routing cluster coordinators, which only need a *guess*
        (misroutes are reconciled node-side), never by the engine itself.

        Raises
        ------
        RuntimeError
            If the classifier has not been trained.
        """
        if self._model is None:
            raise RuntimeError("category classifier has not been trained")
        return self._model.dominant_class_by_token()

    # -- training -------------------------------------------------------------

    def train_from_history(
        self,
        catalog: Catalog,
        historical_offers: Iterable[Offer],
        matches: MatchStore,
    ) -> "TitleCategoryClassifier":
        """Train from historically matched offers and catalog product titles.

        The category label of a historical offer is the category of its
        matched product — no manual labels are needed, in line with the
        paper's scalability requirements.
        """
        model = MultinomialNaiveBayes()
        num_documents = 0
        for offer in historical_offers:
            product_id = matches.product_for_offer(offer.offer_id)
            if product_id is None or not catalog.has_product(product_id):
                continue
            category_id = catalog.product(product_id).category_id
            model.update(category_id, self._features(offer.title))
            num_documents += 1
        for product in catalog.products():
            if product.title:
                model.update(product.category_id, self._features(product.title))
                num_documents += 1
        if num_documents == 0:
            raise ValueError(
                "no training documents: need matched offers or titled catalog products"
            )
        model.fit_finalize()
        self._model = model
        return self

    # -- inference ----------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        """Whether the classifier has been trained."""
        return self._model is not None

    def classify(self, title: str) -> str:
        """The most likely catalog category for an offer title.

        Raises
        ------
        RuntimeError
            If the classifier has not been trained.
        """
        if self._model is None:
            raise RuntimeError("category classifier has not been trained")
        return self._model.predict(self._features(title))

    def assign_categories(self, offers: Sequence[Offer]) -> List[Offer]:
        """Return copies of ``offers`` with ``category_id`` filled in.

        Offers that already carry a category keep it (the feed may provide
        a trusted category).
        """
        assigned: List[Offer] = []
        for offer in offers:
            if offer.category_id is not None:
                assigned.append(offer)
            else:
                assigned.append(offer.with_category(self.classify(offer.title)))
        return assigned

    def accuracy(
        self, offers: Sequence[Offer], true_categories: Dict[str, str]
    ) -> float:
        """Classification accuracy against a ``offer_id -> category`` map."""
        evaluated = 0
        correct = 0
        for offer in offers:
            truth = true_categories.get(offer.offer_id)
            if truth is None:
                continue
            evaluated += 1
            if self.classify(offer.title) == truth:
                correct += 1
        if evaluated == 0:
            return 0.0
        return correct / evaluated
