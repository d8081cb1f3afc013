"""Multinomial Naive Bayes over bags of words.

Two components of the reproduction use this classifier:

* the **category classifier** that maps an incoming offer title to a
  catalog category (paper Section 2 mentions "a simple classifier" whose
  details are omitted; a multinomial NB over title tokens is the standard
  choice and is resilient enough for the pipeline, which only requires a
  sufficient number of representative offers per product);
* the **LSD-style instance-based Naive Bayes matcher** baseline
  (paper Appendix C) reuses the same estimator with attribute names as
  classes and catalog values as training documents.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["MultinomialNaiveBayes"]

#: One class's scoring table: (log prior, token -> log likelihood, the
#: log likelihood of a token the class never saw).
_ClassTable = Tuple[float, Dict[str, float], float]


class MultinomialNaiveBayes:
    """Multinomial Naive Bayes with Laplace (add-alpha) smoothing.

    Documents are token sequences; classes are arbitrary hashable labels.

    Parameters
    ----------
    alpha:
        Additive smoothing constant (1.0 = classic Laplace smoothing).

    Examples
    --------
    >>> nb = MultinomialNaiveBayes()
    >>> nb.update("hdd", ["seagate", "barracuda", "7200", "rpm"])
    >>> nb.update("camera", ["canon", "eos", "megapixels"])
    >>> nb.fit_finalize()
    >>> nb.predict(["seagate", "7200"])
    'hdd'
    """

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError(f"smoothing constant alpha must be positive, got {alpha}")
        self.alpha = alpha
        self._token_counts: Dict[str, Counter] = defaultdict(Counter)
        self._class_token_totals: Dict[str, int] = defaultdict(int)
        self._class_document_counts: Dict[str, int] = defaultdict(int)
        self._vocabulary: set = set()
        self._total_documents = 0
        self._finalized = False
        # Derived from the counts above: dropped by every update(), rebuilt
        # on the next read, never pickled.
        self._tables: Optional[Dict[str, _ClassTable]] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_tables"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tables = None

    # -- training ---------------------------------------------------------

    def update(self, label: str, tokens: Sequence[str]) -> None:
        """Add one training document for class ``label``."""
        self._finalized = False
        self._tables = None
        self._class_document_counts[label] += 1
        self._total_documents += 1
        counts = self._token_counts[label]
        for token in tokens:
            counts[token] += 1
            self._class_token_totals[label] += 1
            self._vocabulary.add(token)

    def fit(self, documents: Iterable[Tuple[str, Sequence[str]]]) -> "MultinomialNaiveBayes":
        """Train from an iterable of ``(label, tokens)`` pairs."""
        for label, tokens in documents:
            self.update(label, tokens)
        self.fit_finalize()
        return self

    def fit_finalize(self) -> None:
        """Mark training as complete and build the scoring tables.

        Calling predict before any training data was seen raises; calling
        it after :meth:`update` without :meth:`fit_finalize` is allowed (the
        flag only exists to catch obviously empty models early, and the
        tables are rebuilt by the first read after an update).
        """
        if not self._class_document_counts:
            raise RuntimeError("cannot finalise a Naive Bayes model with no training data")
        self._finalized = True
        self._class_tables()

    def _class_tables(self) -> Dict[str, _ClassTable]:
        """The per-class scoring tables, in training order of the classes.

        Every entry is the float the smoothed estimate evaluates to for
        that (class, token), so scoring is a dictionary lookup per token
        and sums exactly the terms it always summed.
        """
        tables = self._tables
        if tables is None:
            vocabulary = max(self.vocabulary_size, 1)
            tables = {}
            for label, documents in self._class_document_counts.items():
                denominator = self._class_token_totals.get(label, 0) + self.alpha * vocabulary
                tables[label] = (
                    math.log(documents / self._total_documents),
                    {
                        token: math.log((count + self.alpha) / denominator)
                        for token, count in self._token_counts[label].items()
                    },
                    math.log(self.alpha / denominator),
                )
            self._tables = tables
        return tables

    # -- inference --------------------------------------------------------

    @property
    def classes(self) -> List[str]:
        """All class labels seen during training."""
        return list(self._class_document_counts.keys())

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct tokens seen during training."""
        return len(self._vocabulary)

    def log_scores(self, tokens: Sequence[str]) -> Dict[str, float]:
        """Unnormalised log posterior for every class."""
        if not self._class_document_counts:
            raise RuntimeError("model has no training data")
        scores: Dict[str, float] = {}
        for label, (score, likelihoods, unseen) in self._class_tables().items():
            # An explicit left-to-right loop: sum() compensates its float
            # additions on newer interpreters, which would move the last ulp.
            for token in tokens:
                score += likelihoods.get(token, unseen)
            scores[label] = score
        return scores

    def posterior(self, tokens: Sequence[str]) -> Dict[str, float]:
        """Normalised posterior P(class | tokens) for every class."""
        log_scores = self.log_scores(tokens)
        maximum = max(log_scores.values())
        exponentials = {label: math.exp(score - maximum) for label, score in log_scores.items()}
        normaliser = sum(exponentials.values())
        return {label: value / normaliser for label, value in exponentials.items()}

    def predict(self, tokens: Sequence[str]) -> str:
        """The most probable class for a token sequence."""
        log_scores = self.log_scores(tokens)
        return max(log_scores.items(), key=lambda item: item[1])[0]

    def dominant_class_by_token(self) -> Dict[str, str]:
        """token -> the class where the token was observed most often.

        A cheap routing-hint table: looking a token up costs one dict
        access instead of a full posterior sweep over every class.  Ties
        break on the lexicographically smallest class label, so the
        table is deterministic for any training order.
        """
        dominant: Dict[str, str] = {}
        best_count: Dict[str, int] = {}
        for label in sorted(self._token_counts):
            for token, count in self._token_counts[label].items():
                if count > best_count.get(token, 0):
                    best_count[token] = count
                    dominant[token] = label
        return dominant
