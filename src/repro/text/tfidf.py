"""TF-IDF weighting and the SoftTFIDF hybrid similarity.

The DUMAS baseline (paper Appendix C) scores the similarity of two field
values with **SoftTFIDF**: a token-level cosine similarity where tokens are
weighted by TF-IDF and two tokens are considered "the same" when their
Jaro-Winkler similarity exceeds a threshold.  This module provides:

* :class:`TfIdfVectorizer` — a small corpus-statistics object producing
  sparse TF-IDF vectors for strings;
* :class:`SoftTfIdf` — the soft cosine similarity of Cohen et al. used by
  DUMAS.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Dict, Iterable, Optional

from repro.text.setsim import cosine_similarity
from repro.text.string_metrics import jaro_winkler_similarity
from repro.text.tokenize import tokenize_value

__all__ = ["IncrementalTfIdf", "TfIdfVectorizer", "SoftTfIdf"]


class IncrementalTfIdf:
    """Updatable TF-IDF statistics over a growing corpus of short strings.

    Unlike :class:`TfIdfVectorizer`, which freezes its IDF table at
    construction time, this class keeps raw document frequencies and
    derives IDF values on demand, so documents can be appended at any
    point (``add`` / ``extend``) and dropped again (``discard``) without
    rebuilding anything — the statistics the serving-side catalog index
    maintains over its product documents.  :meth:`add_tokens` and
    :meth:`discard_tokens` are the same updates for a caller that has
    already tokenised the document.

    Unknown tokens at query time receive the maximum IDF, the conventional
    smoothing for out-of-vocabulary terms.

    Examples
    --------
    >>> stats = IncrementalTfIdf(["Seagate Barracuda"])
    >>> stats.extend(["Seagate Momentus", "WD Raptor"])
    >>> stats.num_documents
    3
    >>> stats.idf("seagate") < stats.idf("raptor")
    True
    """

    def __init__(self, corpus: Iterable[str] = ()) -> None:
        self._num_documents = 0
        self._document_frequency: Dict[str, int] = {}
        self.extend(corpus)

    # -- updates ---------------------------------------------------------------

    def add(self, text: str) -> None:
        """Account one document's tokens into the statistics."""
        self.add_tokens(set(tokenize_value(text)))

    def add_tokens(self, tokens: Iterable[str]) -> None:
        """Account one document given as its distinct tokens."""
        self._num_documents += 1
        for token in tokens:
            self._document_frequency[token] = self._document_frequency.get(token, 0) + 1

    def extend(self, corpus: Iterable[str]) -> None:
        """Account a batch of documents into the statistics."""
        for text in corpus:
            self.add(text)

    def discard(self, text: str) -> None:
        """Remove one previously :meth:`add`-ed document from the statistics.

        The exact inverse of :meth:`add`: after ``discard(text)`` the
        statistics are indistinguishable from never having added
        ``text``.

        Raises
        ------
        ValueError
            If ``text`` contains a token the statistics never counted —
            a document frequency can never go negative, so this always
            indicates the caller discarding something it never added.
        """
        self.discard_tokens(set(tokenize_value(text)))

    def discard_tokens(self, tokens: Collection[str]) -> None:
        """The inverse of :meth:`add_tokens` (``tokens`` distinct).

        The serving-side catalog index relies on this to replace a
        product document in place when a cluster re-fuses (its product
        id is stable but its title/attributes change).  Raises
        ``ValueError`` as :meth:`discard` does.
        """
        if self._num_documents == 0:
            raise ValueError("cannot discard from empty TF-IDF statistics")
        for token in tokens:
            frequency = self._document_frequency.get(token, 0)
            if frequency == 0:
                raise ValueError(
                    f"cannot discard document: token {token!r} was never added"
                )
        self._num_documents -= 1
        for token in tokens:
            frequency = self._document_frequency[token]
            if frequency == 1:
                del self._document_frequency[token]
            else:
                self._document_frequency[token] = frequency - 1

    def copy(self) -> "IncrementalTfIdf":
        """Independent statistics equal to these (the token strings are shared)."""
        twin = IncrementalTfIdf()
        twin._num_documents = self._num_documents
        twin._document_frequency = dict(self._document_frequency)
        return twin

    # -- statistics ------------------------------------------------------------

    def _idf_value(self, document_frequency: int) -> float:
        # Smoothed IDF; never zero so every token contributes a little.
        return math.log((1 + self._num_documents) / (1 + document_frequency)) + 1.0

    @property
    def num_documents(self) -> int:
        """Number of documents the IDF statistics were computed from."""
        return self._num_documents

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct tokens observed so far."""
        return len(self._document_frequency)

    def document_frequency(self, token: str) -> int:
        """How many documents ``token`` appeared in (0 when unseen)."""
        return self._document_frequency.get(token, 0)

    def idf(self, token: str) -> float:
        """The (smoothed) inverse document frequency of ``token``."""
        frequency = self._document_frequency.get(token)
        if frequency is None:
            return self._idf_value(1) if self._num_documents else 1.0
        return self._idf_value(frequency)

    def transform(
        self, text: str, idf: Optional[Callable[[str], float]] = None
    ) -> Dict[str, float]:
        """Return the L2-normalised TF-IDF vector of ``text``.

        ``idf`` replaces :meth:`idf` as the per-token lookup — a caller
        that tabulates these statistics' IDF values passes its table's.
        """
        idf = self.idf if idf is None else idf
        tokens = tokenize_value(text)
        if not tokens:
            return {}
        counts: Dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        weights = {
            token: (count / len(tokens)) * idf(token)
            for token, count in counts.items()
        }
        norm = math.sqrt(sum(value * value for value in weights.values()))
        if norm == 0.0:
            return {}
        return {token: value / norm for token, value in weights.items()}

    def similarity(self, a: str, b: str) -> float:
        """Plain TF-IDF cosine similarity between two strings."""
        return cosine_similarity(self.transform(a), self.transform(b))


class TfIdfVectorizer(IncrementalTfIdf):
    """Frozen-corpus TF-IDF vectors (the historical batch-mode interface).

    The corpus is supplied up front (one "document" per string — typically
    one attribute value per document).  The class is a thin freeze over
    :class:`IncrementalTfIdf`: the statistics are identical, only the
    contract differs (no post-construction updates), which keeps the
    offline DUMAS baseline and the run-time engine on one implementation.

    Examples
    --------
    >>> vec = TfIdfVectorizer(["Seagate Barracuda", "Seagate Momentus", "WD Raptor"])
    >>> weights = vec.transform("Seagate Barracuda")
    >>> weights["barracuda"] > weights["seagate"]
    True
    """

    def __init__(self, corpus: Iterable[str]) -> None:
        self._frozen = False
        super().__init__(corpus)
        self._frozen = True
        # Freezing lets IDF values be tabulated once instead of recomputed
        # per lookup — transform() is the SoftTFIDF/DUMAS hot path.
        self._idf_table: Dict[str, float] = {
            token: self._idf_value(frequency)
            for token, frequency in self._document_frequency.items()
        }
        self._default_idf = self._idf_value(1) if self._num_documents else 1.0

    def _frozen_error(self) -> TypeError:
        return TypeError(
            "TfIdfVectorizer statistics are frozen at construction time; "
            "use IncrementalTfIdf for updatable statistics"
        )

    def add_tokens(self, tokens: Iterable[str]) -> None:
        """Refuse updates once the statistics are frozen."""
        if self._frozen:
            raise self._frozen_error()
        super().add_tokens(tokens)

    def discard_tokens(self, tokens: Collection[str]) -> None:
        """Always refuse: frozen statistics cannot drop documents."""
        raise self._frozen_error()

    def idf(self, token: str) -> float:
        """The (smoothed) inverse document frequency of ``token``."""
        return self._idf_table.get(token, self._default_idf)


class SoftTfIdf:
    """SoftTFIDF similarity (Cohen, Ravikumar & Fienberg) used by DUMAS.

    Two strings are compared as token bags.  Tokens from the first string
    are softly aligned to their most Jaro-Winkler-similar counterpart in
    the second string; aligned pairs above ``threshold`` contribute the
    product of their TF-IDF weights scaled by the inner similarity.

    Parameters
    ----------
    corpus:
        Strings used to estimate IDF statistics.
    threshold:
        Minimum Jaro-Winkler similarity for two tokens to be considered a
        soft match (0.9 in the original formulation).
    """

    def __init__(self, corpus: Iterable[str], threshold: float = 0.9) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._vectorizer = TfIdfVectorizer(corpus)
        self._threshold = threshold

    @property
    def threshold(self) -> float:
        """The inner Jaro-Winkler acceptance threshold."""
        return self._threshold

    def similarity(self, a: str, b: str) -> float:
        """SoftTFIDF similarity of two strings, in [0, 1].

        Examples
        --------
        >>> soft = SoftTfIdf(["Seagate Barracuda HD", "WD Raptor HDD"])
        >>> soft.similarity("Seagate Barracuda", "Seagate Barracuda HD") > 0.8
        True
        """
        weights_a = self._vectorizer.transform(a)
        weights_b = self._vectorizer.transform(b)
        if not weights_a or not weights_b:
            return 0.0

        total = 0.0
        for token_a, weight_a in weights_a.items():
            best_similarity = 0.0
            best_token: Optional[str] = None
            for token_b in weights_b:
                inner = (
                    1.0
                    if token_a == token_b
                    else jaro_winkler_similarity(token_a, token_b)
                )
                if inner > best_similarity:
                    best_similarity = inner
                    best_token = token_b
            if best_token is not None and best_similarity >= self._threshold:
                total += weight_a * weights_b[best_token] * best_similarity
        # The vectors are already L2-normalised, so the accumulated score is
        # a (soft) cosine and stays within [0, 1] modulo floating point.
        return min(max(total, 0.0), 1.0)
