"""The catalog index the compact-document index replaced, kept as its test oracle.

Every document here keeps its own joined text, a per-document term
frequency dict and a set of normalised filter pairs; every scored
document becomes a :class:`SearchResult` before the full sort.  The
code below is the former ``repro.serving.index.CatalogIndex`` unchanged,
except that :class:`SearchResult` is imported from the live module so
the two indexes' results compare with ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.model.products import Product
from repro.serving.index import SearchResult
from repro.text.normalize import normalize_attribute_name, normalize_value
from repro.text.tfidf import IncrementalTfIdf
from repro.text.tokenize import tokenize_title, tokenize_value


@dataclass
class _IndexedDocument:
    """One product's indexed representation."""

    product: Product
    #: The concatenated text the document was tokenised from (kept so
    #: removal can discard exactly what was added to the DF statistics).
    text: str
    #: token -> term frequency (count / document length).
    term_frequency: Dict[str, float]
    #: (normalised attribute name, normalised value) pairs for filters.
    attribute_pairs: Set[Tuple[str, str]] = field(default_factory=set)


def _product_text(product: Product) -> str:
    """The searchable document text of one product."""
    parts = [product.title]
    parts.extend(pair.value for pair in product.specification)
    return " ".join(part for part in parts if part)


class CatalogIndex:
    """Inverted TF-IDF index with category and attribute facets.

    Supports top-k ranked :meth:`search`, point lookups by product id
    (:meth:`get_product`), and the :meth:`count_by_category` facet.
    Updates are incremental (:meth:`upsert` / :meth:`remove`) with a
    full :meth:`rebuild` fallback.
    """

    def __init__(self, products: Iterable[Product] = ()) -> None:
        self._documents: Dict[str, _IndexedDocument] = {}
        #: token -> {product_id -> term frequency}.
        self._postings: Dict[str, Dict[str, float]] = {}
        self._stats = IncrementalTfIdf()
        self._category_counts: Dict[str, int] = {}
        #: product_id -> cached document vector norm; IDF values drift
        #: with every corpus change, so any mutation clears the cache.
        self._norm_cache: Dict[str, float] = {}
        for product in products:
            self.upsert(product)

    # -- maintenance -----------------------------------------------------------

    def upsert(self, product: Product) -> None:
        """Index a product, replacing any previous document with its id.

        Re-fused products keep their content-derived id, so the growing
        cluster's document is swapped in place and the DF statistics
        stay exact (the old text is discarded before the new is added).
        """
        self.remove(product.product_id)
        text = _product_text(product)
        tokens = tokenize_title(product.title)
        for pair in product.specification:
            tokens.extend(tokenize_value(pair.value))
        if not tokens:
            # A product with no tokenisable text is unsearchable but must
            # stay retrievable by id and countable in the facets.
            document = _IndexedDocument(product=product, text=text, term_frequency={})
        else:
            counts: Dict[str, int] = {}
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
            term_frequency = {
                token: count / len(tokens) for token, count in counts.items()
            }
            document = _IndexedDocument(
                product=product, text=text, term_frequency=term_frequency
            )
            self._stats.add(text)
            for token, frequency in term_frequency.items():
                self._postings.setdefault(token, {})[product.product_id] = frequency
        for pair in product.specification:
            document.attribute_pairs.add(
                (pair.normalized_name(), pair.normalized_value())
            )
        self._documents[product.product_id] = document
        self._category_counts[product.category_id] = (
            self._category_counts.get(product.category_id, 0) + 1
        )
        self._norm_cache = {}

    def remove(self, product_id: str) -> bool:
        """Drop a product from the index; ``False`` when it was absent."""
        document = self._documents.pop(product_id, None)
        if document is None:
            return False
        if document.term_frequency:
            self._stats.discard(document.text)
        for token in document.term_frequency:
            posting = self._postings.get(token)
            if posting is not None:
                posting.pop(product_id, None)
                if not posting:
                    del self._postings[token]
        category_id = document.product.category_id
        remaining = self._category_counts.get(category_id, 0) - 1
        if remaining <= 0:
            self._category_counts.pop(category_id, None)
        else:
            self._category_counts[category_id] = remaining
        self._norm_cache = {}
        return True

    def rebuild(self, products: Iterable[Product]) -> None:
        """Replace the whole index with a fresh product snapshot.

        The full-rebuild fallback of the maintenance protocol — used for
        a service's priming read and whenever the store's journal cannot
        cover the gap, mirroring how delta-protocol workers resync from
        the durable store when incremental state is unavailable.
        """
        self._documents = {}
        self._postings = {}
        self._stats = IncrementalTfIdf()
        self._category_counts = {}
        self._norm_cache = {}
        for product in products:
            self.upsert(product)

    # -- queries ---------------------------------------------------------------

    def _document_norm(self, product_id: str) -> float:
        norm = self._norm_cache.get(product_id)
        if norm is None:
            document = self._documents[product_id]
            norm = math.sqrt(
                sum(
                    (frequency * self._stats.idf(token)) ** 2
                    for token, frequency in document.term_frequency.items()
                )
            )
            self._norm_cache[product_id] = norm
        return norm

    def _matches_filters(
        self,
        document: _IndexedDocument,
        category: Optional[str],
        attributes: Optional[Dict[str, str]],
    ) -> bool:
        if category is not None and document.product.category_id != category:
            return False
        if attributes:
            for name, value in attributes.items():
                pair = (normalize_attribute_name(name), normalize_value(value))
                if pair not in document.attribute_pairs:
                    return False
        return True

    def search(
        self,
        query: str,
        top_k: int = 10,
        category: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
    ) -> List[SearchResult]:
        """Top-k products by TF-IDF cosine against ``query``.

        ``category`` restricts hits to one catalog category;
        ``attributes`` is a name -> value map every hit's specification
        must contain (compared after the shared normalisation rules, so
        ``"Brand": "SEAGATE"`` matches a ``brand: Seagate`` pair).
        Results are deterministic: sorted by descending score, ties
        broken by product id.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        query_weights = self._stats.transform(query)
        if not query_weights:
            return []
        scores: Dict[str, float] = {}
        for token, query_weight in query_weights.items():
            posting = self._postings.get(token)
            if posting is None:
                continue
            token_idf = self._stats.idf(token)
            for product_id, frequency in posting.items():
                scores[product_id] = (
                    scores.get(product_id, 0.0) + query_weight * frequency * token_idf
                )
        ranked: List[SearchResult] = []
        for product_id, raw_score in scores.items():
            document = self._documents[product_id]
            if not self._matches_filters(document, category, attributes):
                continue
            norm = self._document_norm(product_id)
            if norm == 0.0:
                continue
            ranked.append(SearchResult(product=document.product, score=raw_score / norm))
        ranked.sort(key=lambda result: (-result.score, result.product.product_id))
        return ranked[:top_k]

    def get_product(self, product_id: str) -> Optional[Product]:
        """The indexed product with this id, or ``None``."""
        document = self._documents.get(product_id)
        return None if document is None else document.product

    def count_by_category(self) -> Dict[str, int]:
        """category_id -> number of indexed products, sorted by id."""
        return dict(sorted(self._category_counts.items()))

    # -- statistics ------------------------------------------------------------

    @property
    def num_products(self) -> int:
        """Number of products currently indexed."""
        return len(self._documents)

    @property
    def vocabulary_size(self) -> int:
        """Distinct tokens across all indexed documents."""
        return self._stats.vocabulary_size

    def stats(self) -> Dict[str, int]:
        """JSON-compatible index statistics."""
        return {
            "num_products": self.num_products,
            "num_categories": len(self._category_counts),
            "vocabulary_size": self.vocabulary_size,
            "num_postings": len(self._postings),
        }
