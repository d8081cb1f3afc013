"""The serving-side inverted keyword index over synthesized products.

:class:`CatalogIndex` turns the catalog the write path synthesizes into
a query target: every product is indexed as one *document* (its title
plus every attribute value, tokenised by the shared
:mod:`repro.text.tokenize` rules), postings map tokens to the products
containing them, and ranking is TF-IDF cosine over
:class:`repro.text.tfidf.IncrementalTfIdf` statistics maintained over
the product corpus, so document frequencies stay exact under
incremental updates.

Each document is held once, compactly: the :class:`Product`, its
distinct tokens (interned, so a token is one string object shared with
the postings key and every other document), the aligned term
frequencies and a frozenset of interned filter pairs.  No document text
is kept: removal discards the token tuple from the statistics, so
nothing is tokenised twice.

Maintenance is incremental by design: :meth:`CatalogIndex.upsert` and
:meth:`CatalogIndex.remove` replace re-fused products in place — product
ids are content-derived from the cluster identity, so a growing cluster
keeps one document that is replaced, never duplicated.  The full-rebuild
fallback is a fresh ``CatalogIndex(products)``.

**Versions.** The serving layer never mutates an index that queries can
see.  It :meth:`~CatalogIndex.publish`-es each built index, and folds a
journal delta into :meth:`~CatalogIndex.derive`, the next version: a
copy of the top-level maps (documents, postings, document frequencies,
category counts) that shares every posting dict and document with its
parent until ``upsert`` / ``remove`` first writes to it.  A published
version is immutable (a write raises), so any number of threads search
it without a lock while the next version is built; only its lazily
filled caches — document norms and the token → IDF table, both fixed
by the version's statistics — grow as it is searched.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from sys import intern
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.model.products import Product
from repro.text.normalize import normalize_attribute_name, normalize_value
from repro.text.tfidf import IncrementalTfIdf
from repro.text.tokenize import tokenize_title, tokenize_value

__all__ = ["CatalogIndex", "SearchResult"]


@dataclass
class SearchResult:
    """One ranked hit of a :meth:`CatalogIndex.search` call."""

    product: Product
    #: TF-IDF cosine score in (0, 1]; ties broken by product id.
    score: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary (what the HTTP layer returns)."""
        return {
            "product_id": self.product.product_id,
            "category_id": self.product.category_id,
            "title": self.product.title,
            "score": round(self.score, 6),
            "num_attributes": self.product.num_attributes(),
        }


class _IndexedDocument:
    """One product's indexed representation."""

    __slots__ = ("product", "tokens", "frequencies", "attribute_pairs")

    def __init__(
        self,
        product: Product,
        tokens: Tuple[str, ...],
        frequencies: Tuple[float, ...],
        attribute_pairs: FrozenSet[Tuple[str, str]],
    ) -> None:
        self.product = product
        #: Distinct tokens in first-seen order (interned strings).
        self.tokens = tokens
        #: Term frequency (count / document length) aligned with ``tokens``.
        self.frequencies = frequencies
        #: (normalised attribute name, normalised value) pairs for filters.
        self.attribute_pairs = attribute_pairs


_NO_PAIRS: FrozenSet[Tuple[str, str]] = frozenset()

#: Entries of the two caches below; documents that share a term
#: frequency or a filter pair share one object for it.
_SHARED_CACHE_SIZE = 4096


@lru_cache(maxsize=_SHARED_CACHE_SIZE)
def _term_frequency(count: int, length: int) -> float:
    return count / length


@lru_cache(maxsize=_SHARED_CACHE_SIZE)
def _filter_pair(name: str, value: str) -> Tuple[str, str]:
    return (
        intern(normalize_attribute_name(name)),
        intern(normalize_value(value)),
    )


def _index_document(product: Product) -> _IndexedDocument:
    """Tokenise one product's title and values into its indexed form."""
    tokens = tokenize_title(product.title)
    for pair in product.specification:
        tokens.extend(tokenize_value(pair.value))
    counts: Dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    length = len(tokens)
    attribute_pairs = frozenset(
        _filter_pair(pair.name, pair.value) for pair in product.specification
    )
    return _IndexedDocument(
        product,
        tuple(intern(token) for token in counts),
        tuple(_term_frequency(count, length) for count in counts.values()),
        attribute_pairs or _NO_PAIRS,
    )


class CatalogIndex:
    """Inverted TF-IDF index with category and attribute facets.

    Supports top-k ranked :meth:`search`, point lookups by product id
    (:meth:`get_product`), and the :meth:`count_by_category` facet.
    Updates are incremental (:meth:`upsert` / :meth:`remove`), until
    :meth:`publish` freezes the index; :meth:`derive` then starts the next version (see the module
    docstring).
    """

    def __init__(self, products: Iterable[Product] = ()) -> None:
        self._documents: Dict[str, _IndexedDocument] = {}
        #: token -> {product_id -> term frequency}.
        self._postings: Dict[str, Dict[str, float]] = {}
        #: Tokens whose posting dict this version copied from its parent
        #: (or created); ``None`` when it owns every posting dict.
        self._copied: Optional[Set[str]] = None
        self._stats = IncrementalTfIdf()
        self._category_counts: Dict[str, int] = {}
        #: product_id -> document vector norm, and token -> IDF, filled
        #: as searches need them; any mutation clears both.
        self._norm_cache: Dict[str, float] = {}
        self._idf_cache: Dict[str, float] = {}
        self._published = False
        for product in products:
            self.upsert(product)

    # -- versions --------------------------------------------------------------

    @property
    def published(self) -> bool:
        """Whether this index is a published, immutable version."""
        return self._published

    def publish(self) -> "CatalogIndex":
        """Freeze this index: from now on ``upsert`` / ``remove`` raise."""
        self._published = True
        self._copied = None
        return self

    def derive(self) -> "CatalogIndex":
        """The next version: an unpublished index equal to this one.

        It copies the top-level maps and shares every posting dict and
        document with this index; ``upsert`` / ``remove`` copy a posting
        dict the first time they write to it.  Sharing freezes this
        index (it is published if it was not).
        """
        self.publish()
        version = CatalogIndex.__new__(CatalogIndex)
        version._documents = dict(self._documents)
        version._postings = dict(self._postings)
        version._copied = set()
        version._stats = self._stats.copy()
        version._category_counts = dict(self._category_counts)
        version._norm_cache = {}
        version._idf_cache = {}
        version._published = False
        return version

    def _changed(self) -> None:
        """Refuse a write to a published version; drop the caches a write stales."""
        if self._published:
            raise RuntimeError("a published index version is immutable; derive() the next one")
        self._norm_cache.clear()
        self._idf_cache.clear()

    def _writable_posting(self, token: str) -> Dict[str, float]:
        """``token``'s posting dict, first copied (or created) if this version does not own it."""
        posting = self._postings.get(token)
        if self._copied is not None and token not in self._copied:
            self._copied.add(token)
            posting = self._postings[token] = dict(posting or ())
        elif posting is None:
            posting = self._postings[token] = {}
        return posting

    # -- maintenance -----------------------------------------------------------

    def upsert(self, product: Product) -> None:
        """Index a product, replacing any previous document with its id.

        Re-fused products keep their content-derived id, so the growing
        cluster's document is swapped in place and the DF statistics
        stay exact (the old tokens are discarded before the new are added).
        """
        self.remove(product.product_id)
        document = _index_document(product)
        # A product with no tokenisable text is unsearchable but stays
        # retrievable by id and countable in the facets.
        if document.tokens:
            self._stats.add_tokens(document.tokens)
            product_id = product.product_id
            for token, frequency in zip(document.tokens, document.frequencies):
                self._writable_posting(token)[product_id] = frequency
        self._documents[product.product_id] = document
        self._category_counts[product.category_id] = (
            self._category_counts.get(product.category_id, 0) + 1
        )

    def remove(self, product_id: str) -> bool:
        """Drop a product from the index; ``False`` when it was absent."""
        self._changed()
        document = self._documents.pop(product_id, None)
        if document is None:
            return False
        if document.tokens:
            self._stats.discard_tokens(document.tokens)
        for token in document.tokens:
            posting = self._writable_posting(token)
            posting.pop(product_id, None)
            if not posting:
                del self._postings[token]
        category_id = document.product.category_id
        remaining = self._category_counts.get(category_id, 0) - 1
        if remaining <= 0:
            self._category_counts.pop(category_id, None)
        else:
            self._category_counts[category_id] = remaining
        return True

    # -- queries ---------------------------------------------------------------

    def _idf(self, token: str) -> float:
        """``token``'s IDF, computed once per version for indexed tokens.

        A token no document holds is not tabulated, so hostile queries
        cannot grow the table past the vocabulary.
        """
        idf = self._idf_cache.get(token)
        if idf is None:
            idf = self._stats.idf(token)
            if token in self._postings:
                self._idf_cache[token] = idf
        return idf

    def _document_norm(self, product_id: str) -> float:
        norm = self._norm_cache.get(product_id)
        if norm is None:
            document = self._documents[product_id]
            idf = self._idf
            norm = math.sqrt(
                sum(
                    (frequency * idf(token)) ** 2
                    for token, frequency in zip(document.tokens, document.frequencies)
                )
            )
            self._norm_cache[product_id] = norm
        return norm

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
        query_weights = self._stats.transform(query, idf=self._idf)
        if not query_weights:
            return []
        scores: Dict[str, float] = {}
        for token, query_weight in query_weights.items():
            posting = self._postings.get(token)
            if posting is None:
                continue
            token_idf = self._idf(token)
            for product_id, frequency in posting.items():
                scores[product_id] = (
                    scores.get(product_id, 0.0) + query_weight * frequency * token_idf
                )
        wanted_pairs = [
            (normalize_attribute_name(name), normalize_value(value))
            for name, value in (attributes or {}).items()
        ]
        ranked: List[Tuple[float, str]] = []
        for product_id, raw_score in scores.items():
            document = self._documents[product_id]
            if category is not None and document.product.category_id != category:
                continue
            if wanted_pairs and not all(pair in document.attribute_pairs for pair in wanted_pairs):
                continue
            norm = self._document_norm(product_id)
            if norm == 0.0:
                continue
            ranked.append((-(raw_score / norm), product_id))
        # Only the returned hits become SearchResults; the (-score, id)
        # order is the same total order a full sort would give.
        return [
            SearchResult(product=self._documents[product_id].product, score=-negated)
            for negated, product_id in heapq.nsmallest(top_k, ranked)
        ]

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
