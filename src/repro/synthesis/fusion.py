"""Value Fusion (paper Section 4 and Appendix A).

Given a cluster of reconciled offers, fusion picks one representative
value per catalog attribute:

* :class:`MajorityValueFusion` — plain majority voting over exact
  (normalised) values; the baseline the appendix starts from.
* :class:`CentroidValueFusion` — the paper's generalisation of majority
  voting to the term level: each candidate value becomes a binary term
  vector, the centroid of all vectors is computed, and the value closest
  to the centroid (Euclidean distance) is chosen.  The appendix's
  "Microsoft Windows Vista" example is reproduced verbatim in the tests.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.model.attributes import Specification
from repro.synthesis.clustering import OfferCluster
from repro.text.memo import (
    cached_normalize_attribute_name,
    cached_normalize_value,
    cached_tokenize_value,
)

__all__ = [
    "MajorityValueFusion",
    "CentroidValueFusion",
    "MemoizedValueFusion",
    "fuse_cluster",
]


class MajorityValueFusion:
    """Pick the most frequent (normalised) value; ties break deterministically."""

    def select(self, values: Sequence[str]) -> Optional[str]:
        """The majority value of ``values`` (original casing of the first winner)."""
        if not values:
            return None
        counts: Counter = Counter()
        originals: Dict[str, str] = {}
        for value in values:
            normalised = cached_normalize_value(value)
            if not normalised:
                continue
            counts[normalised] += 1
            originals.setdefault(normalised, value)
        if not counts:
            return None
        best = max(counts.items(), key=lambda item: (item[1], -len(item[0]), item[0]))
        return originals[best[0]]


class CentroidValueFusion:
    """Term-level generalised majority voting (paper Appendix A).

    Each candidate value is converted into a binary vector over the union
    of terms appearing in any candidate; the representative value is the
    one closest (Euclidean distance) to the centroid of all vectors.  Ties
    are broken towards the value containing more terms, then
    lexicographically, then towards the first-listed value, so fusion is
    deterministic.

    Nothing is materialised per value: a binary vector's squared distance
    to the centroid ``c`` has, per vocabulary term, either ``(1 - c)²`` or
    ``(0 - c)²`` as its addend, so both are computed once per term and each
    *distinct* value sums its picks — the same addends in the same
    (first-seen vocabulary) order as the vector definition, hence the same
    float.
    """

    def select(self, values: Sequence[str]) -> Optional[str]:
        """The centroid-nearest value of ``values``."""
        if not values:
            return None
        # term -> how many values hold it, keyed in first-seen order.
        counts: Dict[str, int] = {}
        candidates: List[Tuple[str, Tuple[str, ...]]] = []
        num_vectors = 0
        for value, repeats in Counter(values).items():
            terms = tuple(dict.fromkeys(cached_tokenize_value(value)))
            if not terms:
                continue
            candidates.append((value, terms))
            num_vectors += repeats
            for term in terms:
                counts[term] = counts.get(term, 0) + repeats
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0][0]

        position_of = {term: position for position, term in enumerate(counts)}
        centroid = [count / num_vectors for count in counts.values()]
        absent = [(0.0 - share) ** 2 for share in centroid]
        present = [(1.0 - share) ** 2 for share in centroid]

        best_key: Optional[Tuple[float, int, str]] = None
        best = None
        for value, terms in candidates:
            addends = absent.copy()
            for term in terms:
                position = position_of[term]
                addends[position] = present[position]
            # The builtin sum, not a loop: it is what the vector definition
            # sums with, and it is compensated from Python 3.12 on.
            key = (math.sqrt(sum(addends)), -len(terms), cached_normalize_value(value))
            # Strict "<": the first of equal keys wins, as a stable sort's head.
            if best_key is None or key < best_key:
                best_key, best = key, value
        return best


class MemoizedValueFusion:
    """Cache ``select`` results of a base fusion strategy.

    When the run-time engine re-fuses a cluster that grew by one offer,
    attributes the new offer does *not* carry see exactly the same
    candidate-value list as before — the memo turns those re-selections
    into a dictionary lookup.  Selection is a pure function of the value
    list, so caching is transparent: outputs are identical with or
    without the wrapper.

    The cache is a bounded FIFO (insertion-ordered dict); fusion value
    lists are small, so even the full cache stays modest in memory.  A
    lock guards the cache, so one instance can be shared across threads;
    pickling (process-pool payloads) drops the cache and recreates the
    lock on the other side.
    """

    def __init__(
        self,
        base: Optional[CentroidValueFusion] = None,
        maxsize: int = 1 << 16,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._base = base or CentroidValueFusion()
        self._maxsize = maxsize
        self._cache: "Dict[Tuple[str, ...], Optional[str]]" = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def base(self) -> CentroidValueFusion:
        """The wrapped fusion strategy."""
        return self._base

    def select(self, values: Sequence[str]) -> Optional[str]:
        """The base strategy's selection, cached on the exact value tuple."""
        key = tuple(values)
        with self._lock:
            if key in self._cache:
                self.hits += 1
                return self._cache[key]
            self.misses += 1
        selected = self._base.select(values)
        with self._lock:
            if len(self._cache) >= self._maxsize:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = selected
        return selected

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


def fuse_cluster(
    cluster: OfferCluster,
    attribute_names: Iterable[str],
    fusion: Optional[CentroidValueFusion] = None,
) -> Specification:
    """Fuse a cluster of reconciled offers into one product specification.

    Parameters
    ----------
    cluster:
        The offer cluster (offers must already be schema-reconciled, so
        their attribute names are catalog names).
    attribute_names:
        The catalog attributes to consider (the category schema).
    fusion:
        The value-selection strategy; defaults to
        :class:`CentroidValueFusion`.
    """
    strategy = fusion or CentroidValueFusion()
    # One pass over the cluster's pairs: per normalised name, its values in
    # offer order then pair order (the order a per-attribute ``get_all``
    # sweep over the offers would produce).
    normalise = cached_normalize_attribute_name
    values_by_name: Dict[str, List[str]] = {}
    for offer in cluster.offers:
        for pair in offer.specification:
            values_by_name.setdefault(normalise(pair.name), []).append(pair.value)
    fused = Specification()
    for attribute_name in attribute_names:
        values = values_by_name.get(normalise(attribute_name), [])
        representative = strategy.select(values)
        if representative is not None:
            fused.add(attribute_name, representative)
    return fused
