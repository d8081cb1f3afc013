"""The catalog serving facade: one index, one snapshot discipline.

:class:`CatalogSearchService` owns a :class:`~repro.serving.index.CatalogIndex`.
A service opened with :meth:`CatalogSearchService.from_store_path`
watches a store file that other processes write, through a read-only
:class:`~repro.serving.reader.CatalogReader`, and keeps its index
current from the store's changed-cluster commit journal: when the
commit counter moves, the journal names exactly the clusters every
commit touched, so the service applies O(changed) upserts/removes
instead of rebuilding.  Only when the journal cannot prove coverage
(legacy file, compacted rows) does it fall back to the full rebuild —
and the two paths are reported distinctly (``delta_resyncs`` /
``full_resyncs`` / ``journal_truncations`` in :meth:`stats`).  The
direct constructor wraps a prebuilt index that nothing maintains.

The service guarantees **snapshot isolation**: every query runs under
the service lock against an index state that corresponds to exactly one
committed prefix of the ingest stream (reported as
``snapshot_commit_count``), never to a half-applied batch.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.model.products import Product, stable_product_id
from repro.obs import get_registry
from repro.runtime.state import ClusterId
from repro.serving.index import CatalogIndex, SearchResult
from repro.serving.reader import CatalogReader

__all__ = ["CatalogSearchService"]


class CatalogSearchService:
    """Thread-safe query front end over an incrementally maintained index."""

    def __init__(self, index: Optional[CatalogIndex] = None) -> None:
        self._index = index if index is not None else CatalogIndex()
        self._lock = threading.RLock()
        self._reader: Optional[CatalogReader] = None
        self._snapshot_commit_count = 0
        self._queries_served = 0
        self._resyncs = 0
        self._delta_resyncs = 0
        self._full_resyncs = 0
        self._journal_truncations = 0
        # Observability: the per-instance counters above are what stats()
        # reports; each increment is mirrored into a process-wide registry
        # counter, so the series sum over every replica and keep the counts
        # of closed or restarted ones.
        registry = get_registry()
        self._obs = registry
        self._obs_index_upserts = registry.counter(
            "serving_index_upserts_total",
            help="Products upserted into serving indexes by journal deltas.",
        )
        self._obs_index_removes = registry.counter(
            "serving_index_removes_total",
            help="Products removed from serving indexes by journal deltas.",
        )
        self._obs_queries = registry.counter(
            "serving_queries_total",
            help="Queries served (search, lookup, facet), all replicas.",
        )
        resyncs_help = "Index resyncs by mode (journal delta vs full rebuild)."
        self._obs_delta_resyncs = registry.counter(
            "serving_resyncs_total", help=resyncs_help, labels={"mode": "delta"}
        )
        self._obs_full_resyncs = registry.counter(
            "serving_resyncs_total", help=resyncs_help, labels={"mode": "full"}
        )
        self._obs_journal_truncations = registry.counter(
            "serving_journal_truncations_total",
            help="Resyncs forced onto the full rebuild by a truncated journal.",
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_store_path(cls, path: str) -> "CatalogSearchService":
        """Serve a store file written by another process (read-only).

        Opens a :class:`~repro.serving.reader.CatalogReader` over the
        WAL file and builds the index from the committed snapshot.
        Queries transparently resync when a writer commits — see
        :meth:`maybe_resync`.
        """
        service = cls()
        service._reader = CatalogReader(path)
        service.resync()
        return service

    def close(self) -> None:
        """Close the reader (idempotent)."""
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def __enter__(self) -> "CatalogSearchService":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self.close()

    # -- maintenance -----------------------------------------------------------

    def _apply_delta(
        self, delta: Dict[ClusterId, Optional[Product]]
    ) -> None:
        """Apply one journal delta to the index (caller holds the lock)."""
        upserts = removes = 0
        for cluster_id, product in delta.items():
            if product is None:
                self._index.remove(stable_product_id(*cluster_id))
                removes += 1
            else:
                self._index.upsert(product)
                upserts += 1
        if upserts:
            self._obs_index_upserts.inc(upserts)
        if removes:
            self._obs_index_removes.inc(removes)

    def resync(self) -> int:
        """Catch the index up to the store's committed head.

        Services opened with :meth:`from_store_path` only; returns the
        commit count of the snapshot now served.  Two paths, reported distinctly in
        :meth:`stats`:

        * **journal delta** — once primed, the service asks the reader
          for the changed-cluster journal entries between its pinned
          snapshot and the head and applies O(changed) upserts/removes
          (``delta_resyncs``).  The read is one WAL transaction, so the
          delta moves the index to exactly the head's catalog.
        * **full rebuild** — the explicit fallback when the journal
          cannot prove coverage (store predates the journal, rows were
          compacted past the pinned snapshot — counted as
          ``journal_truncations``) and for the initial priming build
          (``full_resyncs``).
        """
        if self._reader is None:
            raise RuntimeError(
                "resync() requires a service over a store file "
                "(CatalogSearchService.from_store_path)"
            )
        with self._obs.span("serving.resync"):
            with self._lock:
                since = self._snapshot_commit_count
                primed = self._resyncs > 0
            if primed:
                head, delta = self._reader.read_delta(since)
                if delta is not None:
                    with self._lock:
                        # Apply only if no concurrent resync moved the
                        # snapshot: the delta is valid on top of `since`
                        # and nothing else.  A racer that won resynced
                        # for us.
                        if self._snapshot_commit_count == since and head > since:
                            self._apply_delta(delta)
                            self._snapshot_commit_count = head
                            self._resyncs += 1
                            self._delta_resyncs += 1
                            self._obs_delta_resyncs.inc()
                        return self._snapshot_commit_count
                with self._lock:
                    self._journal_truncations += 1
                    self._obs_journal_truncations.inc()
            snapshot, products = self._reader.read_products()
            with self._lock:
                # Concurrent resyncs race on the read: if another thread
                # already swapped in this snapshot (or a newer one),
                # keeping ours would roll the served index *backwards* —
                # the non-monotonic read the snapshot contract forbids.
                if snapshot > self._snapshot_commit_count or (
                    snapshot == self._snapshot_commit_count and self._resyncs == 0
                ):
                    self._index.rebuild(products)
                    self._snapshot_commit_count = snapshot
                    self._resyncs += 1
                    self._full_resyncs += 1
                    self._obs_full_resyncs.inc()
                return self._snapshot_commit_count

    def maybe_resync(self, max_lag_commits: int = 0) -> bool:
        """Resync when the served snapshot trails the store's head too far.

        ``max_lag_commits`` is the divergence bound: 0 (the default)
        resyncs on *any* newer commit — exactly-current serving; a
        positive bound lets the service keep answering from a snapshot
        at most that many commits behind, which is what a fleet replica
        runs with so index rebuilds stay off the request path.  Cheap
        when within bound — one ``meta`` row read (a fleet with a head
        watcher and a positive bound skips even that: it compares the
        snapshot with the head the watcher published).  A service with
        no store file has nothing to resync and returns ``False``.
        """
        if self._reader is None:
            return False
        head = self._reader.commit_count()
        if head - self.snapshot_commit_count <= max_lag_commits:
            return False
        self.resync()
        return True

    # -- queries ---------------------------------------------------------------

    def search(
        self,
        query: str,
        top_k: int = 10,
        category: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
    ) -> List[SearchResult]:
        """Top-k ranked products for ``query`` (see :meth:`CatalogIndex.search`).

        Services over a store file first fold in any newly committed
        snapshot, so a query never serves state older than the store's
        last commit barrier at call time — and never anything newer or
        torn either.
        """
        return self.search_pinned(
            query, top_k=top_k, category=category, attributes=attributes
        )[1]

    def search_pinned(
        self,
        query: str,
        top_k: int = 10,
        category: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
        auto_resync: bool = True,
    ) -> Tuple[int, List[SearchResult]]:
        """Like :meth:`search`, returning ``(snapshot, results)`` atomically.

        The snapshot is read under the same lock hold that executes the
        search, so under concurrent maintenance (resyncs, a fleet's
        head watcher) the pair is guaranteed consistent —
        reading :attr:`snapshot_commit_count` *after* :meth:`search` is
        not.  ``auto_resync=False`` skips the head check entirely (a
        fleet holds its replicas to its own lag bound before it calls).
        """
        if auto_resync:
            self.maybe_resync()
        with self._lock:
            self._queries_served += 1
            self._obs_queries.inc()
            return self._snapshot_commit_count, self._index.search(
                query, top_k=top_k, category=category, attributes=attributes
            )

    def get_product(self, product_id: str) -> Optional[Product]:
        """Point lookup by product id against the served snapshot."""
        return self.get_product_pinned(product_id)[1]

    def get_product_pinned(
        self,
        product_id: str,
        auto_resync: bool = True,
    ) -> Tuple[int, Optional[Product]]:
        """Point lookup returning ``(snapshot, product)`` atomically."""
        if auto_resync:
            self.maybe_resync()
        with self._lock:
            self._queries_served += 1
            self._obs_queries.inc()
            return self._snapshot_commit_count, self._index.get_product(product_id)

    def count_by_category(self) -> Dict[str, int]:
        """The category facet of the served snapshot."""
        self.maybe_resync()
        with self._lock:
            self._queries_served += 1
            self._obs_queries.inc()
            return self._index.count_by_category()

    # -- introspection ---------------------------------------------------------

    @property
    def snapshot_commit_count(self) -> int:
        """Commit barrier the served index corresponds to."""
        with self._lock:
            return self._snapshot_commit_count

    def head_commit_count(self) -> int:
        """The newest committed snapshot available to this service.

        The store file's persistent counter (one ``meta`` row read); a
        service with no store file serves its own snapshot.
        """
        if self._reader is not None:
            return self._reader.commit_count()
        return self.snapshot_commit_count

    def lag(self) -> int:
        """Commits between the store head and the served snapshot (>= 0)."""
        return max(0, self.head_commit_count() - self.snapshot_commit_count)

    @property
    def num_products(self) -> int:
        """Products in the served snapshot."""
        with self._lock:
            return self._index.num_products

    def resync_stats(self) -> Dict[str, int]:
        """Resync-mode counters: how the index has been kept current.

        ``delta_resyncs`` counts journal-delta applies, ``full_resyncs``
        full rebuilds (including the priming build), and
        ``journal_truncations`` the times a truncated/absent journal
        forced the fallback; ``resyncs`` is the total.  The fleet's
        ``/lag`` endpoint surfaces these per replica so operators can
        tell O(changed) maintenance from O(catalog) rebuild storms.
        """
        with self._lock:
            return {
                "resyncs": self._resyncs,
                "delta_resyncs": self._delta_resyncs,
                "full_resyncs": self._full_resyncs,
                "journal_truncations": self._journal_truncations,
            }

    def stats(self) -> Dict[str, object]:
        """JSON-compatible service + index statistics (the ``/stats`` body).

        Resync counters live under the nested ``resync`` key — the same
        shape the fleet reports per replica.
        """
        with self._lock:
            payload: Dict[str, object] = {
                "snapshot_commit_count": self._snapshot_commit_count,
                "queries_served": self._queries_served,
                "resync": self.resync_stats(),
                "index": self._index.stats(),
                "count_by_category": self._index.count_by_category(),
            }
        if self._reader is not None:
            # The reader has no page cache; the two keys stay at 0 because
            # bench/ledger.py reads them for ``reader.page_cache_hit_ratio``.
            payload["reader"] = {"page_cache_hits": 0, "page_cache_misses": 0}
            payload["store_path"] = self._reader.path
        return payload
