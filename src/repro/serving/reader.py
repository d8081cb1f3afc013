"""Read-only, snapshot-isolated access to a shared catalog store file.

:class:`CatalogReader` opens the durable SQLite WAL store with its own
``mode=ro`` connection — the same trick the delta-protocol workers and
the multi-process node layer use to share one file — so a serving
process can query the catalog *while* an engine (or a whole cluster of
node processes) keeps ingesting through other connections.

Isolation comes from SQLite's WAL semantics plus the engine's commit
discipline: writers flush exactly one transaction per ingest, so every
read transaction observes a committed stream prefix and nothing else.
The reader tags each read with the store's persistent ``commit_count``
(which committed prefix it saw), pages products from disk with keyset
pagination (:func:`repro.runtime.store.sqlite.read_product_page` — no
in-memory mirror required), and keeps a small LRU page cache keyed by
(commit count, page) so repeated scans of an unchanged snapshot stay in
memory.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.persistence import product_from_dict
from repro.model.products import Product
from repro.runtime.state import ClusterId
from repro.runtime.store.sqlite import read_product_page

__all__ = ["CatalogReader", "StaleSnapshotError"]

#: One cached page: the cluster ids + products read_product_page returned.
_Page = List[Tuple[ClusterId, Product]]


class StaleSnapshotError(RuntimeError):
    """A paged iteration crossed a writer commit and was abandoned.

    Raised by :meth:`CatalogReader.iter_products` when the store's
    commit counter changes between two pages of one iteration: the
    remaining pages belong to a *newer* snapshot, and silently mixing
    them with the pages already yielded would be exactly the torn read
    the serving layer promises never to produce.  Callers retry (the
    new snapshot is immediately readable) or fall back to
    :meth:`CatalogReader.read_products`, which holds one read
    transaction for the whole scan.
    """


class CatalogReader:
    """Query-side handle on a catalog store file (read-only, concurrent).

    Parameters
    ----------
    path:
        The SQLite store file an engine or cluster writes (the file must
        exist; the reader never creates or mutates it).
    page_size:
        Products per keyset page.
    max_cached_pages:
        LRU capacity of the page cache; one snapshot's pages stay cached
        until a writer commit invalidates them.
    busy_timeout_ms:
        How long reads wait for a writer's transaction before failing.
    """

    def __init__(
        self,
        path: str,
        page_size: int = 256,
        max_cached_pages: int = 64,
        busy_timeout_ms: int = 30_000,
    ) -> None:
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self._path = os.path.abspath(path)
        if not os.path.exists(self._path):
            raise FileNotFoundError(
                f"catalog store file does not exist: {self._path} "
                "(the reader is read-only and never creates stores)"
            )
        # isolation_level=None: transactions are controlled explicitly
        # (BEGIN/COMMIT) so a whole-catalog scan can hold one WAL read
        # snapshot; check_same_thread=False because the HTTP layer calls
        # in from worker threads (all reads serialise on self._lock).
        self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
            f"file:{self._path}?mode=ro",
            uri=True,
            isolation_level=None,
            check_same_thread=False,
        )
        self._connection.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        self._page_size = page_size
        self._max_cached_pages = max_cached_pages
        self._lock = threading.Lock()
        #: (commit_count, after-key) -> page; entries of dead snapshots
        #: are evicted as soon as a newer commit is observed, and the
        #: LRU bound caps residency across *all* snapshots.
        self._page_cache: "OrderedDict[Tuple[int, Optional[ClusterId]], _Page]" = (
            OrderedDict()
        )
        self._cache_snapshot = -1
        self._page_cache_hits = 0
        self._page_cache_misses = 0
        self._pages_evicted = 0
        self._peak_cached_pages = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def path(self) -> str:
        """Absolute path of the store file being read."""
        return self._path

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` released the connection."""
        return self._connection is None

    def close(self) -> None:
        """Release the read connection (idempotent, thread-safe).

        Taken under the reader lock: closing a sqlite3 connection while
        another thread executes a statement on it segfaults the
        interpreter, and the fleet closes retired replica services from
        whatever thread called ``restart_replica``.  A read in flight
        finishes first; later reads raise cleanly.
        """
        with self._lock:
            if self._connection is None:
                return
            self._connection.close()
            self._connection = None
            self._page_cache.clear()

    def __enter__(self) -> "CatalogReader":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self.close()

    def _require_open(self) -> sqlite3.Connection:
        if self._connection is None:
            raise RuntimeError("catalog reader is closed")
        return self._connection

    # -- snapshot identity -----------------------------------------------------

    def _read_commit_count(self, connection: sqlite3.Connection) -> int:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'commit_count'"
        ).fetchone()
        return 0 if row is None else int(row[0])

    def commit_count(self) -> int:
        """The store's committed-snapshot counter, read from the file.

        Monotonic; a change means a writer completed a commit barrier
        since the last look, i.e. a new committed prefix is visible.
        Observing a newer commit also evicts cached pages of the now
        dead snapshot — a lag-bounded replica that only *checks* the
        head for a while must not keep a stale snapshot's pages pinned
        in memory on top of the fresh ones.
        """
        with self._lock:
            head = self._read_commit_count(self._require_open())
            self._evict_dead_pages(head)
            return head

    # -- reads -----------------------------------------------------------------

    def _evict_dead_pages(self, snapshot: int) -> None:
        """Drop every cached page that belongs to a snapshot other than
        ``snapshot`` (the caller holds the lock; a no-op while the
        observed snapshot has not changed).

        The cache key carries the snapshot, so without this sweep the
        pages of superseded snapshots would linger until LRU pressure
        pushed them out — across many resyncs that is memory held for
        catalogs nobody can read any more.
        """
        if snapshot == self._cache_snapshot:
            return
        dead = [key for key in self._page_cache if key[0] != snapshot]
        for key in dead:
            del self._page_cache[key]
        self._pages_evicted += len(dead)
        self._cache_snapshot = snapshot

    def _cached_page(
        self,
        connection: sqlite3.Connection,
        snapshot: int,
        after: Optional[ClusterId],
    ) -> _Page:
        """One page of ``snapshot``, via the LRU cache."""
        self._evict_dead_pages(snapshot)
        key = (snapshot, after)
        page = self._page_cache.get(key)
        if page is not None:
            self._page_cache.move_to_end(key)
            self._page_cache_hits += 1
            return page
        page = read_product_page(connection, after, self._page_size)
        self._page_cache_misses += 1
        self._page_cache[key] = page
        while len(self._page_cache) > self._max_cached_pages:
            self._page_cache.popitem(last=False)
        self._peak_cached_pages = max(self._peak_cached_pages, len(self._page_cache))
        return page

    def read_products(self) -> Tuple[int, List[Product]]:
        """The full committed catalog, atomically, as ``(commit_count, products)``.

        One WAL read transaction covers the commit-counter read and
        every page, so the returned list is exactly the catalog of
        commit ``commit_count`` — a writer committing mid-scan changes
        nothing the transaction observes.  Products come back in the
        canonical (category, cluster key) order.
        """
        with self._lock:
            connection = self._require_open()
            connection.execute("BEGIN")
            try:
                snapshot = self._read_commit_count(connection)
                products: List[Product] = []
                after: Optional[ClusterId] = None
                while True:
                    page = self._cached_page(connection, snapshot, after)
                    if not page:
                        break
                    products.extend(product for _, product in page)
                    after = page[-1][0]
                return snapshot, products
            finally:
                connection.execute("COMMIT")

    def iter_products(self, page_size: Optional[int] = None) -> Iterator[Product]:
        """Stream one committed snapshot's products page by page.

        Unlike :meth:`read_products` this does not hold a transaction
        across the whole scan (a consumer that pauses mid-iteration
        would otherwise pin the WAL); instead every page re-reads the
        commit counter in its own transaction and the iteration fails
        with :class:`StaleSnapshotError` if a writer committed since the
        first page — the caller retries against the new snapshot.
        """
        size = self._page_size if page_size is None else page_size
        if size < 1:
            raise ValueError(f"page_size must be >= 1, got {size}")
        snapshot: Optional[int] = None
        after: Optional[ClusterId] = None
        while True:
            with self._lock:
                connection = self._require_open()
                connection.execute("BEGIN")
                try:
                    current = self._read_commit_count(connection)
                    if snapshot is None:
                        snapshot = current
                    elif current != snapshot:
                        raise StaleSnapshotError(
                            f"catalog advanced from commit {snapshot} to "
                            f"{current} mid-iteration; restart the scan"
                        )
                    if size == self._page_size:
                        page = self._cached_page(connection, snapshot, after)
                    else:
                        page = read_product_page(connection, after, size)
                finally:
                    connection.execute("COMMIT")
            if not page:
                return
            for _, product in page:
                yield product
            after = page[-1][0]

    def read_delta(
        self, since: int
    ) -> Tuple[int, Optional[Dict[ClusterId, Optional[Product]]]]:
        """The journal delta from snapshot ``since`` to the current head.

        One WAL read transaction covers the commit counter, the journal
        floor and the ``commit_journal`` rows, so the returned
        ``(head, delta)`` pair is internally consistent: applying
        ``delta`` (cluster id -> product-or-``None``, newest commit
        wins) on top of an index pinned at ``since`` yields exactly the
        catalog of commit ``head`` — no rebuild required.

        ``delta`` is ``None`` when the journal cannot prove coverage of
        ``(since, head]``: the store predates the journal, the rows were
        compacted past ``since``, or ``since`` is from another store's
        history (ahead of this head).  The caller must then fall back to
        :meth:`read_products` + a full index rebuild.  ``head == since``
        returns an empty delta (nothing to apply).  Like
        :meth:`commit_count`, observing a head other than the cached
        snapshot evicts that snapshot's pages.
        """
        with self._lock:
            connection = self._require_open()
            connection.execute("BEGIN")
            try:
                head = self._read_commit_count(connection)
                # A replica kept current by deltas alone never calls
                # commit_count(); its priming read's pages die here.
                self._evict_dead_pages(head)
                if head == since:
                    return head, {}
                try:
                    floor_row = connection.execute(
                        "SELECT value FROM meta WHERE key = 'journal_floor'"
                    ).fetchone()
                    if floor_row is None or since < int(floor_row[0]) or since > head:
                        return head, None
                    delta: Dict[ClusterId, Optional[Product]] = {}
                    for category_id, cluster_key, product_json in connection.execute(
                        "SELECT category_id, cluster_key, product FROM commit_journal"
                        " WHERE commit_id > ? AND commit_id <= ?"
                        " ORDER BY commit_id",
                        (since, head),
                    ):
                        product = (
                            None
                            if product_json is None
                            else product_from_dict(json.loads(product_json))
                        )
                        delta[(category_id, cluster_key)] = product
                    return head, delta
                except sqlite3.OperationalError:
                    # Legacy store file without a commit_journal table.
                    return head, None
            finally:
                connection.execute("COMMIT")

    def count_by_category(self) -> Tuple[int, Dict[str, int]]:
        """Category facet straight from disk: ``(commit_count, counts)``.

        A SQL aggregate over the clusters table — the JSON product
        payloads are never parsed, so the facet stays cheap even for
        catalogs the reader would not want to materialise.
        """
        with self._lock:
            connection = self._require_open()
            connection.execute("BEGIN")
            try:
                snapshot = self._read_commit_count(connection)
                counts = {
                    category_id: count
                    for category_id, count in connection.execute(
                        "SELECT category_id, COUNT(*) FROM clusters"
                        " WHERE product IS NOT NULL"
                        " GROUP BY category_id ORDER BY category_id"
                    )
                }
                return snapshot, counts
            finally:
                connection.execute("COMMIT")

    def num_products(self) -> int:
        """Number of committed products currently in the store."""
        with self._lock:
            connection = self._require_open()
            row = connection.execute(
                "SELECT COUNT(*) FROM clusters WHERE product IS NOT NULL"
            ).fetchone()
            return int(row[0])

    def cache_stats(self) -> Dict[str, int]:
        """Page-cache accounting (hits, misses, residency, evictions)."""
        with self._lock:
            return {
                "page_cache_hits": self._page_cache_hits,
                "page_cache_misses": self._page_cache_misses,
                "cached_pages": len(self._page_cache),
                "pages_evicted": self._pages_evicted,
                "peak_cached_pages": self._peak_cached_pages,
            }
