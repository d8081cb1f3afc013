"""The catalog serving facade: one pinned index version per service.

Every :class:`CatalogSearchService` serves a store file that other
processes write, through a read-only
:class:`~repro.serving.reader.CatalogReader`: it answers queries from
one published :class:`~repro.serving.index.CatalogIndex` version and
keeps that version current from the store's changed-cluster commit
journal.  When the commit counter moves, the journal names exactly the
clusters every commit touched, so the next version is derived from the
last one with O(changed) upserts/removes instead of a rebuild.  Only
when the journal cannot prove coverage (legacy file, compacted rows)
does it fall back to a full build — and the two paths are reported
distinctly (``delta_resyncs`` / ``full_resyncs`` /
``journal_truncations`` in :meth:`~CatalogSearchService.stats`).

A service's :meth:`~CatalogSearchService.follower` shares its reader and
its chain of versions: each commit is read, decoded and applied once,
however many services serve the store, and each service pins the version
it serves (the replicas of a :class:`~repro.serving.fleet.ServingFleet`).

The service guarantees **snapshot isolation** without a lock on the
query path: a query reads the pinned version — one reference — and
searches it.  A published version is never mutated, so it answers for
exactly one committed prefix of the ingest stream (reported as
``snapshot_commit_count``), never for a half-applied batch, and a resync
building the next version never blocks it.
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


class _Version:
    """One index version and the commit prefix it answers for."""

    __slots__ = ("index", "commit_count", "rebuilds", "truncations")

    def __init__(
        self, index: CatalogIndex, commit_count: int, rebuilds: int, truncations: int
    ) -> None:
        self.index = index
        self.commit_count = commit_count
        #: Full builds in the chain up to this version, and how many of
        #: them a truncated journal forced: a service moving between two
        #: versions made a delta resync only if no full build lies between.
        self.rebuilds = rebuilds
        self.truncations = truncations


class _Versions:
    """The chain of published versions the services over one store share.

    ``lock`` serialises the store reads that build the next version and
    the moves of ``latest``; the shared reader is closed with the last
    open service.
    """

    __slots__ = ("reader", "latest", "lock", "open_services")

    def __init__(self, reader: CatalogReader) -> None:
        self.reader = reader
        self.latest: Optional[_Version] = None
        self.lock = threading.Lock()
        self.open_services = 0


def _fold_delta(index: CatalogIndex, delta: Dict[ClusterId, Optional[Product]]) -> Tuple[int, int]:
    """Fold one journal delta into an unpublished index; returns ``(upserts, removes)``."""
    upserts = removes = 0
    for cluster_id, product in delta.items():
        if product is None:
            index.remove(stable_product_id(*cluster_id))
            removes += 1
        else:
            index.upsert(product)
            upserts += 1
    return upserts, removes


_NO_RESYNCS = {"resyncs": 0, "delta_resyncs": 0, "full_resyncs": 0, "journal_truncations": 0}


class CatalogSearchService:
    """Lock-free query front end over a pinned, incrementally maintained index.

    Open one with :meth:`from_store_path`, or with :meth:`follower` of an
    open one; the keyword-only constructor is theirs.
    """

    def __init__(self, *, versions: _Versions) -> None:
        self._versions = versions
        self._reader = versions.reader
        self._closed = False
        # Replaced by the priming pin at the end of the constructor.
        self._version = _Version(CatalogIndex(), 0, 0, 0)
        # Guards the query counter only: it is never held across index work.
        self._counter_lock = threading.Lock()
        self._queries_served = 0
        #: Resync-mode counters, replaced whole under the versions lock so a
        #: reader never sees half an update.
        self._resync_counts: Dict[str, int] = dict(_NO_RESYNCS)
        # Observability: the per-instance counters above are what stats()
        # reports; each increment is mirrored into a process-wide registry
        # counter, so the series sum over every replica and keep the counts
        # of closed or restarted ones.
        registry = get_registry()
        self._obs = registry
        self._obs_index_upserts = registry.counter(
            "serving_index_upserts_total",
            help="Products upserted into serving index versions by journal deltas.",
        )
        self._obs_index_removes = registry.counter(
            "serving_index_removes_total",
            help="Products removed from serving index versions by journal deltas.",
        )
        self._obs_queries = registry.counter(
            "serving_queries_total",
            help="Queries served (search, lookup, facet), all replicas.",
        )
        resyncs_help = (
            "Replica moves to a newer index version, by mode (journal delta vs full build)."
        )
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
        with versions.lock:
            versions.open_services += 1
            latest = versions.latest
        # The first service over a reader builds the first version; a
        # follower pins the latest one without a store read.
        self.resync(None if latest is None else latest.commit_count)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_store_path(cls, path: str) -> "CatalogSearchService":
        """Serve a store file written by another process (read-only).

        Opens a :class:`~repro.serving.reader.CatalogReader` over the
        WAL file and builds the first version from the committed
        snapshot.  Queries transparently resync when a writer commits —
        see :meth:`maybe_resync`.
        """
        return cls(versions=_Versions(CatalogReader(path)))

    def follower(self) -> "CatalogSearchService":
        """A new service over this one's reader and chain of versions.

        It serves the latest published version at once, without a store
        read; that first pin counts as its priming (full) resync.  Later
        resyncs of either service build each version once for both.
        """
        if self._closed:
            raise RuntimeError("a closed service has no followers")
        return type(self)(versions=self._versions)

    @property
    def reader(self) -> CatalogReader:
        """The read-only store handle this service shares with its followers."""
        return self._reader

    def close(self) -> None:
        """Stop serving the store (idempotent); the last service over a reader closes it."""
        if self._closed:
            return
        self._closed = True
        versions = self._versions
        with versions.lock:
            versions.open_services -= 1
            last = versions.open_services == 0
        if last:
            versions.reader.close()

    def __enter__(self) -> "CatalogSearchService":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self.close()

    # -- maintenance -----------------------------------------------------------

    def _pin(self, version: _Version, previous: _Version) -> None:
        """Serve ``version``, counting the move from ``previous`` by its mode.

        The caller holds the versions lock.  A service's first pin is
        its priming (full) resync; later, a move is a full resync when
        a full build lies between the two versions, else a delta resync.
        """
        self._version = version
        counts = dict(self._resync_counts)
        primed = counts["resyncs"] > 0
        if primed and version is previous:
            return
        counts["resyncs"] += 1
        if primed and version.rebuilds == previous.rebuilds:
            counts["delta_resyncs"] += 1
            self._obs_delta_resyncs.inc()
        else:
            counts["full_resyncs"] += 1
            self._obs_full_resyncs.inc()
            if primed and version.truncations != previous.truncations:
                counts["journal_truncations"] += 1
                self._obs_journal_truncations.inc()
        self._resync_counts = counts

    def resync(self, head: Optional[int] = None) -> int:
        """Catch the served version up to the store's committed head.

        Returns the commit count of the snapshot now served.  The
        service first takes the latest version any service over the same
        store built, then reads the store past it — one read, decode and
        apply per commit for all of them.  ``head`` is a store head the
        caller already read: when the latest version has reached it, the
        service moves to that version without reading the store.  Two
        paths, reported distinctly in :meth:`stats`:

        * **journal delta** — the reader's changed-cluster journal
          entries between the latest version and the head, folded into
          that version's derived successor: O(changed) upserts/removes
          (``delta_resyncs``).  The read is one WAL transaction, so the
          new version holds exactly the head's catalog.
        * **full build** — the explicit fallback when the journal
          cannot prove coverage (store predates the journal, rows were
          compacted past the latest version — counted as
          ``journal_truncations``) and for the priming build
          (``full_resyncs``).
        """
        versions = self._versions
        with self._obs.span("serving.resync"), versions.lock:
            previous = self._version
            latest = versions.latest
            truncated = False
            if latest is not None and (head is None or head > latest.commit_count):
                head, delta = self._reader.read_delta(latest.commit_count)
                if delta is None:
                    truncated = True
                elif head > latest.commit_count:
                    index = latest.index.derive()
                    upserts, removes = _fold_delta(index, delta)
                    if upserts:
                        self._obs_index_upserts.inc(upserts)
                    if removes:
                        self._obs_index_removes.inc(removes)
                    latest = _Version(index.publish(), head, latest.rebuilds, latest.truncations)
            if latest is None or truncated:
                snapshot, products = self._reader.read_products()
                # A read older than the latest version (a store file
                # swapped under the reader) would roll the served catalog
                # backwards — the non-monotonic read the snapshot
                # contract forbids — so it is dropped.
                if latest is None:
                    latest = _Version(CatalogIndex(products).publish(), snapshot, 1, 0)
                elif snapshot > latest.commit_count:
                    latest = _Version(
                        CatalogIndex(products).publish(),
                        snapshot,
                        latest.rebuilds + 1,
                        latest.truncations + 1,
                    )
            versions.latest = latest
            self._pin(latest, previous)
            return latest.commit_count

    def maybe_resync(self, max_lag_commits: int = 0) -> bool:
        """Resync when the served snapshot trails the store's head too far.

        ``max_lag_commits`` is the divergence bound: 0 (the default)
        resyncs on *any* newer commit — exactly-current serving; a
        positive bound lets the service keep answering from a snapshot
        at most that many commits behind, which is what a fleet replica
        runs with so index rebuilds stay off the request path.  Cheap
        when within bound — one ``meta`` row read (a fleet with a head
        watcher and a positive bound skips even that: it compares the
        snapshot with the head the watcher published).
        """
        head = self._reader.commit_count()
        if head - self.snapshot_commit_count <= max_lag_commits:
            return False
        self.resync(head)
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

        Both come from the one version the query read, so under
        concurrent maintenance (resyncs, a fleet's head watcher) the
        pair is guaranteed consistent — reading
        :attr:`snapshot_commit_count` *after* :meth:`search` is not.
        ``auto_resync=False`` skips the head check entirely (a fleet
        holds its replicas to its own lag bound before it calls).
        """
        if auto_resync:
            self.maybe_resync()
        version = self._version
        self._count_query()
        return version.commit_count, version.index.search(
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
        version = self._version
        self._count_query()
        return version.commit_count, version.index.get_product(product_id)

    def count_by_category(self) -> Dict[str, int]:
        """The category facet of the served snapshot."""
        self.maybe_resync()
        version = self._version
        self._count_query()
        return version.index.count_by_category()

    def _count_query(self) -> None:
        with self._counter_lock:
            self._queries_served += 1
        self._obs_queries.inc()

    # -- introspection ---------------------------------------------------------

    @property
    def snapshot_commit_count(self) -> int:
        """Commit barrier the served index corresponds to."""
        return self._version.commit_count

    @property
    def num_products(self) -> int:
        """Products in the served snapshot."""
        return self._version.index.num_products

    def resync_stats(self) -> Dict[str, int]:
        """Resync-mode counters: how the served version has been kept current.

        ``delta_resyncs`` counts moves to a version derived by journal
        deltas only, ``full_resyncs`` the priming pin and moves across a
        full build, and ``journal_truncations`` the moves across a full
        build a truncated/absent journal forced; ``resyncs`` is the
        total.  Services sharing a chain of versions count their own
        moves, while each version is built once.  The fleet's ``/lag``
        endpoint surfaces these per replica so operators can tell
        O(changed) maintenance from O(catalog) rebuild storms.
        """
        return dict(self._resync_counts)

    def stats(self) -> Dict[str, object]:
        """JSON-compatible service + index statistics (the ``/stats`` body).

        Resync counters live under the nested ``resync`` key — the same
        shape the fleet reports per replica.
        """
        version = self._version
        return {
            "snapshot_commit_count": version.commit_count,
            "queries_served": self._queries_served,
            "resync": self.resync_stats(),
            "index": version.index.stats(),
            "count_by_category": version.index.count_by_category(),
            # The reader has no page cache; the two keys stay at 0 because
            # bench/ledger.py reads them for ``reader.page_cache_hit_ratio``.
            "reader": {"page_cache_hits": 0, "page_cache_misses": 0},
            "store_path": self._reader.path,
        }
