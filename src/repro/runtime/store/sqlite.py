"""Durable WAL-mode SQLite catalog store.

Layout (one row per fact, JSON payloads via the
:mod:`repro.model.persistence` serialisers)::

    meta(key, value)                      -- format version, shard count
    seen_offers(offer_id)                 -- ingest dedup set
    assigned_categories(offer_id, ...)    -- classifier output
    clusters(category_id, cluster_key, product)
    cluster_offers(category_id, cluster_key, position, offer)
    shard_versions(shard, version)        -- delta-protocol counters
    shard_epochs(shard, epoch)            -- multi-node fencing epochs
    reconciliation_stats(id=1, ...)       -- running totals
    commit_journal(commit_id, category_id, cluster_key, product)
                                          -- changed-cluster journal

The store keeps a full in-memory mirror (reads never touch disk on the
hot path) and journals mutations, flushing them in one transaction per
:meth:`commit` — the engine commits at the end of every ingest, so a
killed process loses at most the batch that was in flight.  Reopening
the same path restores the complete engine state; re-fusing restored
clusters yields byte-identical products because offers round-trip
exactly through the JSON serialisers.

Because the file is a consistent snapshot after every commit, process
workers of the delta re-fusion protocol can resync a shard straight from
it (:meth:`worker_resync_path`) instead of having cluster contents
re-shipped through the task queue.

**Multi-process sharing.**  A multi-process cluster
(:class:`~repro.runtime.procnode.MultiProcessEngine`) opens one store
instance *per node process* over the same WAL file, plus the
coordinator's.  Three mechanisms make that safe:

* every connection sets a busy timeout, so the per-node commit
  transactions at the cluster barrier serialise instead of failing;
* a store opened with ``partition=<node id>`` journals its
  reconciliation counters into a per-node row of
  ``node_reconciliation_stats`` (the shared-row strategy: no two
  processes ever update the same row), and reads fencing epochs straight
  from the file — the coordinator advances them from another process, so
  the mirror cannot be trusted for fencing decisions;
* :meth:`refresh_shards` reloads selected shards of the mirror from the
  last committed snapshot, which is how a shard's new owner picks up
  state the previous owner wrote;
* :meth:`iter_products` and the ``committed_*`` reads query the
  committed rows without the mirror, which is how the coordinator
  observes the nodes' barrier commits (its mirror is restored once, at
  open, and never rebuilt).

The seen-offer and cluster tables need no partitioning: routing sends
each offer to exactly one node and each shard has exactly one owner, so
cross-process writers never touch the same rows.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.model.offers import Offer
from repro.model.persistence import (
    offer_from_dict,
    offer_to_dict,
    product_from_dict,
    product_to_dict,
)
from repro.model.products import Product
from repro.obs import get_registry
from repro.runtime.sharding import shard_for_category
from repro.runtime.state import CatalogStore, ClusterId, ClusterState, _InMemoryState
from repro.synthesis.clustering import OfferCluster
from repro.synthesis.reconciliation import ReconciliationStats

__all__ = ["SqliteCatalogStore", "load_shard_clusters", "read_product_page"]

#: Bumped when the table layout changes incompatibly.
_FORMAT_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS seen_offers (
    offer_id TEXT PRIMARY KEY
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS assigned_categories (
    offer_id TEXT PRIMARY KEY,
    category_id TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS clusters (
    category_id TEXT NOT NULL,
    cluster_key TEXT NOT NULL,
    product TEXT,
    PRIMARY KEY (category_id, cluster_key)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS cluster_offers (
    category_id TEXT NOT NULL,
    cluster_key TEXT NOT NULL,
    position INTEGER NOT NULL,
    offer TEXT NOT NULL,
    PRIMARY KEY (category_id, cluster_key, position)
) WITHOUT ROWID;
-- Never written or read; format-1 code that still restores it opens our files.
CREATE TABLE IF NOT EXISTS category_stats (
    category_id TEXT PRIMARY KEY,
    stats TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS shard_versions (
    shard INTEGER PRIMARY KEY,
    version INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS shard_epochs (
    shard INTEGER PRIMARY KEY,
    epoch INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS reconciliation_stats (
    id INTEGER PRIMARY KEY CHECK (id = 1),
    offers_processed INTEGER NOT NULL,
    pairs_seen INTEGER NOT NULL,
    pairs_mapped INTEGER NOT NULL,
    pairs_discarded INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS node_reconciliation_stats (
    node_id TEXT PRIMARY KEY,
    offers_processed INTEGER NOT NULL,
    pairs_seen INTEGER NOT NULL,
    pairs_mapped INTEGER NOT NULL,
    pairs_discarded INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS commit_intents (
    id INTEGER PRIMARY KEY CHECK (id = 1),
    sequence INTEGER NOT NULL,
    payload BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS commit_journal (
    commit_id INTEGER NOT NULL,
    category_id TEXT NOT NULL,
    cluster_key TEXT NOT NULL,
    product TEXT,
    PRIMARY KEY (commit_id, category_id, cluster_key)
) WITHOUT ROWID;
"""


def load_shard_clusters(
    path: str, cluster_ids: List[ClusterId]
) -> Dict[ClusterId, List[Offer]]:
    """Load the committed offer lists of selected clusters from ``path``.

    Used by delta-protocol process workers to resync: the file reflects
    the last engine commit (= the state *before* the in-flight batch), so
    the caller applies the current batch's delta on top.  Missing
    clusters simply have no entry in the result.
    """
    # A plain read-only connection per call keeps the worker side free of
    # connection state; resyncs are rare (worker restart / fresh worker).
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        loaded: Dict[ClusterId, List[Offer]] = {}
        for category_id, cluster_key in cluster_ids:
            rows = connection.execute(
                "SELECT offer FROM cluster_offers"
                " WHERE category_id = ? AND cluster_key = ? ORDER BY position",
                (category_id, cluster_key),
            ).fetchall()
            if rows:
                loaded[(category_id, cluster_key)] = [
                    offer_from_dict(json.loads(row[0])) for row in rows
                ]
        return loaded
    finally:
        connection.close()


def read_product_page(
    connection: sqlite3.Connection,
    after: Optional[ClusterId] = None,
    limit: int = 256,
) -> List[Tuple[ClusterId, Product]]:
    """Read one page of committed products in (category, key) order.

    Keyset pagination over the ``clusters`` table: ``after`` is the last
    cluster id of the previous page (``None`` starts from the beginning),
    and only clusters that currently have a fused product are returned.
    The page comes straight from the database — no store mirror involved
    — which is what lets a read-only serving connection
    (:class:`repro.serving.reader.CatalogReader`) and
    :meth:`SqliteCatalogStore.iter_products` stream a catalog larger
    than they are willing to hold in memory.
    """
    if after is None:
        rows = connection.execute(
            "SELECT category_id, cluster_key, product FROM clusters"
            " WHERE product IS NOT NULL"
            " ORDER BY category_id, cluster_key LIMIT ?",
            (limit,),
        ).fetchall()
    else:
        rows = connection.execute(
            "SELECT category_id, cluster_key, product FROM clusters"
            " WHERE product IS NOT NULL AND"
            " (category_id > ? OR (category_id = ? AND cluster_key > ?))"
            " ORDER BY category_id, cluster_key LIMIT ?",
            (after[0], after[0], after[1], limit),
        ).fetchall()
    return [
        ((category_id, cluster_key), product_from_dict(json.loads(product_json)))
        for category_id, cluster_key, product_json in rows
    ]


class SqliteCatalogStore(CatalogStore):
    """Durable catalog store over a single SQLite file (WAL mode).

    ``partition`` opts a store instance into the multi-process sharing
    contract: reconciliation counters go to the named per-node row,
    fencing epochs are read authoritatively from the file instead of the
    mirror, and :meth:`advance_shard_epoch` is refused (only the
    coordinator — the unpartitioned instance — advances epochs).
    ``busy_timeout_ms`` bounds how long a write waits for another
    process's transaction before failing.
    """

    name = "sqlite"

    def __init__(
        self,
        path: str,
        partition: Optional[str] = None,
        busy_timeout_ms: int = 30_000,
    ) -> None:
        super().__init__()
        self._path = os.path.abspath(path)
        self._partition = partition
        self._partition_totals = ReconciliationStats()
        # check_same_thread=False: a multi-node engine dispatches node
        # sub-batches on worker threads; every store call is serialised
        # by the cluster layer's lock, so cross-thread use is safe.
        self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
            self._path, check_same_thread=False
        )
        # Before any write (including the schema script): multi-process
        # clusters open several connections over one file, and their
        # commits at the barrier must queue, not fail.
        self._connection.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        # Validate the format marker *before* touching the file: running
        # the schema script against a future-format store would write v1
        # tables into it, and restoring would crash with an opaque
        # OperationalError instead of this ValueError.
        stored_version = self._stored_format_version()
        if stored_version is not None and stored_version != _FORMAT_VERSION:
            self._connection.close()
            self._connection = None
            raise ValueError(
                f"unsupported catalog store format version: {stored_version}"
            )
        self._connection.executescript(_SCHEMA)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._state = _InMemoryState()
        # Mutation journals, flushed in one transaction per commit().
        self._new_seen: List[str] = []
        self._new_categories: List[Tuple[str, str]] = []
        self._new_clusters: List[ClusterId] = []
        self._new_offers: List[Tuple[str, str, int, str]] = []
        self._dirty_products: Dict[ClusterId, Optional[Product]] = {}
        self._dirty_versions: set = set()
        self._stats_dirty = False
        self._restore()
        if stored_version is None:
            self._connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("format_version", str(_FORMAT_VERSION)),
            )
        # Initialise the journal floor exactly once per file: a fresh
        # store covers everything (floor 0); a legacy file that predates
        # the journal covers nothing before its current head.  INSERT OR
        # IGNORE keeps concurrent multi-process opens race-safe.
        self._connection.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("journal_floor", str(self._commit_count)),
        )
        self._connection.commit()

    # -- restore ---------------------------------------------------------------

    def _stored_format_version(self) -> Optional[int]:
        """The format marker of an existing store file, before any writes."""
        assert self._connection is not None
        has_meta = self._connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name = 'meta'"
        ).fetchone()
        if has_meta is None:
            return None
        version = self._meta("format_version")
        return None if version is None else int(version)

    def _meta(self, key: str) -> Optional[str]:
        assert self._connection is not None
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _restore(self) -> None:
        """Populate the in-memory mirror from the persisted snapshot."""
        assert self._connection is not None
        state = self._state
        for (offer_id,) in self._connection.execute("SELECT offer_id FROM seen_offers"):
            state.seen_offer_ids.add(offer_id)
        for offer_id, category_id in self._connection.execute(
            "SELECT offer_id, category_id FROM assigned_categories"
        ):
            state.assigned_categories[offer_id] = category_id
        for category_id, cluster_key, product_json in self._connection.execute(
            "SELECT category_id, cluster_key, product FROM clusters"
        ):
            product = None
            if product_json is not None:
                product = product_from_dict(json.loads(product_json))
            # Shard assignment is recomputed at bind(); -1 marks unbound.
            state.clusters[(category_id, cluster_key)] = ClusterState(
                shard_index=-1,
                cluster=OfferCluster(category_id=category_id, key=cluster_key),
                product=product,
            )
        for category_id, cluster_key, offer_json in self._connection.execute(
            "SELECT category_id, cluster_key, offer FROM cluster_offers"
            " ORDER BY category_id, cluster_key, position"
        ):
            state.clusters[(category_id, cluster_key)].cluster.offers.append(
                offer_from_dict(json.loads(offer_json))
            )
        for shard, version in self._connection.execute(
            "SELECT shard, version FROM shard_versions"
        ):
            state.shard_versions[shard] = version
        for shard, epoch in self._connection.execute(
            "SELECT shard, epoch FROM shard_epochs"
        ):
            state.shard_epochs[shard] = epoch
        row = self._connection.execute(
            "SELECT offers_processed, pairs_seen, pairs_mapped, pairs_discarded"
            " FROM reconciliation_stats WHERE id = 1"
        ).fetchone()
        if row is not None:
            state.reconciliation_stats = ReconciliationStats(*row)
        commit_count = self._meta("commit_count")
        self._commit_count = 0 if commit_count is None else int(commit_count)
        # Global totals are the single-writer row plus every node
        # partition; a partitioned store also reloads its own slice so a
        # restarted node keeps accumulating where it left off.
        for node_id, *counts in self._connection.execute(
            "SELECT node_id, offers_processed, pairs_seen, pairs_mapped, pairs_discarded"
            " FROM node_reconciliation_stats"
        ):
            partial = ReconciliationStats(*counts)
            state.reconciliation_stats.offers_processed += partial.offers_processed
            state.reconciliation_stats.pairs_seen += partial.pairs_seen
            state.reconciliation_stats.pairs_mapped += partial.pairs_mapped
            state.reconciliation_stats.pairs_discarded += partial.pairs_discarded
            if node_id == self._partition:
                self._partition_totals = partial

    def bind(self, num_shards: int) -> None:
        """Bind to a shard count; a mismatch with the stored one resets epochs/versions."""
        super().bind(num_shards)
        stored = self._meta("num_shards")
        if stored is not None and int(stored) != num_shards:
            # Shard indices (and therefore per-shard version counters and
            # fencing epochs) are meaningless under a different shard
            # count; reset them.  Worker caches are keyed by store token,
            # so no worker can hold state for this store generation yet.
            self._state.shard_versions = {}
            self._state.shard_epochs = {}
            assert self._connection is not None
            self._connection.execute("DELETE FROM shard_versions")
            self._connection.execute("DELETE FROM shard_epochs")
        assert self._connection is not None
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("num_shards", str(num_shards)),
        )
        self._connection.commit()
        self._reindex_shards(num_shards)

    def _reindex_shards(self, num_shards: int) -> None:
        """Recompute every mirrored cluster's shard assignment."""
        self._state.shard_index = {}
        for cluster_id, cluster_state in self._state.clusters.items():
            shard = shard_for_category(cluster_id[0], num_shards)
            cluster_state.shard_index = shard
            self._state.shard_index.setdefault(shard, []).append(cluster_id)

    # -- lifecycle -------------------------------------------------------------

    def _require_open(self) -> sqlite3.Connection:
        """The live connection, or a clear error once the store is closed.

        Guards every mutating method: accepting writes into the mirror
        after ``close()`` would record facts (seen offers, cluster
        contents) that can never be flushed — the silent-loss gap the
        fail-fast contract exists to close.
        """
        if self._connection is None:
            raise RuntimeError(
                "catalog store is closed: writes after close() can never be "
                "persisted (reopen the store path to resume the stream)"
            )
        return self._connection

    def commit(self) -> None:
        """Flush journalled mutations in one transaction."""
        connection = self._require_open()
        self._fault_point("commit")
        if self._new_seen:
            connection.executemany(
                "INSERT OR IGNORE INTO seen_offers (offer_id) VALUES (?)",
                [(offer_id,) for offer_id in self._new_seen],
            )
        if self._new_categories:
            connection.executemany(
                "INSERT OR REPLACE INTO assigned_categories (offer_id, category_id)"
                " VALUES (?, ?)",
                self._new_categories,
            )
        if self._new_clusters:
            connection.executemany(
                "INSERT OR IGNORE INTO clusters (category_id, cluster_key, product)"
                " VALUES (?, ?, NULL)",
                self._new_clusters,
            )
        if self._new_offers:
            connection.executemany(
                "INSERT OR REPLACE INTO cluster_offers"
                " (category_id, cluster_key, position, offer) VALUES (?, ?, ?, ?)",
                self._new_offers,
            )
        # Each product is encoded once per commit: the same text goes to
        # ``clusters`` here and to ``commit_journal`` below.
        encoded: Dict[int, str] = {}

        def encode(product: Optional[Product]) -> Optional[str]:
            if product is None:
                return None
            text = encoded.get(id(product))
            if text is None:
                text = encoded[id(product)] = json.dumps(product_to_dict(product))
            return text

        if self._dirty_products:
            connection.executemany(
                "UPDATE clusters SET product = ? WHERE category_id = ? AND cluster_key = ?",
                [
                    (encode(product), category_id, cluster_key)
                    for (category_id, cluster_key), product in self._dirty_products.items()
                ],
            )
        if self._dirty_versions:
            connection.executemany(
                "INSERT OR REPLACE INTO shard_versions (shard, version) VALUES (?, ?)",
                [
                    (shard, self._state.shard_versions.get(shard, 0))
                    for shard in sorted(self._dirty_versions)
                ],
            )
        if self._stats_dirty:
            if self._partition is None:
                totals = self._state.reconciliation_stats
                connection.execute(
                    "INSERT OR REPLACE INTO reconciliation_stats"
                    " (id, offers_processed, pairs_seen, pairs_mapped, pairs_discarded)"
                    " VALUES (1, ?, ?, ?, ?)",
                    (
                        totals.offers_processed,
                        totals.pairs_seen,
                        totals.pairs_mapped,
                        totals.pairs_discarded,
                    ),
                )
                # The mirror total already folded every node partition in
                # at restore time; leaving those rows behind would count
                # them twice on the next restore.  An unpartitioned
                # writer (single engine resumed over a cluster's file)
                # therefore absorbs the partitions into the global row.
                connection.execute("DELETE FROM node_reconciliation_stats")
            else:
                # Shared-row strategy: a node flushes only its own
                # partition row, so concurrent barrier commits from
                # other node processes never collide on a shared total.
                own = self._partition_totals
                connection.execute(
                    "INSERT OR REPLACE INTO node_reconciliation_stats"
                    " (node_id, offers_processed, pairs_seen, pairs_mapped, pairs_discarded)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (
                        self._partition,
                        own.offers_processed,
                        own.pairs_seen,
                        own.pairs_mapped,
                        own.pairs_discarded,
                    ),
                )
        # The snapshot counter is incremented atomically in SQL (and read
        # back) rather than written from the mirror: several node-process
        # connections of a multi-process cluster commit through this same
        # row, and a mirror-based write would lose their increments.
        connection.execute(
            "INSERT INTO meta (key, value) VALUES ('commit_count', '1')"
            " ON CONFLICT(key) DO UPDATE SET"
            " value = CAST(CAST(value AS INTEGER) + 1 AS TEXT)"
        )
        # The new commit id is read *inside* the open write transaction:
        # another process committing concurrently cannot slip between the
        # increment and the read, so the journal rows below carry exactly
        # this barrier's id.  This is also why every engine flavor gets a
        # journal for free — single, multi-node (FencedStoreView
        # delegates here) and multi-process (each node process commits
        # through its own instance of this store) all pass this point.
        commit_id = int(self._meta("commit_count") or 0)
        self._fault_point("journal")
        if self._touched_clusters:
            with get_registry().span("store.journal_write"):
                connection.executemany(
                    "INSERT OR REPLACE INTO commit_journal"
                    " (commit_id, category_id, cluster_key, product) VALUES (?, ?, ?, ?)",
                    [
                        (
                            commit_id,
                            cluster_id[0],
                            cluster_id[1],
                            encode(self._state.clusters[cluster_id].product),
                        )
                        for cluster_id in self._touched_clusters
                        if cluster_id in self._state.clusters
                    ],
                )
        connection.commit()
        self._obs_commits.inc()
        self._commit_count = commit_id
        self._touched_clusters.clear()
        self._new_seen = []
        self._new_categories = []
        self._new_clusters = []
        self._new_offers = []
        self._dirty_products = {}
        self._dirty_versions = set()
        self._stats_dirty = False

    def close(self) -> None:
        """Flush pending mutations and close the connection (idempotent)."""
        if self._connection is None:
            return
        self.commit()
        self._connection.close()
        self._connection = None

    @property
    def supports_rollback(self) -> bool:
        """True: the last on-disk commit is a restorable snapshot."""
        return True

    def _clear_journal(self) -> None:
        """Drop every journalled (not yet flushed) mutation."""
        self._new_seen = []
        self._new_categories = []
        self._new_clusters = []
        self._new_offers = []
        self._dirty_products = {}
        self._dirty_versions = set()
        self._stats_dirty = False
        self._touched_clusters.clear()

    def _rebuild_mirror(self) -> None:
        """Re-read the full persisted snapshot into a fresh mirror."""
        self._state = _InMemoryState()
        self._partition_totals = ReconciliationStats()
        self._restore()
        if self._num_shards:
            self._reindex_shards(self._num_shards)

    def rollback(self) -> None:
        """Discard everything since the last commit; reload from disk.

        The file is a consistent snapshot after every commit, so crash
        recovery is exactly a mirror rebuild: drop the journalled
        mutations, re-read the persisted state, and re-index the shards.
        The store token is deliberately kept — delta-protocol worker
        caches that ran ahead of the discarded batch are then caught by
        the version/base-size guards and resync from this same file.
        """
        connection = self._require_open()
        connection.rollback()
        self._clear_journal()
        self._rebuild_mirror()

    def refresh_shards(self, shard_indices: List[int]) -> None:
        """Reload selected shards' committed state into the mirror.

        Used on shard handoff: the new owner's mirror predates whatever
        the previous owner committed, so its clusters, products and
        delta-protocol version counters for the moved shards are re-read
        from the file.  The caller must guarantee the previous owner has
        committed (membership changes happen between batch barriers, so
        it has).
        """
        connection = self._require_open()
        targets = {shard for shard in shard_indices if shard >= 0}
        if not targets or self._num_shards == 0:
            return
        for shard in targets:
            for cluster_id in self._state.shard_index.get(shard, ()):
                self._state.clusters.pop(cluster_id, None)
            self._state.shard_index[shard] = []
        reloaded: List[ClusterId] = []
        for category_id, cluster_key, product_json in connection.execute(
            "SELECT category_id, cluster_key, product FROM clusters"
        ).fetchall():
            shard = shard_for_category(category_id, self._num_shards)
            if shard not in targets:
                continue
            product = None
            if product_json is not None:
                product = product_from_dict(json.loads(product_json))
            cluster_id = (category_id, cluster_key)
            self._state.clusters[cluster_id] = ClusterState(
                shard_index=shard,
                cluster=OfferCluster(category_id=category_id, key=cluster_key),
                product=product,
            )
            self._state.shard_index[shard].append(cluster_id)
            reloaded.append(cluster_id)
        for category_id, cluster_key in reloaded:
            rows = connection.execute(
                "SELECT offer FROM cluster_offers"
                " WHERE category_id = ? AND cluster_key = ? ORDER BY position",
                (category_id, cluster_key),
            ).fetchall()
            self._state.clusters[(category_id, cluster_key)].cluster.offers.extend(
                offer_from_dict(json.loads(row[0])) for row in rows
            )
        for shard, version in connection.execute(
            "SELECT shard, version FROM shard_versions"
        ).fetchall():
            if shard in targets:
                self._state.shard_versions[shard] = version

    @property
    def closed(self) -> bool:
        """Whether the connection was released (writes are then refused)."""
        return self._connection is None

    @property
    def path(self) -> str:
        """Absolute path of the backing SQLite file."""
        return self._path

    @property
    def partition(self) -> Optional[str]:
        """Node id this instance journals its global counters under.

        ``None`` for a single-writer (or coordinator) store; a node id
        for the per-process instances of a multi-process cluster.
        """
        return self._partition

    def worker_resync_path(self) -> Optional[str]:
        """The SQLite file itself: workers resync straight from it."""
        return self._path

    # -- commit intents --------------------------------------------------------

    def write_commit_intent(self, sequence: int, payload: bytes) -> None:
        """Durably record a batch's imminent commit round, immediately.

        Like :meth:`advance_shard_epoch`, the intent is flushed right
        away rather than journalled: it must survive exactly the crashes
        it guards against (a coordinator or node dying between vote and
        flush), and it must not be discarded by a batch rollback.  The
        coordinator's connection carries no journalled batch state —
        everything else is journalled Python-side — so this commit is
        precise.  Refused for partitioned (node) stores: only the
        coordinator runs commit barriers.
        """
        if self._partition is not None:
            raise RuntimeError(
                "a partitioned node store cannot write commit intents; "
                "only the coordinator's store instance runs the barrier"
            )
        connection = self._require_open()
        connection.execute(
            "INSERT OR REPLACE INTO commit_intents (id, sequence, payload)"
            " VALUES (1, ?, ?)",
            (sequence, payload),
        )
        connection.commit()
        self._commit_intent = (sequence, payload)

    def clear_commit_intent(self) -> None:
        """Drop the pending intent once its batch fully committed."""
        if self._partition is not None:
            raise RuntimeError(
                "a partitioned node store cannot clear commit intents; "
                "only the coordinator's store instance runs the barrier"
            )
        connection = self._require_open()
        connection.execute("DELETE FROM commit_intents WHERE id = 1")
        connection.commit()
        self._commit_intent = None

    def pending_commit_intent(self) -> Optional[Tuple[int, bytes]]:
        """The persisted ``(sequence, payload)`` intent, or ``None``.

        Read straight from the file: a restarted coordinator consults
        this before its first batch to replay an interrupted barrier.
        """
        connection = self._require_open()
        row = connection.execute(
            "SELECT sequence, payload FROM commit_intents WHERE id = 1"
        ).fetchone()
        self._commit_intent = None if row is None else (int(row[0]), row[1])
        return self._commit_intent

    # -- changed-cluster commit journal ----------------------------------------

    def journal_floor(self) -> int:
        """Highest commit id not covered by the durable journal."""
        self._require_open()
        floor = self._meta("journal_floor")
        return self._commit_count if floor is None else int(floor)

    def journal_entries(
        self, since: int
    ) -> Optional[List[Tuple[int, List[Tuple[ClusterId, Optional[Product]]]]]]:
        """Per-commit deltas after ``since`` from ``commit_journal``.

        Head and floor come from the file (not the mirror), so the call
        is correct even when other processes committed since this
        instance's last barrier.  Returns ``None`` when coverage of
        ``(since, head]`` cannot be proven.
        """
        connection = self._require_open()
        head = int(self._meta("commit_count") or 0)
        floor = self._meta("journal_floor")
        if floor is None or since < int(floor) or since > head:
            return None
        self._observe_journal_read(since)
        grouped: Dict[int, List[Tuple[ClusterId, Optional[Product]]]] = {}
        for commit_id, category_id, cluster_key, product_json in connection.execute(
            "SELECT commit_id, category_id, cluster_key, product FROM commit_journal"
            " WHERE commit_id > ? ORDER BY commit_id, category_id, cluster_key",
            (since,),
        ):
            product = (
                None
                if product_json is None
                else product_from_dict(json.loads(product_json))
            )
            grouped.setdefault(int(commit_id), []).append(
                ((category_id, cluster_key), product)
            )
        return [(commit_id, grouped[commit_id]) for commit_id in sorted(grouped)]

    def compact_journal(self, retain_commits: int = 0, auto: bool = False) -> int:
        """Drop journal rows, keeping coverage of the last ``retain_commits``.

        Flushed immediately (like fencing epochs): the raised floor must
        be visible to every reader process at once, or a reader could
        apply a delta the deleted rows no longer back.  Readers pinned
        below the new floor fall back to a full rebuild.

        ``auto=True`` retains the deepest observed reader lag instead
        (see :meth:`repro.runtime.state.CatalogStore.compact_journal`);
        only readers of *this* store instance count — cross-process
        readers (:class:`~repro.serving.reader.CatalogReader`) read the
        file directly and are invisible here, so auto-compact from the
        connection the readers poll through.
        """
        if retain_commits < 0:
            raise ValueError(f"retain_commits must be >= 0, got {retain_commits}")
        connection = self._require_open()
        head = int(self._meta("commit_count") or 0)
        if auto:
            low_water = self._take_auto_floor()
            if low_water is None:
                return self.journal_floor()
            floor = max(self.journal_floor(), min(low_water, head))
        else:
            floor = max(self.journal_floor(), head - retain_commits)
        connection.execute("DELETE FROM commit_journal WHERE commit_id <= ?", (floor,))
        connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('journal_floor', ?)",
            (str(floor),),
        )
        connection.commit()
        return floor

    # -- seen offers -----------------------------------------------------------

    def is_seen(self, offer_id: str) -> bool:
        """Whether an offer id was absorbed (mirror read, no disk I/O)."""
        return offer_id in self._state.seen_offer_ids

    def mark_seen(self, offer_id: str) -> bool:
        """Record an offer id in mirror + journal; ``False`` when known."""
        self._require_open()
        self._fault_point("mark_seen")
        seen = self._state.seen_offer_ids
        if offer_id in seen:
            return False
        seen.add(offer_id)
        self._new_seen.append(offer_id)
        return True

    def num_seen(self) -> int:
        """Distinct offer ids absorbed so far (mirror read)."""
        return len(self._state.seen_offer_ids)

    # -- assigned categories ---------------------------------------------------

    def record_category(self, offer_id: str, category_id: str) -> None:
        """Remember an offer's category (journalled, flushed at commit)."""
        self._require_open()
        self._state.assigned_categories[offer_id] = category_id
        self._new_categories.append((offer_id, category_id))

    def assigned_categories(self) -> Dict[str, str]:
        """A copy of the mirrored offer-id -> category-id map."""
        return dict(self._state.assigned_categories)

    # -- clusters --------------------------------------------------------------

    def get_cluster(self, cluster_id: ClusterId) -> Optional[ClusterState]:
        """The mirrored state of one cluster, or ``None``."""
        return self._state.clusters.get(cluster_id)

    def create_cluster(self, shard_index: int, cluster_id: ClusterId) -> ClusterState:
        """Create an empty cluster (journalled, flushed at commit)."""
        self._require_open()
        category_id, key = cluster_id
        state = ClusterState(
            shard_index=shard_index,
            cluster=OfferCluster(category_id=category_id, key=key),
        )
        self._state.clusters[cluster_id] = state
        self._state.shard_index.setdefault(shard_index, []).append(cluster_id)
        self._new_clusters.append(cluster_id)
        self._journal_touch(cluster_id)
        return state

    def append_offers(self, cluster_id: ClusterId, offers: List[Offer]) -> None:
        """Append offers to a cluster (mirror now, disk at commit)."""
        self._require_open()
        self._fault_point("append_offers")
        cluster = self._state.clusters[cluster_id].cluster
        position = len(cluster.offers)
        category_id, cluster_key = cluster_id
        for offset, offer in enumerate(offers):
            self._new_offers.append(
                (category_id, cluster_key, position + offset, json.dumps(offer_to_dict(offer)))
            )
        cluster.offers.extend(offers)
        self._journal_touch(cluster_id)

    def set_product(self, cluster_id: ClusterId, product: Optional[Product]) -> None:
        """Record a cluster's fused product (journalled)."""
        self._require_open()
        self._fault_point("set_product")
        self._state.clusters[cluster_id].product = product
        self._dirty_products[cluster_id] = product
        self._journal_touch(cluster_id)

    def iter_clusters(self) -> Iterator[Tuple[ClusterId, ClusterState]]:
        """Iterate over every mirrored cluster."""
        return iter(self._state.clusters.items())

    def shard_cluster_ids(self, shard_index: int) -> List[ClusterId]:
        """Ids of every mirrored cluster living in one shard."""
        return list(self._state.shard_index.get(shard_index, ()))

    def num_clusters(self) -> int:
        """Number of clusters tracked so far."""
        return len(self._state.clusters)

    def iter_products(self, page_size: int = 256) -> Iterator[Product]:
        """Stream committed products from disk, one page at a time.

        Unlike :meth:`sorted_products` (which serves the mirror and
        therefore includes uncommitted batch state), this reads the last
        *committed* snapshot via keyset pagination and never needs the
        mirror: it is how a cluster coordinator lists what its process
        nodes committed.  Uncommitted journal entries are invisible by
        construction: the journal lives Python-side until :meth:`commit`
        flushes it.
        """
        connection = self._require_open()
        after: Optional[ClusterId] = None
        while True:
            page = read_product_page(connection, after, page_size)
            if not page:
                return
            for _, product in page:
                yield product
            after = page[-1][0]

    # -- committed reads -------------------------------------------------------
    # Straight from the file, never the mirror: what every connection
    # committed, and nothing of this instance's own journal.

    def _count_rows(self, table: str) -> int:
        """Rows of one table in the last commit."""
        connection = self._require_open()
        return int(connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])

    def committed_num_clusters(self) -> int:
        """Clusters in the last commit, read from the file."""
        return self._count_rows("clusters")

    def committed_num_seen(self) -> int:
        """Distinct offer ids in the last commit, read from the file."""
        return self._count_rows("seen_offers")

    def committed_seen(self, offer_ids: Iterable[str]) -> Set[str]:
        """Which of ``offer_ids`` the file's seen set holds."""
        connection = self._require_open()
        return {
            offer_id
            for offer_id in offer_ids
            if connection.execute(
                "SELECT 1 FROM seen_offers WHERE offer_id = ?", (offer_id,)
            ).fetchone()
            is not None
        }

    def committed_assigned_categories(self) -> Dict[str, str]:
        """The offer-id -> category-id map of the last commit, read from the file."""
        connection = self._require_open()
        return dict(
            connection.execute("SELECT offer_id, category_id FROM assigned_categories")
        )

    def committed_reconciliation_stats(self) -> ReconciliationStats:
        """The global row plus every node partition row of the last commit."""
        connection = self._require_open()
        totals = ReconciliationStats()
        for processed, seen, mapped, discarded in connection.execute(
            "SELECT offers_processed, pairs_seen, pairs_mapped, pairs_discarded"
            " FROM reconciliation_stats"
            " UNION ALL SELECT offers_processed, pairs_seen, pairs_mapped, pairs_discarded"
            " FROM node_reconciliation_stats"
        ):
            totals.offers_processed += processed
            totals.pairs_seen += seen
            totals.pairs_mapped += mapped
            totals.pairs_discarded += discarded
        return totals

    def committed_shard_loads(self) -> Dict[int, float]:
        """Offers held per shard in the last commit, counted in the file."""
        connection = self._require_open()
        loads: Dict[int, float] = {}
        for category_id, held in connection.execute(
            "SELECT category_id, COUNT(*) FROM cluster_offers GROUP BY category_id"
        ):
            shard = shard_for_category(category_id, self._num_shards)
            loads[shard] = loads.get(shard, 0.0) + held
        return loads

    # -- reconciliation stats --------------------------------------------------

    def merge_reconciliation_stats(self, stats: ReconciliationStats) -> None:
        """Fold one batch's counters into the running totals.

        A partitioned store additionally accumulates its own slice,
        which is what :meth:`commit` flushes to the per-node row.
        """
        self._require_open()
        total = self._state.reconciliation_stats
        total.offers_processed += stats.offers_processed
        total.pairs_seen += stats.pairs_seen
        total.pairs_mapped += stats.pairs_mapped
        total.pairs_discarded += stats.pairs_discarded
        if self._partition is not None:
            own = self._partition_totals
            own.offers_processed += stats.offers_processed
            own.pairs_seen += stats.pairs_seen
            own.pairs_mapped += stats.pairs_mapped
            own.pairs_discarded += stats.pairs_discarded
        self._stats_dirty = True

    def reconciliation_stats(self) -> ReconciliationStats:
        """A copy of the accumulated totals (all partitions merged).

        Other processes' partitions count as of this instance's restore;
        :meth:`committed_reconciliation_stats` reads the file.
        """
        totals = self._state.reconciliation_stats
        return ReconciliationStats(
            offers_processed=totals.offers_processed,
            pairs_seen=totals.pairs_seen,
            pairs_mapped=totals.pairs_mapped,
            pairs_discarded=totals.pairs_discarded,
        )

    # -- shard versions --------------------------------------------------------

    def shard_version(self, shard_index: int) -> int:
        """The delta-protocol version counter of one shard (mirror)."""
        return self._state.shard_versions.get(shard_index, 0)

    def advance_shard_version(self, shard_index: int) -> Tuple[int, int]:
        """Bump a shard's version (journalled); returns ``(base, new)``."""
        self._require_open()
        base = self._state.shard_versions.get(shard_index, 0)
        self._state.shard_versions[shard_index] = base + 1
        self._dirty_versions.add(shard_index)
        return base, base + 1

    # -- shard epochs ----------------------------------------------------------

    def shard_epoch(self, shard_index: int) -> int:
        """The authoritative fencing epoch of one shard.

        A partitioned (node-process) store reads the epoch straight from
        the file on every call: the coordinator advances epochs from
        *another process*, so the local mirror cannot be trusted for
        fencing decisions — a fenced-out zombie consulting its mirror
        would happily keep writing.  The unpartitioned instance is the
        only epoch writer and serves the mirror.
        """
        if self._partition is not None and self._connection is not None:
            row = self._connection.execute(
                "SELECT epoch FROM shard_epochs WHERE shard = ?", (shard_index,)
            ).fetchone()
            epoch = 0 if row is None else int(row[0])
            self._state.shard_epochs[shard_index] = epoch
            return epoch
        return self._state.shard_epochs.get(shard_index, 0)

    def advance_shard_epoch(self, shard_index: int) -> int:
        """Bump a shard's fencing epoch, durably and immediately.

        Unlike the journalled mutations, the epoch is flushed right away:
        fencing decisions must survive exactly the crashes they guard
        against, and they must not be discarded by a batch rollback.
        (The connection carries no other pending statements — everything
        else is journalled Python-side — so this commit is precise.)
        """
        if self._partition is not None:
            raise RuntimeError(
                "a partitioned node store cannot advance fencing epochs; "
                "only the coordinator's store instance fences shards"
            )
        connection = self._require_open()
        epoch = self._state.shard_epochs.get(shard_index, 0) + 1
        self._state.shard_epochs[shard_index] = epoch
        connection.execute(
            "INSERT OR REPLACE INTO shard_epochs (shard, epoch) VALUES (?, ?)",
            (shard_index, epoch),
        )
        connection.commit()
        return epoch
