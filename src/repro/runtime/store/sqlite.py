"""Durable WAL-mode SQLite catalog store.

Layout (one row per fact, JSON payloads via the
:mod:`repro.model.persistence` serialisers)::

    meta(key, value)                      -- format version, shard count
    seen_offers(offer_id)                 -- ingest dedup set
    assigned_categories(offer_id, ...)    -- classifier output
    clusters(category_id, cluster_key, product)
    cluster_offers(category_id, cluster_key, position, offer)
    shard_versions(shard, version)        -- unused; kept for format-1 readers
    shard_epochs(shard, epoch)            -- multi-node fencing epochs
    reconciliation_stats(id=1, ...)       -- running totals
    commit_journal(commit_id, category_id, cluster_key, product)
                                          -- changed-cluster journal

The store keeps a full in-memory mirror (reads never touch disk on the
hot path).  :meth:`~SqliteCatalogStore.apply` encodes each staged batch
into one queued journal and applies it to the mirror; :meth:`commit`
writes the queued journal in one transaction — the engine commits at
the end of every ingest, so a killed process loses at most the batch
that was in flight.  Reopening the same path restores the complete
engine state; re-fusing restored clusters yields byte-identical
products because offers round-trip exactly through the JSON
serialisers.

**One write path.**  What :meth:`SqliteCatalogStore.commit` writes is a
:class:`StoreJournal`: the batch's rows, already JSON-encoded by
``apply``.  ``commit()`` hands its queued journal to
:meth:`~SqliteCatalogStore.write_journals`, which writes any number of
journals as *one* transaction under one commit id.

**Multi-process sharing.**  A multi-process cluster
(:class:`~repro.runtime.procnode.MultiProcessEngine`) has exactly one
writer, the coordinator's store instance.  Each node process opens the
same WAL file as a read-only mirror:

* a store opened with ``partition=<node id>`` connects ``mode=ro`` (as
  :class:`~repro.serving.reader.CatalogReader` does); its batches land
  in its mirror and queued journal only, and any write it attempts raises
  :class:`sqlite3.OperationalError`;
* after each ingest the node drains its journal
  (:meth:`~SqliteCatalogStore.drain_journal`) with the lease epochs it
  wrote under, and ships it in its vote.  The coordinator writes every
  voter's journal in one transaction, checking those epochs against the
  file's ``shard_epochs`` inside it, so a batch lands whole or not at
  all and readers see one commit per batch;
* :meth:`~SqliteCatalogStore.refresh_shards` reloads selected shards of
  a mirror (and every fencing epoch) from the last commit, which is how
  a shard's new owner picks up the state the previous owner voted;
* :meth:`~SqliteCatalogStore.iter_products` and the ``committed_*``
  reads query the committed rows without the mirror, which is how the
  coordinator observes its barrier writes (its mirror is restored once,
  at open, and never rebuilt).

Reconciliation totals are one global row; each commit adds its batch's
counters to it.  Files written by older clusters also hold per-node
``node_reconciliation_stats`` rows, which every read still sums in.
"""

from __future__ import annotations

import json
import os
import sqlite3
import weakref
from dataclasses import astuple, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
from repro.runtime.state import (
    CatalogStore,
    ClusterId,
    ClusterState,
    StagedBatch,
    StaleEpochError,
    _add_stats,
    _InMemoryState,
)
from repro.synthesis.clustering import OfferCluster
from repro.synthesis.reconciliation import ReconciliationStats

__all__ = ["SqliteCatalogStore", "StoreJournal", "read_product_page"]

#: Bumped when the table layout changes incompatibly.
_FORMAT_VERSION = 1

#: How long a connection to the file waits for another connection's
#: transaction (a writer's lock, a checkpoint) before failing.
BUSY_TIMEOUT_MS = 30_000

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
-- Never written or read; format-1 code that still restores them opens our files.
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
-- Written only by older clusters (one row per node); reads still sum it in.
CREATE TABLE IF NOT EXISTS node_reconciliation_stats (
    node_id TEXT PRIMARY KEY,
    offers_processed INTEGER NOT NULL,
    pairs_seen INTEGER NOT NULL,
    pairs_mapped INTEGER NOT NULL,
    pairs_discarded INTEGER NOT NULL
) WITHOUT ROWID;
-- Never written: a row an older coordinator left makes the open fail.
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


@dataclass
class StoreJournal:
    """The rows one batch adds to the file, encoded and ready to write.

    Queued by :meth:`SqliteCatalogStore.apply`, taken by ``commit`` or
    :meth:`SqliteCatalogStore.drain_journal`, and written by
    :meth:`SqliteCatalogStore.write_journals`, possibly
    over another connection in another process: a cluster node ships its
    journal to the coordinator inside its vote.
    """

    seen: List[str] = field(default_factory=list)
    #: ``(offer id, category id)`` rows of ``assigned_categories``.
    categories: List[Tuple[str, str]] = field(default_factory=list)
    #: Clusters created by the batch.
    clusters: List[ClusterId] = field(default_factory=list)
    #: ``(category id, cluster key, position, offer json)`` rows of ``cluster_offers``.
    offers: List[Tuple[str, str, int, str]] = field(default_factory=list)
    #: ``(product json or None, category id, cluster key)`` product updates.
    products: List[Tuple[Optional[str], str, str]] = field(default_factory=list)
    #: The batch's reconciliation counters, added to the global row.
    stats: Optional[Tuple[int, int, int, int]] = None
    #: ``(category id, cluster key, product json or None)`` rows of the
    #: commit's ``commit_journal`` entry: every cluster given a product.
    touched: List[Tuple[str, str, Optional[str]]] = field(default_factory=list)
    #: Shard -> fencing epoch the rows were written under; the write is
    #: refused unless each is the file's current epoch.  Empty for a
    #: single writer, which holds no lease.
    epochs: Dict[int, int] = field(default_factory=dict)


class SqliteCatalogStore(CatalogStore):
    """Durable catalog store over a single SQLite file (WAL mode).

    ``partition=<node id>`` opens the file as a cluster node's read-only
    mirror: the connection is ``mode=ro``, :meth:`commit` and every
    other write raise :class:`sqlite3.OperationalError`, and the node
    hands its batches over with :meth:`drain_journal` instead.  Opening
    a file that holds a commit intent left by an older cluster
    coordinator raises ``ValueError``.  A write waits up to
    :data:`BUSY_TIMEOUT_MS` for another process's transaction.
    """

    name = "sqlite"

    def __init__(
        self,
        path: str,
        partition: Optional[str] = None,
    ) -> None:
        super().__init__()
        # Weak: a replaced or closed store must not be pinned in memory
        # by the registry (a closed one reads 0, its callback failing).
        ref = weakref.ref(self)
        get_registry().gauge(
            "journal_floor",
            help="Highest commit id not covered by the commit journal.",
            labels={"backend": self.name},
            callback=lambda: (lambda s: 0 if s is None else s.journal_floor())(ref()),
        )
        self._path = os.path.abspath(path)
        self._partition = partition
        # check_same_thread=False: a multi-node engine dispatches node
        # sub-batches on worker threads; every store call is serialised
        # by the cluster layer's lock, so cross-thread use is safe.  A
        # node's mirror never writes: its connection is read-only.
        self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
            self._path if partition is None else f"file:{self._path}?mode=ro",
            uri=partition is not None,
            check_same_thread=False,
        )
        # Before any statement: a reader must wait out the writer's
        # checkpoints, and a second writer its transaction, not fail.
        self._connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
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
        if partition is None:
            self._connection.executescript(_SCHEMA)
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            if self._connection.execute("SELECT 1 FROM commit_intents").fetchone():
                self._connection.close()
                self._connection = None
                raise ValueError(
                    f"catalog store {self._path} holds a commit intent left by an older "
                    "cluster coordinator; finish that batch with the version that wrote it"
                )
        self._state = _InMemoryState()
        # The applied batches not yet written; commit() writes them.
        self._queued = StoreJournal()
        self._restore()
        if partition is not None:
            return
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
        # Global totals are the global row plus the per-node rows older
        # clusters wrote.
        for counts in self._connection.execute(
            "SELECT offers_processed, pairs_seen, pairs_mapped, pairs_discarded"
            " FROM node_reconciliation_stats"
        ):
            _add_stats(state.reconciliation_stats, ReconciliationStats(*counts))

    def bind(self, num_shards: int) -> None:
        """Bind to a shard count; a mismatch with the stored one resets the epochs."""
        super().bind(num_shards)
        if self._partition is not None:
            # A node's mirror: the coordinator bound the file before
            # starting it.
            self._reindex_shards(num_shards)
            return
        stored = self._meta("num_shards")
        if stored is not None and int(stored) != num_shards:
            # Shard indices (and therefore fencing epochs) are meaningless
            # under a different shard count; reset them.
            self._state.shard_epochs = {}
            assert self._connection is not None
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
        for cluster_id, cluster_state in self._state.clusters.items():
            cluster_state.shard_index = shard_for_category(cluster_id[0], num_shards)

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
        """Write the queued journal in one transaction.

        The journal stays queued until the write succeeded, so a failed
        commit can be retried (or :meth:`rollback` discards it).
        """
        self.write_journals([self._queued])
        self._queued = StoreJournal()

    def drain_journal(self, epochs: Dict[int, int]) -> StoreJournal:
        """Take the queued journal for another connection to write.

        ``epochs`` (shard -> epoch) are the lease the batches were applied
        under; :meth:`write_journals` refuses the journal unless each is
        still current.  The mirror keeps the batches: after the write it
        equals the file again, and after a refused write
        :meth:`rollback` rebuilds it.
        """
        journal, self._queued = self._queued, StoreJournal()
        journal.epochs = dict(epochs)
        return journal

    def write_journals(self, journals: Sequence[StoreJournal]) -> int:
        """Write ``journals`` as one commit; returns its commit id.

        One transaction: every journal's rows, one ``commit_count``
        increment, and one ``commit_journal`` entry naming every cluster
        the journals touched.  Inside it, each journal's epochs are
        checked against the file's ``shard_epochs``; a stale one raises
        :class:`~repro.runtime.state.StaleEpochError`.  On any failure
        the transaction is rolled back, so nothing of any journal lands.
        The mirror is not touched: it is whatever built the journals.
        """
        connection = self._require_open()
        try:
            self._fault_point("commit")
            for journal in journals:
                self._write_rows(connection, journal)
            # The snapshot counter is incremented in SQL and read back
            # inside the open write transaction, so the journal rows below
            # carry exactly this commit's id.
            connection.execute(
                "INSERT INTO meta (key, value) VALUES ('commit_count', '1')"
                " ON CONFLICT(key) DO UPDATE SET"
                " value = CAST(CAST(value AS INTEGER) + 1 AS TEXT)"
            )
            commit_id = int(self._meta("commit_count") or 0)
            if any(journal.epochs for journal in journals):
                self._check_epochs(connection, journals)
            self._fault_point("journal")
            touched = [
                (commit_id, category_id, cluster_key, product)
                for journal in journals
                for category_id, cluster_key, product in journal.touched
            ]
            if touched:
                with get_registry().span("store.journal_write"):
                    connection.executemany(
                        "INSERT OR REPLACE INTO commit_journal"
                        " (commit_id, category_id, cluster_key, product) VALUES (?, ?, ?, ?)",
                        touched,
                    )
            connection.commit()
        except BaseException:
            connection.rollback()
            raise
        self._obs_commits.inc()
        self._commit_count = commit_id
        return commit_id

    @staticmethod
    def _write_rows(connection: sqlite3.Connection, journal: StoreJournal) -> None:
        """Execute one journal's row writes (inside the caller's transaction)."""
        if journal.seen:
            connection.executemany(
                "INSERT OR IGNORE INTO seen_offers (offer_id) VALUES (?)",
                [(offer_id,) for offer_id in journal.seen],
            )
        if journal.categories:
            connection.executemany(
                "INSERT OR REPLACE INTO assigned_categories (offer_id, category_id)"
                " VALUES (?, ?)",
                journal.categories,
            )
        if journal.clusters:
            connection.executemany(
                "INSERT OR IGNORE INTO clusters (category_id, cluster_key, product)"
                " VALUES (?, ?, NULL)",
                journal.clusters,
            )
        if journal.offers:
            connection.executemany(
                "INSERT OR REPLACE INTO cluster_offers"
                " (category_id, cluster_key, position, offer) VALUES (?, ?, ?, ?)",
                journal.offers,
            )
        if journal.products:
            connection.executemany(
                "UPDATE clusters SET product = ? WHERE category_id = ? AND cluster_key = ?",
                journal.products,
            )
        if journal.stats is not None:
            connection.execute(
                "INSERT INTO reconciliation_stats"
                " (id, offers_processed, pairs_seen, pairs_mapped, pairs_discarded)"
                " VALUES (1, ?, ?, ?, ?) ON CONFLICT(id) DO UPDATE SET"
                " offers_processed = offers_processed + excluded.offers_processed,"
                " pairs_seen = pairs_seen + excluded.pairs_seen,"
                " pairs_mapped = pairs_mapped + excluded.pairs_mapped,"
                " pairs_discarded = pairs_discarded + excluded.pairs_discarded",
                journal.stats,
            )

    @staticmethod
    def _check_epochs(connection: sqlite3.Connection, journals: Sequence[StoreJournal]) -> None:
        """Refuse the write unless every journal's epochs are the file's."""
        current = dict(connection.execute("SELECT shard, epoch FROM shard_epochs"))
        for journal in journals:
            for shard_index, epoch in sorted(journal.epochs.items()):
                if current.get(shard_index, 0) != epoch:
                    raise StaleEpochError(
                        f"journal for shard {shard_index} carries epoch {epoch} but the "
                        f"store is at epoch {current.get(shard_index, 0)}: the node that "
                        "wrote it was fenced, and nothing of this batch was written"
                    )

    def close(self) -> None:
        """Commit pending mutations and close the connection (idempotent).

        A node's read-only mirror has nothing it may write and just closes.
        """
        if self._connection is None:
            return
        if self._partition is None:
            self.commit()
        self._connection.close()
        self._connection = None

    @property
    def supports_rollback(self) -> bool:
        """True: the last on-disk commit is a restorable snapshot."""
        return True

    def _rebuild_mirror(self) -> None:
        """Re-read the full persisted snapshot into a fresh mirror."""
        self._state = _InMemoryState()
        self._restore()
        if self._num_shards:
            self._reindex_shards(self._num_shards)

    def rollback(self) -> None:
        """Discard everything since the last commit; reload from disk.

        The file is a consistent snapshot after every commit, so crash
        recovery is exactly a mirror rebuild: drop the queued journal,
        re-read the persisted state, and re-index the shards.
        """
        connection = self._require_open()
        connection.rollback()
        self._queued = StoreJournal()
        self._rebuild_mirror()

    def refresh_shards(self, shard_indices: List[int]) -> None:
        """Reload selected shards' committed state, and every epoch, into the mirror.

        Used on shard handoff: the new owner's mirror predates whatever
        the previous owner's batches wrote, so its clusters and products
        for the moved shards are re-read from the file.  The fencing epochs are re-read whole: the
        coordinator bumped them in the file before it handed the shards
        over.  The caller must guarantee the previous owner's batches
        are written (membership changes happen between batch barriers, so
        they are).
        """
        connection = self._require_open()
        self._state.shard_epochs = dict(
            connection.execute("SELECT shard, epoch FROM shard_epochs").fetchall()
        )
        targets = {shard for shard in shard_indices if shard >= 0}
        if not targets or self._num_shards == 0:
            return
        clusters = self._state.clusters
        for cluster_id in [key for key, state in clusters.items() if state.shard_index in targets]:
            del clusters[cluster_id]
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
            clusters[cluster_id] = ClusterState(
                shard_index=shard,
                cluster=OfferCluster(category_id=category_id, key=cluster_key),
                product=product,
            )
            reloaded.append(cluster_id)
        for category_id, cluster_key in reloaded:
            rows = connection.execute(
                "SELECT offer FROM cluster_offers"
                " WHERE category_id = ? AND cluster_key = ? ORDER BY position",
                (category_id, cluster_key),
            ).fetchall()
            clusters[(category_id, cluster_key)].cluster.offers.extend(
                offer_from_dict(json.loads(row[0])) for row in rows
            )

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
        """The node id of a cluster node's read-only mirror.

        ``None`` for the file's writer (a single engine or a cluster
        coordinator).
        """
        return self._partition

    # -- changed-cluster commit journal ----------------------------------------

    def journal_floor(self) -> int:
        """Highest commit id not covered by the durable journal."""
        self._require_open()
        floor = self._meta("journal_floor")
        return self._commit_count if floor is None else int(floor)

    def compact_journal(self, retain_commits: int = 0) -> int:
        """Drop journal rows, keeping coverage of the last ``retain_commits``.

        Flushed immediately (like fencing epochs): the raised floor must
        be visible to every reader process at once, or a reader could
        apply a delta the deleted rows no longer back.  Readers pinned
        below the new floor fall back to a full rebuild.  Returns the
        new floor.
        """
        if retain_commits < 0:
            raise ValueError(f"retain_commits must be >= 0, got {retain_commits}")
        connection = self._require_open()
        head = int(self._meta("commit_count") or 0)
        floor = max(self.journal_floor(), head - retain_commits)
        connection.execute("DELETE FROM commit_journal WHERE commit_id <= ?", (floor,))
        connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('journal_floor', ?)",
            (str(floor),),
        )
        connection.commit()
        return floor

    # -- the one write ---------------------------------------------------------

    def apply(self, batch: StagedBatch) -> None:
        """Encode one staged batch into the queued journal, then apply it to the mirror.

        Every fault point fires before either changes, so a failed apply
        leaves both as they were.  The next :meth:`commit` writes the
        journal (a node's read-only mirror hands it over with
        :meth:`drain_journal` instead).
        """
        self._require_open()
        self._fault_points(batch)
        journal = self._queued
        journal.seen.extend(batch.seen)
        journal.categories.extend(batch.categories)
        if batch.stats is not None:
            counts = astuple(batch.stats)
            if journal.stats is not None:
                counts = tuple(map(sum, zip(journal.stats, counts)))
            journal.stats = counts
        journal.clusters.extend(batch.clusters)
        for cluster_id, offers in batch.offers.items():
            self.append_offers(cluster_id, offers)
        for cluster_id, product in batch.products.items():
            self.set_product(cluster_id, product)
        self._state.apply(batch, self._num_shards)

    def append_offers(self, cluster_id: ClusterId, offers: List[Offer]) -> None:
        """Queue the encoded rows of offers appended to one cluster.

        A step of :meth:`apply`, kept as a method of its own so a
        profiler can time it by name.  The rows are positioned after the
        cluster's mirrored offers; the mirror itself is left to ``apply``.
        """
        state = self._state.clusters.get(cluster_id)
        position = 0 if state is None else state.size()
        category_id, cluster_key = cluster_id
        self._queued.offers.extend(
            (category_id, cluster_key, position + offset, json.dumps(offer_to_dict(offer)))
            for offset, offer in enumerate(offers)
        )

    def set_product(self, cluster_id: ClusterId, product: Optional[Product]) -> None:
        """Queue one cluster's product update and journal row, encoded once.

        A step of :meth:`apply`, kept as a method of its own so a
        profiler can time it by name; the mirror is left to ``apply``.
        """
        text = None if product is None else json.dumps(product_to_dict(product))
        category_id, cluster_key = cluster_id
        self._queued.products.append((text, category_id, cluster_key))
        self._queued.touched.append((category_id, cluster_key, text))

    # -- reads -----------------------------------------------------------------

    def is_seen(self, offer_id: str) -> bool:
        """Whether an offer id was absorbed (mirror read, no disk I/O)."""
        return offer_id in self._state.seen_offer_ids

    def num_seen(self) -> int:
        """Distinct offer ids absorbed so far (mirror read)."""
        return len(self._state.seen_offer_ids)

    def assigned_categories(self) -> Dict[str, str]:
        """A copy of the mirrored offer-id -> category-id map."""
        return dict(self._state.assigned_categories)

    def get_cluster(self, cluster_id: ClusterId) -> Optional[ClusterState]:
        """The mirrored state of one cluster, or ``None``."""
        return self._state.clusters.get(cluster_id)

    def iter_clusters(self) -> Iterator[Tuple[ClusterId, ClusterState]]:
        """Iterate over every mirrored cluster."""
        return iter(self._state.clusters.items())

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

    def committed_assigned_categories(self) -> Dict[str, str]:
        """The offer-id -> category-id map of the last commit, read from the file."""
        connection = self._require_open()
        return dict(
            connection.execute("SELECT offer_id, category_id FROM assigned_categories")
        )

    def committed_reconciliation_stats(self) -> ReconciliationStats:
        """The global row plus older clusters' per-node rows, of the last commit."""
        connection = self._require_open()
        totals = ReconciliationStats()
        for counts in connection.execute(
            "SELECT offers_processed, pairs_seen, pairs_mapped, pairs_discarded"
            " FROM reconciliation_stats"
            " UNION ALL SELECT offers_processed, pairs_seen, pairs_mapped, pairs_discarded"
            " FROM node_reconciliation_stats"
        ):
            _add_stats(totals, ReconciliationStats(*counts))
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

    def reconciliation_stats(self) -> ReconciliationStats:
        """A copy of the totals in the mirror.

        Other connections' commits count as of this instance's restore;
        :meth:`committed_reconciliation_stats` reads the file.
        """
        totals = self._state.reconciliation_stats
        return ReconciliationStats(
            offers_processed=totals.offers_processed,
            pairs_seen=totals.pairs_seen,
            pairs_mapped=totals.pairs_mapped,
            pairs_discarded=totals.pairs_discarded,
        )

    # -- shard epochs ----------------------------------------------------------

    def shard_epoch(self, shard_index: int) -> int:
        """The fencing epoch of one shard, from the mirror.

        Authoritative on the file's writer, the only instance that
        advances epochs.  A node's mirror holds the epochs of its last
        restore or :meth:`refresh_shards`; what fences a node process is
        the coordinator's check of its journal's epochs at the write.
        """
        return self._state.shard_epochs.get(shard_index, 0)

    def advance_shard_epoch(self, shard_index: int) -> int:
        """Bump a shard's fencing epoch, durably and immediately.

        Unlike the journalled mutations, the epoch is flushed right away:
        fencing decisions must survive exactly the crashes they guard
        against, and they must not be discarded by a batch rollback.
        (The connection carries no other pending statements — everything
        else is journalled Python-side — so this commit is precise.)  The
        mirror moves only once the file did.
        """
        connection = self._require_open()
        epoch = self._state.shard_epochs.get(shard_index, 0) + 1
        connection.execute(
            "INSERT OR REPLACE INTO shard_epochs (shard, epoch) VALUES (?, ?)",
            (shard_index, epoch),
        )
        connection.commit()
        self._state.shard_epochs[shard_index] = epoch
        return epoch
