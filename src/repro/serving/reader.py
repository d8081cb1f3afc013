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
in-memory mirror required), and hands out the store's changed-cluster
commit journal (:meth:`CatalogReader.read_delta`), the one way a
serving index is kept current after its priming read.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from typing import Dict, List, Optional, Tuple

from repro.model.persistence import product_from_dict
from repro.model.products import Product
from repro.runtime.state import ClusterId
from repro.runtime.store.sqlite import read_product_page

__all__ = ["CatalogReader"]

#: Products per keyset page of :meth:`CatalogReader.read_products`.
PAGE_SIZE = 256

#: How long a read waits for a writer's transaction before failing.
BUSY_TIMEOUT_MS = 30_000


class CatalogReader:
    """Query-side handle on a catalog store file (read-only, concurrent).

    ``path`` is the SQLite store file an engine or cluster writes; the
    file must exist (the reader never creates or mutates it).
    """

    def __init__(self, path: str) -> None:
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
        self._connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._lock = threading.Lock()

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
        """
        with self._lock:
            return self._read_commit_count(self._require_open())

    # -- reads -----------------------------------------------------------------

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
                    page = read_product_page(connection, after, PAGE_SIZE)
                    if not page:
                        break
                    products.extend(product for _, product in page)
                    after = page[-1][0]
                return snapshot, products
            finally:
                connection.execute("COMMIT")

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
        returns an empty delta (nothing to apply).
        """
        with self._lock:
            connection = self._require_open()
            connection.execute("BEGIN")
            try:
                head = self._read_commit_count(connection)
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
