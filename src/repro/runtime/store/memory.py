"""The in-memory catalog store (the engine's original behaviour).

Everything lives in plain dicts; cluster payloads handed to the engine
are live references, so serial execution stays zero-copy.
``commit`` is a no-op and nothing survives the process — use
:class:`~repro.runtime.store.sqlite.SqliteCatalogStore` for durability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.model.offers import Offer
from repro.model.products import Product
from repro.runtime.state import CatalogStore, ClusterId, ClusterState, _InMemoryState
from repro.synthesis.clustering import OfferCluster
from repro.synthesis.reconciliation import ReconciliationStats

__all__ = ["MemoryCatalogStore"]


class MemoryCatalogStore(CatalogStore):
    """Keep all engine state in process memory (fast, volatile)."""

    name = "memory"

    def __init__(self, journal_ring_size: int = 256) -> None:
        super().__init__()
        if journal_ring_size < 1:
            raise ValueError(f"journal_ring_size must be >= 1, got {journal_ring_size}")
        self._state = _InMemoryState()
        #: Commit journal as a bounded ring: the deque's maxlen silently
        #: drops the oldest entry, which is exactly journal truncation —
        #: the floor recomputes from the oldest surviving entry.
        self._journal: Deque[
            Tuple[int, Tuple[Tuple[ClusterId, Optional[Product]], ...]]
        ] = deque(maxlen=journal_ring_size)
        #: Highest commit id no longer provably covered by the ring.
        #: Raised when the ring evicts (or :meth:`compact_journal` runs);
        #: empty commits need no entry, so coverage is floor-based rather
        #: than per-commit.
        self._journal_floor = 0

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> None:
        """Nothing to flush, but the snapshot counter still advances.

        An installed fault hook fires first, so crash-injection tests
        can cut a batch down before it counts as committed — mirroring
        the durable backends, where a failed flush leaves the counter
        untouched.  A successful barrier drains the touched-cluster set
        into the journal ring, capturing each touched cluster's product
        *as of this commit* (products are replaced wholesale, never
        mutated, so holding the reference is snapshot-safe).
        """
        self._fault_point("commit")
        self._commit_count += 1
        touched = tuple(
            (cluster_id, self._state.clusters[cluster_id].product)
            for cluster_id in self._drain_touched()
            if cluster_id in self._state.clusters
        )
        if touched:
            if len(self._journal) == self._journal.maxlen:
                # The append below evicts the oldest entry; everything up
                # to (and including) its commit id stops being covered.
                self._journal_floor = self._journal[0][0]
            self._journal.append((self._commit_count, touched))
        self._obs_commits.inc()

    # -- changed-cluster commit journal ----------------------------------------

    def journal_floor(self) -> int:
        """Highest commit id not covered by the in-memory ring."""
        return self._journal_floor

    def journal_entries(
        self, since: int
    ) -> Optional[List[Tuple[int, List[Tuple[ClusterId, Optional[Product]]]]]]:
        """Per-commit deltas after ``since`` from the ring (oldest first)."""
        if since > self._commit_count or since < self._journal_floor:
            return None
        self._observe_journal_read(since)
        return [
            (commit_id, list(touched))
            for commit_id, touched in self._journal
            if commit_id > since
        ]

    def compact_journal(self, retain_commits: int = 0, auto: bool = False) -> int:
        """Drop ring entries, keeping at most the last ``retain_commits``.

        ``auto=True`` retains the deepest observed reader lag instead
        (see :meth:`repro.runtime.state.CatalogStore.compact_journal`).
        """
        if retain_commits < 0:
            raise ValueError(f"retain_commits must be >= 0, got {retain_commits}")
        if auto:
            low_water = self._take_auto_floor()
            if low_water is None:
                return self._journal_floor
            floor = max(self._journal_floor, min(low_water, self._commit_count))
        else:
            floor = max(self._journal_floor, self._commit_count - retain_commits)
        while self._journal and self._journal[0][0] <= floor:
            self._journal.popleft()
        self._journal_floor = floor
        return floor

    def close(self) -> None:
        """Nothing to release."""

    # -- seen offers -----------------------------------------------------------

    def is_seen(self, offer_id: str) -> bool:
        """Whether an offer id was already absorbed."""
        return offer_id in self._state.seen_offer_ids

    def mark_seen(self, offer_id: str) -> bool:
        """Record an offer id; ``False`` when it was already recorded."""
        self._fault_point("mark_seen")
        seen = self._state.seen_offer_ids
        if offer_id in seen:
            return False
        seen.add(offer_id)
        return True

    def num_seen(self) -> int:
        """Distinct offer ids absorbed so far."""
        return len(self._state.seen_offer_ids)

    # -- assigned categories ---------------------------------------------------

    def record_category(self, offer_id: str, category_id: str) -> None:
        """Remember which catalog category an offer was assigned to."""
        self._state.assigned_categories[offer_id] = category_id

    def assigned_categories(self) -> Dict[str, str]:
        """A copy of the offer-id -> category-id assignment map."""
        return dict(self._state.assigned_categories)

    # -- clusters --------------------------------------------------------------

    def get_cluster(self, cluster_id: ClusterId) -> Optional[ClusterState]:
        """The state of one cluster, or ``None`` when it does not exist."""
        return self._state.clusters.get(cluster_id)

    def create_cluster(self, shard_index: int, cluster_id: ClusterId) -> ClusterState:
        """Create (and return) an empty cluster in the given shard."""
        category_id, key = cluster_id
        state = ClusterState(
            shard_index=shard_index,
            cluster=OfferCluster(category_id=category_id, key=key),
        )
        self._state.clusters[cluster_id] = state
        self._state.shard_index.setdefault(shard_index, []).append(cluster_id)
        self._journal_touch(cluster_id)
        return state

    def append_offers(self, cluster_id: ClusterId, offers: List[Offer]) -> None:
        """Append reconciled offers to an existing cluster, in place."""
        self._fault_point("append_offers")
        self._state.clusters[cluster_id].cluster.offers.extend(offers)
        self._journal_touch(cluster_id)

    def set_product(self, cluster_id: ClusterId, product: Optional[Product]) -> None:
        """Record the (re-)fused product of a cluster."""
        self._fault_point("set_product")
        self._state.clusters[cluster_id].product = product
        self._journal_touch(cluster_id)

    def iter_clusters(self) -> Iterator[Tuple[ClusterId, ClusterState]]:
        """Iterate over every tracked cluster (live references)."""
        return iter(self._state.clusters.items())

    def shard_cluster_ids(self, shard_index: int) -> List[ClusterId]:
        """Ids of every cluster living in one shard."""
        return list(self._state.shard_index.get(shard_index, ()))

    def num_clusters(self) -> int:
        """Number of clusters tracked so far."""
        return len(self._state.clusters)

    # -- reconciliation stats --------------------------------------------------

    def merge_reconciliation_stats(self, stats: ReconciliationStats) -> None:
        """Fold one batch's counters into the running totals."""
        total = self._state.reconciliation_stats
        total.offers_processed += stats.offers_processed
        total.pairs_seen += stats.pairs_seen
        total.pairs_mapped += stats.pairs_mapped
        total.pairs_discarded += stats.pairs_discarded

    def reconciliation_stats(self) -> ReconciliationStats:
        """A copy of the accumulated reconciliation counters."""
        return replace(self._state.reconciliation_stats)

    # -- shard versions --------------------------------------------------------

    def shard_version(self, shard_index: int) -> int:
        """The delta-protocol version counter of one shard."""
        return self._state.shard_versions.get(shard_index, 0)

    def advance_shard_version(self, shard_index: int) -> Tuple[int, int]:
        """Bump a shard's version; returns ``(base, new)``."""
        base = self._state.shard_versions.get(shard_index, 0)
        self._state.shard_versions[shard_index] = base + 1
        return base, base + 1

    # -- shard epochs ----------------------------------------------------------

    def shard_epoch(self, shard_index: int) -> int:
        """The fencing epoch of one shard (0 = never owned)."""
        return self._state.shard_epochs.get(shard_index, 0)

    def advance_shard_epoch(self, shard_index: int) -> int:
        """Bump a shard's fencing epoch; returns the new epoch."""
        epoch = self._state.shard_epochs.get(shard_index, 0) + 1
        self._state.shard_epochs[shard_index] = epoch
        return epoch
