"""The in-memory catalog store (the engine's original behaviour).

Everything lives in plain dicts, and reads hand out live references:
nothing is decoded or copied.  ``apply`` does no I/O, so its fault
points are its only way to fail.  ``commit`` only advances the
snapshot counter: there is no commit journal and nothing survives the
process — use :class:`~repro.runtime.store.sqlite.SqliteCatalogStore`
for durability and for the journal serving replicas follow.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, Optional, Tuple

from repro.runtime.state import CatalogStore, ClusterId, ClusterState, StagedBatch, _InMemoryState
from repro.synthesis.reconciliation import ReconciliationStats

__all__ = ["MemoryCatalogStore"]


class MemoryCatalogStore(CatalogStore):
    """Keep all engine state in process memory (fast, volatile)."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._state = _InMemoryState()

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> None:
        """Nothing to flush, but the snapshot counter still advances.

        An installed fault hook fires first, so crash-injection tests
        can cut a batch down before it counts as committed — mirroring
        the durable backends, where a failed flush leaves the counter
        untouched.
        """
        self._fault_point("commit")
        self._commit_count += 1
        self._obs_commits.inc()

    def close(self) -> None:
        """Nothing to release."""

    # -- the one write ---------------------------------------------------------

    def apply(self, batch: StagedBatch) -> None:
        """Apply one staged batch to the dicts, after every fault point passed."""
        self._fault_points(batch)
        self._state.apply(batch, self._num_shards)

    # -- reads -----------------------------------------------------------------

    def is_seen(self, offer_id: str) -> bool:
        """Whether an offer id was already absorbed."""
        return offer_id in self._state.seen_offer_ids

    def num_seen(self) -> int:
        """Distinct offer ids absorbed so far."""
        return len(self._state.seen_offer_ids)

    def assigned_categories(self) -> Dict[str, str]:
        """A copy of the offer-id -> category-id assignment map."""
        return dict(self._state.assigned_categories)

    def get_cluster(self, cluster_id: ClusterId) -> Optional[ClusterState]:
        """The state of one cluster, or ``None`` when it does not exist."""
        return self._state.clusters.get(cluster_id)

    def iter_clusters(self) -> Iterator[Tuple[ClusterId, ClusterState]]:
        """Iterate over every tracked cluster (live references)."""
        return iter(self._state.clusters.items())

    def num_clusters(self) -> int:
        """Number of clusters tracked so far."""
        return len(self._state.clusters)

    def reconciliation_stats(self) -> ReconciliationStats:
        """A copy of the accumulated reconciliation counters."""
        return replace(self._state.reconciliation_stats)

    # -- shard epochs ----------------------------------------------------------

    def shard_epoch(self, shard_index: int) -> int:
        """The fencing epoch of one shard (0 = never owned)."""
        return self._state.shard_epochs.get(shard_index, 0)

    def advance_shard_epoch(self, shard_index: int) -> int:
        """Bump a shard's fencing epoch; returns the new epoch."""
        epoch = self._state.shard_epochs.get(shard_index, 0) + 1
        self._state.shard_epochs[shard_index] = epoch
        return epoch
