"""The in-memory catalog store (the engine's original behaviour).

Everything lives in plain dicts; cluster payloads handed to the engine
are live references, so serial execution stays zero-copy.
``commit`` only advances the snapshot counter: there is no commit
journal and nothing survives the process — use
:class:`~repro.runtime.store.sqlite.SqliteCatalogStore` for durability
and for the journal serving replicas follow.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.offers import Offer
from repro.model.products import Product
from repro.runtime.state import CatalogStore, ClusterId, ClusterState, _InMemoryState
from repro.synthesis.clustering import OfferCluster
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
        return state

    def append_offers(self, cluster_id: ClusterId, offers: List[Offer]) -> None:
        """Append reconciled offers to an existing cluster, in place."""
        self._fault_point("append_offers")
        self._state.clusters[cluster_id].cluster.offers.extend(offers)

    def set_product(self, cluster_id: ClusterId, product: Optional[Product]) -> None:
        """Record the (re-)fused product of a cluster."""
        self._fault_point("set_product")
        self._state.clusters[cluster_id].product = product

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
