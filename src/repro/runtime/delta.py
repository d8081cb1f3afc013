"""The delta re-fusion protocol (worker-resident shard state).

The original engine shipped the *full* contents of every touched cluster
to its shard executor on every batch — for a process pool that means
re-pickling clusters that keep growing, so per-batch payloads scale with
cluster size instead of batch size.

This module replaces that with deltas.  Process workers keep the cluster
state of the shards pinned to them (see
:meth:`~repro.runtime.executors.ProcessPoolShardExecutor.map_pinned`)
and each batch ships only:

* the *new* offers appended to each touched cluster, plus the cluster
  size the delta applies on top of (``base_size`` — the per-cluster
  consistency check), and
* a per-shard version counter pair so a worker that restarted or fell
  behind is detected immediately.

A worker whose cached cluster does not match ``base_size`` resyncs: from
the durable store directly when the task carries a
``resync_path`` (SQLite reflects the last commit, i.e. exactly the
pre-batch state), otherwise by reporting the cluster ids back so the
engine re-ships their full contents once.

Everything here is module-level and pickle-friendly on purpose: tasks
travel to worker processes, and the worker cache must live in module
state so it survives between ``map_pinned`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.model.offers import Offer
from repro.model.products import Product
from repro.runtime.state import ClusterId
from repro.synthesis.clustering import OfferCluster
from repro.synthesis.fusion import CentroidValueFusion, MemoizedValueFusion
from repro.synthesis.pipeline import build_product_from_cluster

__all__ = [
    "ClusterDelta",
    "DeltaShardTask",
    "DeltaShardResult",
    "TransportStats",
    "fuse_delta_shard",
    "reset_worker_caches",
]


@dataclass
class ClusterDelta:
    """What one touched cluster gained in the current batch."""

    cluster_id: ClusterId
    #: Catalog attributes to fuse (category schema or observed names).
    attribute_names: List[str]
    #: Cluster size *before* this batch; 0 means "replace: ``new_offers``
    #: is the complete cluster content" (fresh cluster or resync retry).
    base_size: int
    new_offers: List[Offer]
    #: False for sub-threshold clusters: apply the delta (keep the worker
    #: cache current) but skip fusion — there is no product yet.
    fuse: bool = True


@dataclass
class DeltaShardTask:
    """One shard's delta payload for one batch."""

    #: Token of the store generation; worker caches are keyed by it.
    store_token: str
    shard_index: int
    #: Version the deltas apply on top of / version after applying them.
    base_version: int
    new_version: int
    deltas: List[ClusterDelta]
    #: The *base* fusion strategy; workers wrap it in a memo themselves.
    fusion: CentroidValueFusion
    #: Durable store file workers can resync from (``None`` = memory store).
    resync_path: Optional[str] = None


@dataclass
class DeltaShardResult:
    """What a worker did with one :class:`DeltaShardTask`."""

    #: Parallel to ``task.deltas``; ``None`` where ``fuse`` was false,
    #: fusion yielded nothing, or the cluster is listed in ``missing``.
    products: List[Optional[Product]]
    #: Clusters the worker could not reconstruct (stale/absent cache and
    #: no usable resync source) — the engine re-ships these in full.
    missing: List[ClusterId] = field(default_factory=list)
    #: Clusters reloaded from the durable store (worker self-resync).
    resynced: int = 0


@dataclass
class TransportStats:
    """Cumulative executor-payload accounting of one engine.

    ``offers_shipped`` is the interesting number: with full-state
    shipping it grows with *cluster* sizes every batch; with the delta
    protocol it grows with *batch* sizes (every offer ships once, plus
    the rare resync retry).
    """

    batches: int = 0
    shard_tasks: int = 0
    clusters_shipped: int = 0
    offers_shipped: int = 0
    #: Clusters process workers reloaded from the durable store.
    worker_resyncs: int = 0
    #: Clusters re-shipped in full after a worker reported them missing.
    full_retries: int = 0
    #: Pipe-protocol frames a cluster coordinator sent to its nodes.
    frames_sent: int = 0
    #: Pipe-protocol frames a cluster coordinator received from nodes.
    frames_received: int = 0
    #: Serialized payload bytes of the sent frames.
    frame_bytes_sent: int = 0
    #: Serialized payload bytes of the received frames.
    frame_bytes_received: int = 0
    #: Offers whose routing hint pointed at the wrong node and that were
    #: re-shipped to their true owner at the classification barrier.
    misrouted_offers: int = 0
    #: Offers that were hint-routed at all (misrouted or not); the
    #: denominator of :attr:`hint_accuracy`.
    hinted_offers: int = 0

    @property
    def hint_accuracy(self) -> Optional[float]:
        """Fraction of hint-routed offers whose hint was correct.

        ``None`` when hint routing never ran (no denominator) — the
        gauge the ROADMAP asks for: an accuracy that degrades over a
        stream is the signal to retrain or widen the hinter's vote
        table, *before* misroute re-ships start dominating transport.
        """
        if self.hinted_offers == 0:
            return None
        return 1.0 - self.misrouted_offers / self.hinted_offers

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary."""
        return {
            "batches": self.batches,
            "shard_tasks": self.shard_tasks,
            "clusters_shipped": self.clusters_shipped,
            "offers_shipped": self.offers_shipped,
            "worker_resyncs": self.worker_resyncs,
            "full_retries": self.full_retries,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "frame_bytes_sent": self.frame_bytes_sent,
            "frame_bytes_received": self.frame_bytes_received,
            "misrouted_offers": self.misrouted_offers,
            "hinted_offers": self.hinted_offers,
            "hint_accuracy": self.hint_accuracy,
        }

    def merge(self, other: "TransportStats") -> None:
        """Fold another engine's counters into this one.

        A multi-node engine aggregates its per-node transport accounting
        this way; counters are plain sums, so the merge is order-free.
        """
        self.batches += other.batches
        self.shard_tasks += other.shard_tasks
        self.clusters_shipped += other.clusters_shipped
        self.offers_shipped += other.offers_shipped
        self.worker_resyncs += other.worker_resyncs
        self.full_retries += other.full_retries
        self.frames_sent += other.frames_sent
        self.frames_received += other.frames_received
        self.frame_bytes_sent += other.frame_bytes_sent
        self.frame_bytes_received += other.frame_bytes_received
        self.misrouted_offers += other.misrouted_offers
        self.hinted_offers += other.hinted_offers

    def metrics_fragment(
        self, labels: Optional[Dict[str, str]] = None
    ) -> Dict[str, object]:
        """This accounting as a :mod:`repro.obs` snapshot fragment.

        The registry *reads through* pre-existing stat objects instead of
        double-writing them: engines and cluster coordinators register a
        provider that calls this, so ``registry.snapshot()`` and
        ``/metrics`` expose the same counters ``transport_stats()``
        reports, under stable family names.
        """
        from repro.obs import series_key, snapshot_fragment

        fields = {
            "transport_batches_total": self.batches,
            "transport_shard_tasks_total": self.shard_tasks,
            "transport_clusters_shipped_total": self.clusters_shipped,
            "transport_offers_shipped_total": self.offers_shipped,
            "transport_worker_resyncs_total": self.worker_resyncs,
            "transport_full_retries_total": self.full_retries,
            "pipe_frames_sent_total": self.frames_sent,
            "pipe_frames_received_total": self.frames_received,
            "pipe_frame_bytes_sent_total": self.frame_bytes_sent,
            "pipe_frame_bytes_received_total": self.frame_bytes_received,
            "routing_misrouted_offers_total": self.misrouted_offers,
            "routing_hinted_offers_total": self.hinted_offers,
        }
        help_texts = {
            "transport_batches_total": "Engine batches shipped to shard executors.",
            "transport_shard_tasks_total": "Per-shard executor tasks dispatched.",
            "transport_clusters_shipped_total": "Touched clusters shipped (delta or full).",
            "transport_offers_shipped_total": "Offers serialised into executor payloads.",
            "transport_worker_resyncs_total": "Clusters workers reloaded from the durable store.",
            "transport_full_retries_total": "Clusters re-shipped in full after a cache miss.",
            "pipe_frames_sent_total": "Pipe-protocol frames sent to cluster node processes.",
            "pipe_frames_received_total": "Pipe-protocol frames received from node processes.",
            "pipe_frame_bytes_sent_total": "Serialized payload bytes of sent pipe frames.",
            "pipe_frame_bytes_received_total": "Serialized payload bytes of received pipe frames.",
            "routing_misrouted_offers_total": "Hint-routed offers re-homed at the classify barrier.",
            "routing_hinted_offers_total": "Offers routed via category hints at all.",
        }
        counters = {
            series_key(name, labels): float(value)
            for name, value in fields.items()
            if value
        }
        gauges: Dict[str, float] = {}
        accuracy = self.hint_accuracy
        if accuracy is not None:
            gauges[series_key("routing_hint_accuracy", labels)] = accuracy
        families = {
            name: {"type": "counter", "help": help_texts[name]}
            for name in fields
            if fields[name]
        }
        if accuracy is not None:
            families["routing_hint_accuracy"] = {
                "type": "gauge",
                "help": "Fraction of hint-routed offers whose hint was correct.",
            }
        return snapshot_fragment(counters=counters, gauges=gauges, families=families)


@dataclass
class _ShardCache:
    """Worker-resident state of one (store generation, shard) pair."""

    version: int
    clusters: Dict[ClusterId, OfferCluster]
    fusion: MemoizedValueFusion


#: (store_token, shard_index) -> worker-resident shard state.  Lives in
#: the worker process; at most one store generation is kept per shard.
_SHARD_CACHES: Dict[Tuple[str, int], _ShardCache] = {}


def reset_worker_caches() -> None:
    """Drop all worker-resident shard state (tests / diagnostics)."""
    _SHARD_CACHES.clear()


def _shard_cache(task: DeltaShardTask) -> _ShardCache:
    cache_key = (task.store_token, task.shard_index)
    cache = _SHARD_CACHES.get(cache_key)
    if cache is None:
        # A new store generation supersedes any cache the previous one
        # left behind for this shard — drop it so memory stays bounded.
        for stale_key in [
            key
            for key in _SHARD_CACHES
            if key[1] == task.shard_index and key[0] != task.store_token
        ]:
            del _SHARD_CACHES[stale_key]
        cache = _ShardCache(
            version=0,
            clusters={},
            # Worker-resident memo: re-selections of unchanged attribute
            # value lists become dictionary lookups across batches —
            # something the old ship-everything protocol could never keep
            # because its pickled payloads dropped the cache every batch.
            fusion=MemoizedValueFusion(task.fusion),
        )
        _SHARD_CACHES[cache_key] = cache
    return cache


def fuse_delta_shard(task: DeltaShardTask) -> DeltaShardResult:
    """Apply one shard's deltas to the worker cache and fuse its clusters.

    Module-level and deterministic: the same task stream yields the same
    products in any worker, which is what keeps delta execution
    byte-identical to serial full-state fusion.
    """
    cache = _shard_cache(task)
    if cache.version != task.base_version:
        # The worker fell behind (missed a dispatch) or restarted with a
        # fresh cache: distrust every cached cluster of this shard.  The
        # touched ones resync below (from the store or via the engine's
        # full re-ship); untouched ones rebuild the same way when they
        # are next touched.  The per-cluster base_size check alone would
        # also catch every stale cluster (sizes only grow), so the
        # version counter is the coarse fast-detector the protocol
        # advertises, and base_size stays as the belt-and-braces guard.
        cache.clusters.clear()
    unresolved: List[ClusterDelta] = []
    for delta in task.deltas:
        category_id, key = delta.cluster_id
        if delta.base_size == 0:
            cache.clusters[delta.cluster_id] = OfferCluster(
                category_id=category_id, key=key, offers=list(delta.new_offers)
            )
            continue
        cluster = cache.clusters.get(delta.cluster_id)
        if cluster is not None and len(cluster.offers) == delta.base_size:
            cluster.offers.extend(delta.new_offers)
        else:
            unresolved.append(delta)

    resynced = 0
    if unresolved and task.resync_path is not None:
        from repro.runtime.store.sqlite import load_shard_clusters

        loaded = load_shard_clusters(
            task.resync_path, [delta.cluster_id for delta in unresolved]
        )
        still_unresolved: List[ClusterDelta] = []
        for delta in unresolved:
            offers = loaded.get(delta.cluster_id)
            # The store reflects the last commit = the pre-batch state,
            # so a matching snapshot has exactly base_size offers.
            if offers is not None and len(offers) == delta.base_size:
                category_id, key = delta.cluster_id
                cluster = OfferCluster(category_id=category_id, key=key, offers=offers)
                cluster.offers.extend(delta.new_offers)
                cache.clusters[delta.cluster_id] = cluster
                resynced += 1
            else:
                still_unresolved.append(delta)
        unresolved = still_unresolved

    missing = {delta.cluster_id for delta in unresolved}
    products: List[Optional[Product]] = []
    for delta in task.deltas:
        if not delta.fuse or delta.cluster_id in missing:
            products.append(None)
        else:
            products.append(
                build_product_from_cluster(
                    cache.clusters[delta.cluster_id], delta.attribute_names, cache.fusion
                )
            )
    cache.version = task.new_version
    return DeltaShardResult(
        products=products,
        missing=[delta.cluster_id for delta in unresolved],
        resynced=resynced,
    )
