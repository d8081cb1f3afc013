"""The high-throughput streaming synthesis engine.

:class:`SynthesisEngine` wraps the stages of
:class:`~repro.synthesis.pipeline.ProductSynthesisPipeline` into a
sharded, micro-batched executor: offers arrive in repeated
:meth:`SynthesisEngine.ingest` calls (a merchant feed stream), clusters
grow *incrementally* across batches, and only the clusters a batch
touched are re-fused — by category shard, in parallel when a
process-pool executor is plugged in.

All engine state — clusters, cached fusion results, seen-offer ids,
reconciliation counters — lives behind a pluggable
:class:`~repro.runtime.state.CatalogStore`:

* ``store="memory"`` (default) keeps the original zero-copy in-process
  behaviour;
* ``store="sqlite"`` (with ``store_path``) commits after every ingest
  and restores the full engine state across process restarts, so a
  stream can resume exactly where a killed process left off.

Every executor re-fuses a batch the same way: each touched cluster's
full contents go, grouped by shard, through
:meth:`~repro.runtime.executors.SerialExecutor.map_shards` — in this
process for the serial executor, over a process pool for
``executor="process"``.  Fusion is a pure function of the cluster, so
the executor never changes the products.

Compared with looping ``pipeline.synthesize()`` over a stream (which must
re-run every stage over all offers seen so far to keep the product set
current), the engine does O(batch) work per batch instead of O(total) and
reuses memoised text statistics (:mod:`repro.text.memo`).

Product identifiers are content-derived
(:func:`repro.model.products.stable_product_id`), so the same cluster
keeps the same id no matter how the stream was batched, and ids never
collide across batches.

Examples
--------
>>> # doctest-style sketch (see tests/test_runtime_engine.py for runnable use)
>>> # engine = SynthesisEngine(catalog, correspondences, num_shards=8,
>>> #                          executor="process", store="sqlite",
>>> #                          store_path="catalog.sqlite3")
>>> # for batch in feed:
>>> #     report = engine.ingest(batch)
>>> # products = engine.products()
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.extraction.extractor import WebPageAttributeExtractor
from repro.matching.correspondence import CorrespondenceSet
from repro.model.catalog import Catalog
from repro.model.offers import Offer
from repro.model.products import Product
from repro.obs import get_registry, series_key, snapshot_fragment
from repro.runtime.executors import ShardExecutor, resolve_executor
from repro.runtime.sharding import shard_for_category
from repro.runtime.state import CatalogStore, ClusterId, resolve_store
from repro.synthesis.category_classifier import TitleCategoryClassifier
from repro.synthesis.clustering import KeyAttributeClusterer, OfferCluster
from repro.synthesis.fusion import CentroidValueFusion, MemoizedValueFusion
from repro.synthesis.pipeline import ProductSynthesisPipeline, build_product_from_cluster
from repro.synthesis.reconciliation import ReconciliationStats

__all__ = ["IngestReport", "EngineSnapshot", "SynthesisEngine", "TransportStats"]


@dataclass
class IngestReport:
    """What one :meth:`SynthesisEngine.ingest` call did."""

    offers_in_batch: int = 0
    #: Offers not seen in any earlier batch (the rest were deduplicated).
    offers_new: int = 0
    offers_duplicate: int = 0
    #: New offers that carried a usable clustering key and joined a cluster.
    offers_clustered: int = 0
    #: New offers dropped for lack of a key-attribute value.
    offers_without_key: int = 0
    #: New offers dropped because no category could be assigned.
    offers_uncategorised: int = 0
    #: Clusters created or grown by this batch (and therefore re-fused).
    clusters_touched: int = 0
    #: Products created or refreshed by this batch.
    products_refreshed: int = 0

    def merge(self, other: "IngestReport") -> None:
        """Fold another report's counters into this one (plain sums).

        A multi-node engine aggregates the per-node reports of one
        cluster batch this way; the caller owns ``offers_in_batch`` /
        ``offers_duplicate`` semantics when sub-batches overlap.
        """
        self.offers_in_batch += other.offers_in_batch
        self.offers_new += other.offers_new
        self.offers_duplicate += other.offers_duplicate
        self.offers_clustered += other.offers_clustered
        self.offers_without_key += other.offers_without_key
        self.offers_uncategorised += other.offers_uncategorised
        self.clusters_touched += other.clusters_touched
        self.products_refreshed += other.products_refreshed


@dataclass
class EngineSnapshot:
    """A consistent view of the engine state after some ingests."""

    products: List[Product]
    num_clusters: int
    offers_ingested: int
    reconciliation_stats: ReconciliationStats
    #: offer_id -> category assigned by the classifier (or carried in).
    assigned_categories: Dict[str, str] = field(default_factory=dict)

    def num_products(self) -> int:
        """Number of currently synthesized products."""
        return len(self.products)


@dataclass
class TransportStats:
    """Cumulative executor-payload accounting of one engine.

    ``offers_shipped`` counts the offers of every cluster re-fused: each
    batch ships its touched clusters' full contents to the executor, so
    it grows with *cluster* sizes, not batch sizes.
    """

    batches: int = 0
    shard_tasks: int = 0
    clusters_shipped: int = 0
    offers_shipped: int = 0
    #: Always 0: no worker keeps cluster state to reload.  Kept because
    #: the benchmark's process-executor pass reads it.
    worker_resyncs: int = 0
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
        fields = {
            "transport_batches_total": self.batches,
            "transport_shard_tasks_total": self.shard_tasks,
            "transport_clusters_shipped_total": self.clusters_shipped,
            "transport_offers_shipped_total": self.offers_shipped,
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
            "transport_clusters_shipped_total": "Touched clusters shipped to shard executors.",
            "transport_offers_shipped_total": "Offers serialised into executor payloads.",
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
class _PendingAppend:
    """This batch's additions to one cluster, before re-fusion."""

    shard_index: int
    offers: List[Offer] = field(default_factory=list)


#: One shard's executor payload: fuse these clusters with these schema
#: attributes.
_ShardTask = Tuple[List[Tuple[OfferCluster, List[str]]], object]


def _fuse_shard(task: _ShardTask) -> List[Optional[Product]]:
    """Fuse every (cluster, attribute-names) pair of one shard payload.

    Module-level and pure so process-pool executors can pickle it; fusion
    is deterministic, so all executors return identical products.
    """
    cluster_jobs, fusion = task
    return [
        build_product_from_cluster(cluster, attribute_names, fusion)
        for cluster, attribute_names in cluster_jobs
    ]


class SynthesisEngine:
    """Sharded, micro-batched, incrementally clustering synthesis runtime.

    Parameters
    ----------
    catalog, correspondences, extractor, category_classifier, clusterer, fusion:
        As for :class:`~repro.synthesis.pipeline.ProductSynthesisPipeline`,
        whose stages the engine reuses.  The clusterer's
        ``min_cluster_size`` (1 for a clusterer without one) is applied at
        product-emission time, so a cluster below the threshold simply has
        no product *yet* and may still grow past it in a later batch.
    num_shards:
        Number of category shards; clusters never span shards.
    executor:
        ``"serial"`` (default), ``"process"``, or a
        pre-built executor instance.  Executor choice never changes the
        synthesized products, only the wall-clock time.
    max_workers:
        Worker count for pool executors (``None`` = library default).
    store:
        ``"memory"`` (default), ``"sqlite"`` (durable; requires
        ``store_path``), or a pre-built
        :class:`~repro.runtime.state.CatalogStore`.  Opening a durable
        store that already holds state resumes the stream exactly where
        it left off — replayed offers are deduplicated, clusters keep
        growing, and products stay byte-identical to an uninterrupted
        run.  Store choice never changes the synthesized products.
    store_path:
        Filesystem path of the SQLite store (``store="sqlite"`` only).
    """

    def __init__(
        self,
        catalog: Catalog,
        correspondences: CorrespondenceSet,
        extractor: Optional[WebPageAttributeExtractor] = None,
        category_classifier: Optional[TitleCategoryClassifier] = None,
        clusterer: Optional[KeyAttributeClusterer] = None,
        fusion: Optional[CentroidValueFusion] = None,
        num_shards: int = 4,
        executor: Union[str, ShardExecutor, None] = "serial",
        max_workers: Optional[int] = None,
        store: Union[str, CatalogStore, None] = None,
        store_path: Optional[str] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._pipeline = ProductSynthesisPipeline(
            catalog=catalog,
            correspondences=correspondences,
            extractor=extractor,
            category_classifier=category_classifier,
            clusterer=clusterer,
            fusion=fusion,
        )
        # The clusterer's threshold, which the pipeline applies at
        # cluster() time: engine and pipeline emit identical products.
        self._min_cluster_size = getattr(self._pipeline.clusterer, "min_cluster_size", 1)
        self._num_shards = num_shards
        self._executor = resolve_executor(executor, max_workers=max_workers)

        # The engine owns (and therefore closes) stores it resolved from a
        # name; a user-supplied instance stays open for reuse elsewhere.
        self._owns_store = not isinstance(store, CatalogStore)
        self._store = resolve_store(store, path=store_path)
        self._store.bind(num_shards)

        self._transport_stats = TransportStats()
        self._closed = False

        # Observability: handles are resolved once (per-batch increments
        # only — nothing on the per-offer path touches the registry), and
        # the pre-existing transport accounting is bridged through a
        # weakref provider so the registry reads it without double-writes.
        registry = get_registry()
        self._obs = registry
        self._obs_batches = registry.counter(
            "engine_batches_total", help="Micro-batches ingested by synthesis engines."
        )
        offers_help = "Offers seen by ingest, by dedup outcome."
        self._obs_offers_new = registry.counter(
            "engine_offers_total", help=offers_help, labels={"outcome": "new"}
        )
        self._obs_offers_dup = registry.counter(
            "engine_offers_total", help=offers_help, labels={"outcome": "duplicate"}
        )
        self._obs_clusters = registry.counter(
            "engine_clusters_touched_total",
            help="Clusters mutated by ingested batches.",
        )
        self._obs_products = registry.counter(
            "engine_products_refreshed_total",
            help="Products (re-)fused by ingested batches.",
        )
        engine_ref = weakref.ref(self)

        def _transport_provider() -> Dict[str, object]:
            engine = engine_ref()
            if engine is None:
                return {}
            return engine._transport_stats.metrics_fragment()

        self._obs_provider = registry.add_provider(_transport_provider)

        # One memo across batches, so unchanged attribute-value lists are
        # selected once (a process pool gets a pickled copy per task).  The
        # memo is transparent: the selected values are identical.
        self._fusion = MemoizedValueFusion(self._pipeline.fusion)

    # -- streaming ingest ------------------------------------------------------

    def ingest(self, offers: Sequence[Offer]) -> IngestReport:
        """Absorb one micro-batch of offers and refresh affected products.

        Re-ingesting an offer id that was already absorbed is a no-op
        (idempotent streams: merchant feeds re-send their inventory), so
        replaying a batch leaves the engine state byte-identical.  The
        store commits at the end of every ingest, so with a durable
        backend a crash loses at most the batch that was in flight.
        """
        report = IngestReport(offers_in_batch=len(offers))
        if self._store.closed:
            # Fail fast: processing the batch into the orphaned mirror
            # would mark its offers seen without ever persisting them.
            raise RuntimeError(
                "cannot ingest: the engine's catalog store is closed "
                "(reopen the store path with a new engine to resume)"
            )
        # Ingesting re-arms a closed engine (memory-store engines stay
        # usable after close(); executor pools are re-created lazily —
        # and the transport provider close() unregistered comes back).
        if self._closed:
            self._obs.add_provider(self._obs_provider)
            self._closed = False
        # Filtering against both sets also deduplicates repeats inside a
        # single batch, not just across batches.  Ids are only *marked*
        # seen after the fallible pipeline stages below succeed, so a
        # batch that raises (untrained classifier, extractor failure)
        # can be retried instead of being silently dropped as duplicate.
        fresh: List[Offer] = []
        with self._obs.span("ingest.dedup"):
            batch_ids = set()
            for offer in offers:
                if self._store.is_seen(offer.offer_id) or offer.offer_id in batch_ids:
                    continue
                batch_ids.add(offer.offer_id)
                fresh.append(offer)
        report.offers_new = len(fresh)
        report.offers_duplicate = report.offers_in_batch - report.offers_new
        if not fresh:
            with self._obs.span("ingest.commit_barrier"):
                self._store.commit()
            self._obs_batches.inc()
            if report.offers_duplicate:
                self._obs_offers_dup.inc(report.offers_duplicate)
            return report

        with self._obs.span("ingest.classify"):
            categorised = self._pipeline._assign_categories(fresh)
        extracted = self._extract_specifications(categorised)
        reconciled, stats = self._pipeline.reconciler.reconcile_offers(extracted)
        for offer in fresh:
            self._store.mark_seen(offer.offer_id)
        self._store.merge_reconciliation_stats(stats)
        for offer in categorised:
            if offer.category_id is not None:
                self._store.record_category(offer.offer_id, offer.category_id)

        with self._obs.span("ingest.route"):
            pending = self._route_to_clusters(reconciled, report)
        report.clusters_touched = len(pending)
        with self._obs.span("ingest.fuse"):
            report.products_refreshed = self._refuse_clusters(pending)
        self._transport_stats.batches += 1
        with self._obs.span("ingest.commit_barrier"):
            self._store.commit()
        self._obs_batches.inc()
        self._obs_offers_new.inc(report.offers_new)
        if report.offers_duplicate:
            self._obs_offers_dup.inc(report.offers_duplicate)
        self._obs_clusters.inc(report.clusters_touched)
        self._obs_products.inc(report.products_refreshed)
        return report

    def classify_offers(self, offers: Sequence[Offer]) -> List[Offer]:
        """Run only the category-assignment stage over ``offers``.

        Exactly the classification :meth:`ingest` would perform — offers
        already carrying a category keep it, the rest are classified by
        title — with no store writes and no other pipeline stages.
        Cluster nodes use this to classify hint-routed offers locally, so
        a coordinator can route on a cheap hint and still hand every node
        a fully-categorised sub-batch whose later ingest is byte-identical
        to coordinator-side classification.
        """
        return self._pipeline._assign_categories(list(offers))

    def _extract_specifications(self, offers: Sequence[Offer]) -> List[Offer]:
        """Extract landing-page specifications for offers that need them.

        Strictly per-offer: an offer that already carries a specification
        keeps it verbatim, only empty ones are extracted.
        """
        extractor = self._pipeline.extractor
        if extractor is None:
            return list(offers)
        return [
            offer if len(offer.specification) > 0 else extractor.extract_offer(offer)
            for offer in offers
        ]

    def _route_to_clusters(
        self, reconciled: Sequence[Offer], report: IngestReport
    ) -> "Dict[ClusterId, _PendingAppend]":
        """Route offers to their clusters; returns this batch's appends.

        The returned dict is keyed by cluster id in first-touch order and
        records, per touched cluster, its shard and its new offers.
        """
        clusterer = self._pipeline.clusterer
        pending: Dict[ClusterId, _PendingAppend] = {}
        for offer in reconciled:
            if offer.category_id is None:
                report.offers_uncategorised += 1
                continue
            key = clusterer.cluster_key(offer)
            if key is None:
                report.offers_without_key += 1
                continue
            cluster_id: ClusterId = (offer.category_id, key)
            entry = pending.get(cluster_id)
            if entry is None:
                shard_index = shard_for_category(offer.category_id, self._num_shards)
                state = self._store.get_cluster(cluster_id)
                if state is None:
                    state = self._store.create_cluster(shard_index, cluster_id)
                entry = _PendingAppend(shard_index=shard_index)
                pending[cluster_id] = entry
            entry.offers.append(offer)
            report.offers_clustered += 1
        for cluster_id, entry in pending.items():
            self._store.append_offers(cluster_id, entry.offers)
        return pending

    def _refuse_clusters(self, pending: "Dict[ClusterId, _PendingAppend]") -> int:
        """Re-fuse the touched clusters' full contents, one executor task per shard."""
        by_shard: Dict[int, List[ClusterId]] = {}
        for cluster_id, entry in pending.items():
            by_shard.setdefault(entry.shard_index, []).append(cluster_id)
        payloads: List[_ShardTask] = []
        payload_keys: List[List[ClusterId]] = []
        for shard_index in sorted(by_shard):
            jobs: List[Tuple[OfferCluster, List[str]]] = []
            keys: List[ClusterId] = []
            for cluster_id in by_shard[shard_index]:
                state = self._store.get_cluster(cluster_id)
                if state.size() < self._min_cluster_size:
                    self._store.set_product(cluster_id, None)
                    continue
                jobs.append(
                    (state.cluster, self._pipeline.attribute_names_for(state.cluster))
                )
                keys.append(cluster_id)
                self._transport_stats.clusters_shipped += 1
                self._transport_stats.offers_shipped += state.size()
            if jobs:
                payloads.append((jobs, self._fusion))
                payload_keys.append(keys)
        self._transport_stats.shard_tasks += len(payloads)

        refreshed = 0
        results = self._executor.map_shards(_fuse_shard, payloads)
        for keys, products in zip(payload_keys, results):
            for cluster_id, product in zip(keys, products):
                self._store.set_product(cluster_id, product)
                if product is not None:
                    refreshed += 1
        return refreshed

    # -- views ----------------------------------------------------------------

    def products(self) -> List[Product]:
        """All current synthesized products.

        Sorted by (category, cluster key), so the listing is deterministic
        regardless of shard count, executor, store backend, or how the
        stream was batched.
        """
        return self._store.sorted_products()

    def num_clusters(self) -> int:
        """Number of clusters tracked so far (including sub-threshold ones)."""
        return self._store.num_clusters()

    @property
    def store(self) -> CatalogStore:
        """The catalog store holding this engine's state."""
        return self._store

    def transport_stats(self) -> TransportStats:
        """Cumulative executor-payload accounting (see :class:`TransportStats`)."""
        return self._transport_stats

    def detach_metrics_provider(self) -> None:
        """Stop contributing transport counters to the metrics registry.

        ``close`` calls this; so does the cluster layer when retiring a
        node whose transport accounting it folds into its own retired
        totals — leaving the provider registered would count the same
        frames twice in every later snapshot.
        """
        self._obs.remove_provider(self._obs_provider)

    def snapshot(self) -> EngineSnapshot:
        """A consistent summary of everything ingested so far."""
        return EngineSnapshot(
            products=self.products(),
            num_clusters=self.num_clusters(),
            offers_ingested=self._store.num_seen(),
            # The store hands out copies, so a snapshot never keeps
            # mutating with later ingests.
            reconciliation_stats=self._store.reconciliation_stats(),
            assigned_categories=self._store.assigned_categories(),
        )

    # -- lifecycle -------------------------------------------------------------

    def release_workers(self) -> None:
        """Shut down executor workers without touching the store.

        Pools are re-created lazily, so the engine stays usable.  The
        cluster layer uses this to retire a node whose store view was
        fenced — committing through that view would (correctly) raise,
        but its worker processes still have to go.  Cluster *node
        processes* (:mod:`repro.runtime.procnode`) call it on shutdown
        and on coordinator loss, so an engine hosted inside a node never
        leaks a worker pool past its process's lifetime.
        """
        self._executor.close()

    def close(self) -> None:
        """Release executor workers and flush/close an engine-owned store.

        Idempotent: calling it twice (or after ``__exit__``) is safe.  A
        store passed in as an instance is committed but left open for its
        owner; with the default in-memory store the engine stays fully
        usable after ``close`` (workers are re-created lazily).
        """
        if self._closed:
            return
        self._closed = True
        self.detach_metrics_provider()
        self.release_workers()
        if self._owns_store:
            self._store.close()
        else:
            self._store.commit()

    def __enter__(self) -> "SynthesisEngine":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self.close()
