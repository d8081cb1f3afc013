"""High-throughput batched runtime for the offer-synthesis pipeline.

The paper's Run-Time Offer Processing Pipeline (Figure 4) absorbs
continuous merchant feeds; this package provides the executor that makes
that practical at scale:

``engine``
    :class:`~repro.runtime.engine.SynthesisEngine` — a sharded,
    micro-batched, incrementally clustering wrapper around the pipeline
    stages.  Feed it a stream with repeated ``ingest(offers)`` calls.
``cluster``
    Horizontal scaling: a :class:`~repro.runtime.cluster.ShardCoordinator`
    partitions category shards across N engine nodes over one shared
    store, with per-shard epoch fencing so a lagging or crashed node can
    never commit stale cluster state.
    :class:`~repro.runtime.cluster.ClusterEngine` is the one cluster
    coordinator behind the single-engine-compatible facade (routing,
    commit barrier, join/leave/fence, crash recovery, load-aware
    rebalancing); it reaches its nodes through a
    :class:`~repro.runtime.cluster.NodeTransport`.
    :class:`~repro.runtime.cluster.MultiNodeEngine` selects the
    in-process transport: the test-and-debug double of the process
    cluster, not a second scaling tier.
``procnode``
    The process transport: :class:`~repro.runtime.procnode.MultiProcessEngine`
    is the same coordinator with each node in its own OS process, with a
    private store connection and mirror over the shared WAL file,
    reached through a small pipe protocol (ingest, commit-barrier vote,
    fence/handoff, shutdown) — same byte-identity contract, real
    multi-core scaling.
``state`` / ``store``
    The pluggable catalog state layer: a
    :class:`~repro.runtime.state.CatalogStore` protocol with an
    in-memory backend (zero-copy default) and a durable WAL-mode SQLite
    backend (per-ingest commits, snapshot/restore across restarts).
``executors``
    Pluggable shard executors (serial / process pool) with identical
    outputs and different wall-clock profiles.
``sharding``
    Stable (cross-process deterministic) category sharding.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the serving reader imports ``runtime.state``
# and ``runtime.store`` and must not load the engine or the cluster.
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.runtime.engine": (
            "SynthesisEngine",
            "IngestReport",
            "EngineSnapshot",
            "TransportStats",
        ),
        "repro.runtime.cluster": (
            "MultiNodeEngine",
            "NodeDeadError",
            "ShardCoordinator",
            "ShardLease",
            "FencedStoreView",
            "NodeStats",
        ),
        "repro.runtime.procnode": ("MultiProcessEngine", "ProcessNode"),
        "repro.runtime.executors": (
            "SerialExecutor",
            "ProcessPoolShardExecutor",
            "resolve_executor",
        ),
        "repro.runtime.sharding": ("partition_by_shard", "shard_for_category"),
        "repro.runtime.state": (
            "StaleEpochError",
            "CatalogStore",
            "ClusterState",
            "resolve_store",
        ),
        "repro.runtime.store": ("MemoryCatalogStore", "SqliteCatalogStore"),
    },
)
