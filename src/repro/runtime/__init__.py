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
    commit barrier, join/leave/fence, crash recovery, automatic
    load-aware rebalancing via
    :class:`~repro.runtime.cluster.LoadSkewWatcher`); it reaches its
    nodes through a :class:`~repro.runtime.cluster.NodeTransport`.
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
``delta``
    The delta re-fusion protocol: process workers keep shard-resident
    cluster state and receive only new offers per batch, resyncing from
    the store when they restart or fall behind.
``executors``
    Pluggable shard executors (serial / thread pool / process pool) with
    identical outputs and different wall-clock profiles.
``sharding``
    Stable (cross-process deterministic) category sharding.
"""

from repro.runtime.cluster import (
    FencedStoreView,
    LoadSkewWatcher,
    MultiNodeEngine,
    NodeDeadError,
    NodeStats,
    ShardCoordinator,
    ShardLease,
)
from repro.runtime.delta import TransportStats
from repro.runtime.procnode import MultiProcessEngine, ProcessNode
from repro.runtime.engine import CommitEvent, EngineSnapshot, IngestReport, SynthesisEngine
from repro.runtime.executors import (
    ProcessPoolShardExecutor,
    SerialExecutor,
    ThreadPoolShardExecutor,
    resolve_executor,
)
from repro.runtime.sharding import partition_by_shard, shard_for_category
from repro.runtime.state import CatalogStore, ClusterState, StaleEpochError, resolve_store
from repro.runtime.store import MemoryCatalogStore, SqliteCatalogStore

__all__ = [
    "SynthesisEngine",
    "CommitEvent",
    "IngestReport",
    "EngineSnapshot",
    "MultiNodeEngine",
    "MultiProcessEngine",
    "ProcessNode",
    "NodeDeadError",
    "ShardCoordinator",
    "ShardLease",
    "FencedStoreView",
    "LoadSkewWatcher",
    "NodeStats",
    "StaleEpochError",
    "SerialExecutor",
    "ThreadPoolShardExecutor",
    "ProcessPoolShardExecutor",
    "resolve_executor",
    "partition_by_shard",
    "shard_for_category",
    "CatalogStore",
    "ClusterState",
    "resolve_store",
    "MemoryCatalogStore",
    "SqliteCatalogStore",
    "TransportStats",
]
