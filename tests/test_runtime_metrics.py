"""The write path's registry series against ``transport_stats()``.

A process's registry holds what that process counted: an engine counts
its executor payloads (``transport_*``), a cluster coordinator its hint
routing (``routing_*``) and its pipe frames (``pipe_*``).  Each series
must equal the same field of ``transport_stats()`` — never a count
folded in twice, and never one a process did not make: a process
cluster's coordinator runs no engine, so it holds no ``transport_*``
series, before a node leaves or after.
"""

import pytest
from test_runtime_cluster import feed_stream

from repro.obs import MetricsRegistry, set_registry
from repro.runtime import MultiNodeEngine, MultiProcessEngine, SynthesisEngine

#: Registry family -> ``TransportStats`` field, by the process that counts it.
TRANSPORT = {
    "transport_batches_total": "batches",
    "transport_shard_tasks_total": "shard_tasks",
    "transport_clusters_shipped_total": "clusters_shipped",
    "transport_offers_shipped_total": "offers_shipped",
}
ROUTING = {
    "routing_hinted_offers_total": "hinted_offers",
    "routing_misrouted_offers_total": "misrouted_offers",
}
PIPE = {
    "pipe_frames_sent_total": "frames_sent",
    "pipe_frames_received_total": "frames_received",
    "pipe_frame_bytes_sent_total": "frame_bytes_sent",
    "pipe_frame_bytes_received_total": "frame_bytes_received",
}


def components(harness):
    return dict(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
    )


@pytest.fixture
def registry():
    """A fresh process-global registry for the components the test builds."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def assert_counts(registry, engine, families):
    """Every family equals its ``transport_stats()`` field."""
    counters = registry.snapshot()["counters"]
    stats = engine.transport_stats()
    for name, field in families.items():
        assert counters[name] == getattr(stats, field), name


def assert_absent(registry, families):
    counters = registry.snapshot()["counters"]
    assert not set(families) & set(counters), sorted(counters)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_single_engine_counts_what_it_ships(tiny_harness, tmp_path, registry, backend):
    options = {}
    if backend == "sqlite":
        options = dict(store="sqlite", store_path=str(tmp_path / "engine.sqlite3"))
    engine = SynthesisEngine(num_shards=4, **components(tiny_harness), **options)
    try:
        assert_counts(registry, engine, TRANSPORT)  # at 0 once built
        batches = feed_stream(tiny_harness)
        for batch in batches + batches[:1]:  # the re-sent batch ships nothing
            engine.ingest(batch)
            assert_counts(registry, engine, TRANSPORT)
        assert engine.transport_stats().offers_shipped > 0
    finally:
        engine.close()
    assert_absent(registry, ROUTING | PIPE)


def test_a_closed_memory_engine_keeps_counting_when_it_ingests_again(
    tiny_harness, registry
):
    engine = SynthesisEngine(num_shards=4, **components(tiny_harness))
    first, second, *_ = feed_stream(tiny_harness)
    engine.ingest(first)
    engine.close()
    assert_counts(registry, engine, TRANSPORT)
    engine.ingest(second)
    assert_counts(registry, engine, TRANSPORT)
    assert registry.snapshot()["counters"]["transport_batches_total"] == 2
    engine.close()


def test_in_process_nodes_add_up_across_leave_and_fence(tiny_harness, registry):
    """Node engines share the coordinator's registry: a node that leaves
    or is fenced keeps its counts there once, and ``transport_stats()``
    keeps them in its retired totals."""
    cluster = MultiNodeEngine(
        num_nodes=3, num_shards=8, hint_routing=True, **components(tiny_harness)
    )
    try:
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        assert_counts(registry, cluster, TRANSPORT | ROUTING)
        cluster.remove_node("node-3")
        assert_counts(registry, cluster, TRANSPORT | ROUTING)
        cluster.ingest(batches[1])
        cluster.fence_node("node-2")
        assert_counts(registry, cluster, TRANSPORT | ROUTING)
        for batch in batches[2:]:
            cluster.ingest(batch)
            assert_counts(registry, cluster, TRANSPORT | ROUTING)
        stats = cluster.transport_stats()
        assert stats.offers_shipped > 0 and stats.hinted_offers > 0
        gauges = registry.snapshot()["gauges"]
        assert gauges["routing_hint_accuracy"] == stats.hint_accuracy
        assert gauges["cluster_nodes"] == 1
    finally:
        cluster.close()
    assert_absent(registry, PIPE)


def test_a_process_cluster_coordinator_holds_only_its_own_counts(
    tiny_harness, tmp_path, registry
):
    """The nodes' executor payloads are counted in the node processes;
    the coordinator's registry has its frames and routing, equal to
    ``transport_stats()``, and no ``transport_*`` series at all."""
    cluster = MultiProcessEngine(
        num_nodes=3,
        num_shards=8,
        hint_routing=True,
        store_path=str(tmp_path / "cluster.sqlite3"),
        **components(tiny_harness),
    )
    try:
        assert "routing_hint_accuracy" not in registry.snapshot()["gauges"]
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        cluster.ingest(batches[1])
        assert_counts(registry, cluster, PIPE | ROUTING)
        assert_absent(registry, TRANSPORT)
        cluster.remove_node("node-3")
        for batch in batches[2:]:
            cluster.ingest(batch)
        assert_counts(registry, cluster, PIPE | ROUTING)
        assert_absent(registry, TRANSPORT)
        stats = cluster.transport_stats()
        assert stats.offers_shipped > 0 and stats.frames_sent > 0
        assert registry.snapshot()["gauges"]["routing_hint_accuracy"] == stats.hint_accuracy
    finally:
        cluster.close()


@pytest.mark.parametrize("engine_type", [MultiNodeEngine, MultiProcessEngine])
def test_transport_stats_keep_the_live_nodes_counts_after_close(
    tiny_harness, tmp_path, registry, engine_type
):
    """Closing retires the nodes still live: their executor payloads and
    the coordinator's hint counts read the same before and after."""
    cluster = engine_type(
        num_nodes=2,
        num_shards=8,
        hint_routing=True,
        store_path=str(tmp_path / "closing.sqlite3"),
        **components(tiny_harness),
    )
    try:
        for batch in feed_stream(tiny_harness)[:3]:
            cluster.ingest(batch)
        before = cluster.transport_stats()
    finally:
        cluster.close()
    after = cluster.transport_stats()
    assert before.offers_shipped > 0
    for field in list(TRANSPORT.values()) + list(ROUTING.values()):
        assert getattr(after, field) == getattr(before, field), field
