"""Tests for the multi-node shard coordinator and version fencing.

Covers the ShardCoordinator's deterministic assignment and epoch
bookkeeping, the FencedStoreView's stale-write rejection (the fencing
acceptance criterion), node join/leave handoff and load-aware
rebalancing, and crash injection: a node killed mid-batch via the store's
fault hook is fenced, its shards are reassigned, and the recovered
catalog is byte-identical to an uninterrupted run.
"""

import itertools

import pytest

from repro.model.products import product_fingerprint as fingerprint
from repro.runtime import (
    FencedStoreView,
    MemoryCatalogStore,
    MultiNodeEngine,
    MultiProcessEngine,
    ShardCoordinator,
    ShardLease,
    SqliteCatalogStore,
    StagedBatch,
    StaleEpochError,
    SynthesisEngine,
)
from repro.runtime.executors import SerialExecutor
from repro.runtime.sharding import shard_for_category
from repro.synthesis.clustering import KeyAttributeClusterer
from repro.synthesis.pipeline import ProductSynthesisPipeline


def make_single(harness, **kwargs):
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        **kwargs,
    )


def make_cluster(harness, **kwargs):
    return MultiNodeEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        **kwargs,
    )


@pytest.fixture(params=["threads", "processes"])
def any_cluster(request, tiny_harness, tmp_path):
    """A factory for either public cluster engine (closed at teardown).

    The facade is one coordinator class under both; every case below
    must hold whichever transport carries the messages.
    """
    made = []

    def factory(**kwargs):
        if request.param == "processes":
            kwargs["store_path"] = str(tmp_path / f"cluster-{len(made)}.sqlite3")
            cluster = MultiProcessEngine(
                catalog=tiny_harness.corpus.catalog,
                correspondences=tiny_harness.offline_result.correspondences,
                extractor=tiny_harness.extractor,
                category_classifier=tiny_harness.category_classifier,
                **kwargs,
            )
        else:
            cluster = make_cluster(tiny_harness, **kwargs)
        made.append(cluster)
        return cluster

    factory.kind = request.param
    yield factory
    for cluster in made:
        cluster.close()


def feed_stream(harness, num_batches=4):
    """The tiny stream in merchant-feed order, split into micro-batches.

    Feed order spreads one product's offers across batches, so clusters
    grow *across* batch boundaries — the case handoff resync, fencing,
    and crash recovery actually have to get right.
    """
    offers = sorted(harness.unmatched_offers, key=lambda offer: offer.merchant_id)
    size = max(1, (len(offers) + num_batches - 1) // num_batches)
    return [offers[start : start + size] for start in range(0, len(offers), size)]


@pytest.fixture(scope="module")
def feed_expected(tiny_harness):
    """Products of an uninterrupted single-engine run over the feed stream."""
    engine = make_single(tiny_harness, num_shards=8)
    for batch in feed_stream(tiny_harness):
        engine.ingest(batch)
    result = sorted(fingerprint(engine.products()))
    engine.close()
    return result


class TestShardCoordinator:
    def test_deterministic_assignment_and_minimal_moves(self):
        store = MemoryCatalogStore()
        coordinator = ShardCoordinator(store, num_shards=8)
        coordinator.register_node("node-1")
        assert set(coordinator.assignment().values()) == {"node-1"}
        assert coordinator.lease_for("node-1").shards() == list(range(8))

        before = coordinator.assignment()
        coordinator.register_node("node-2")
        after = coordinator.assignment()
        # Exactly the shards that changed owner moved; both nodes now
        # hold the deterministic interleaved layout.
        assert after == {shard: ("node-1" if shard % 2 == 0 else "node-2") for shard in range(8)}
        moved = [shard for shard in range(8) if before[shard] != after[shard]]
        assert moved == [1, 3, 5, 7]
        # Every moved shard was re-fenced: its epoch grew.
        for shard in moved:
            assert store.shard_epoch(shard) == 2
        for shard in (0, 2, 4, 6):
            assert store.shard_epoch(shard) == 1

    def test_register_twice_rejected(self):
        coordinator = ShardCoordinator(MemoryCatalogStore(), num_shards=4)
        coordinator.register_node("node-1")
        with pytest.raises(ValueError, match="already registered"):
            coordinator.register_node("node-1")

    def test_cannot_retire_last_node(self):
        coordinator = ShardCoordinator(MemoryCatalogStore(), num_shards=4)
        coordinator.register_node("node-1")
        with pytest.raises(RuntimeError, match="last node"):
            coordinator.retire_node("node-1")
        with pytest.raises(ValueError, match="not registered"):
            coordinator.retire_node("node-9")

    def test_fenced_lease_is_left_stale(self):
        store = MemoryCatalogStore()
        coordinator = ShardCoordinator(store, num_shards=4)
        lease_1 = coordinator.register_node("node-1")
        coordinator.register_node("node-2")
        held = dict(lease_1.epochs)
        coordinator.retire_node("node-1", fence=True)
        # The zombie still presents its old epochs...
        assert lease_1.epochs == held
        # ...and every one of them is now fenced out in the store.
        for shard, epoch in held.items():
            with pytest.raises(StaleEpochError, match="fenced"):
                store.check_shard_epoch(shard, epoch)
        # Graceful retirement instead clears the departing lease.
        lease_2 = coordinator.lease_for("node-2")
        coordinator.register_node("node-3")
        coordinator.retire_node("node-2", fence=False)
        assert lease_2.epochs == {}


class TestRebalanceByLoadEdgeCases:
    """ISSUE 4 satellite: degenerate inputs of the greedy layout."""

    def test_single_node_keeps_everything(self):
        store = MemoryCatalogStore()
        coordinator = ShardCoordinator(store, num_shards=4)
        coordinator.register_node("node-1")
        epochs_before = {shard: store.shard_epoch(shard) for shard in range(4)}
        layout = coordinator.rebalance_by_load({0: 9.0, 1: 1.0})
        assert layout == {shard: "node-1" for shard in range(4)}
        # Nothing moved, so nothing was re-fenced.
        assert {shard: store.shard_epoch(shard) for shard in range(4)} == epochs_before

    def test_all_zero_load_still_spreads_shards(self):
        coordinator = ShardCoordinator(MemoryCatalogStore(), num_shards=8)
        coordinator.register_node("node-1")
        coordinator.register_node("node-2")
        layout = coordinator.rebalance_by_load({shard: 0.0 for shard in range(8)})
        per_node = {}
        for node_id in layout.values():
            per_node[node_id] = per_node.get(node_id, 0) + 1
        # Zero/unknown loads weigh 1, so the split stays even.
        assert per_node == {"node-1": 4, "node-2": 4}

    def test_fewer_shards_than_nodes_leaves_some_nodes_empty(self):
        coordinator = ShardCoordinator(MemoryCatalogStore(), num_shards=2)
        for node_id in ("node-1", "node-2", "node-3"):
            coordinator.register_node(node_id)
        layout = coordinator.rebalance_by_load({0: 5.0, 1: 3.0})
        assert len(layout) == 2
        assert len(set(layout.values())) == 2  # two distinct owners
        # Every shard has exactly one owner; the third node holds nothing.
        owned = {shard for node in coordinator.nodes() for shard in
                 coordinator.lease_for(node).shards()}
        assert owned == {0, 1}

    def test_empty_loads_dict(self):
        coordinator = ShardCoordinator(MemoryCatalogStore(), num_shards=4)
        coordinator.register_node("node-1")
        coordinator.register_node("node-2")
        layout = coordinator.rebalance_by_load({})
        per_node = {}
        for node_id in layout.values():
            per_node[node_id] = per_node.get(node_id, 0) + 1
        assert per_node == {"node-1": 2, "node-2": 2}


class TestVersionFencing:
    """The acceptance criterion: a stale-epoch write is rejected."""

    def test_fenced_node_cannot_commit_stale_state(self, tiny_harness, feed_expected):
        cluster = make_cluster(tiny_harness, num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])

        victim_id = cluster.node_ids()[0]
        victim_view = cluster.node_view(victim_id)
        victim_shard = victim_view.lease.shards()[0]
        cluster.fence_node(victim_id)

        # Every write of the fenced node bounces — cluster-scoped ones...
        with pytest.raises(StaleEpochError, match="fenced"):
            victim_view.apply(StagedBatch(clusters=[("computing.hdd", "zombie-key")]))
        owned = [
            cluster_id
            for cluster_id, state in victim_view.iter_clusters()
            if state.shard_index == victim_shard
        ]
        assert owned
        with pytest.raises(StaleEpochError):
            victim_view.apply(StagedBatch(products={owned[0]: None}))
        # ...global ones, and the commit barrier.
        with pytest.raises(StaleEpochError):
            victim_view.apply(StagedBatch(seen=["zombie-offer"]))
        with pytest.raises(StaleEpochError):
            victim_view.commit()
        # An ingest routed through the zombie's whole engine dies on its
        # first store write, leaving the shared state untouched.
        seen_before = cluster.store.num_seen()
        zombie_engine = make_single(tiny_harness, num_shards=8, store=victim_view)
        with pytest.raises(StaleEpochError):
            zombie_engine.ingest(batches[1])
        assert cluster.store.num_seen() == seen_before

        # The surviving cluster carries the stream to the identical catalog.
        for batch in batches[1:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_store_rejects_stale_epoch_from_lagging_node(self, tiny_harness):
        """The store-side half of the contract: even when the in-process
        fenced flag cannot reach a writer (fenced out-of-band), its write
        carries an outdated epoch and the *store* rejects it."""
        cluster = make_cluster(tiny_harness, num_nodes=2, num_shards=8)
        cluster.ingest(feed_stream(tiny_harness)[0])
        laggard = cluster.node_view(cluster.node_ids()[0])
        shard = laggard.lease.shards()[0]
        # Someone else re-fences the shard behind the node's back.
        cluster.store.advance_shard_epoch(shard)
        assert not laggard.lease.fenced
        names = (f"category-{n}" for n in itertools.count())
        category = next(name for name in names if shard_for_category(name, 8) == shard)
        with pytest.raises(StaleEpochError, match="epoch"):
            laggard.apply(StagedBatch(clusters=[(category, "laggard-key")]))
        with pytest.raises(StaleEpochError, match="epoch"):
            laggard.commit()
        cluster.close()

    def test_view_cannot_advance_epochs(self, tiny_harness):
        cluster = make_cluster(tiny_harness, num_nodes=2, num_shards=4)
        view = cluster.node_view(cluster.node_ids()[0])
        with pytest.raises(RuntimeError, match="coordinator"):
            view.advance_shard_epoch(0)
        cluster.close()

    def test_epochs_survive_sqlite_reopen(self, tmp_path, tiny_harness):
        """Fencing must survive exactly the crashes it guards against."""
        path = str(tmp_path / "epochs.sqlite3")
        cluster = make_cluster(
            tiny_harness, num_nodes=2, num_shards=4, store="sqlite", store_path=path
        )
        cluster.ingest(feed_stream(tiny_harness)[0])
        epochs = {shard: cluster.store.shard_epoch(shard) for shard in range(4)}
        assert any(epoch > 0 for epoch in epochs.values())
        cluster.close()

        from repro.runtime import SqliteCatalogStore

        reopened = SqliteCatalogStore(path)
        reopened.bind(4)
        for shard, epoch in epochs.items():
            assert reopened.shard_epoch(shard) == epoch
        reopened.close()


def test_fenced_view_reports_the_base_stores_commit_count():
    """A node engine's store view must expose the *shared* snapshot
    counter, so a node engine's commits carry real commit ids instead
    of a forever-zero view-local counter."""
    base = MemoryCatalogStore()
    base.bind(4)
    view = FencedStoreView(base, ShardLease(node_id="node-1"))
    assert view.commit_count == 0
    base.commit()
    base.commit()
    assert view.commit_count == 2
    # The view's commit only validates; the counter stays the base's.
    view.commit()
    assert view.commit_count == base.commit_count == 2


class TestMembership:
    def test_join_and_leave_mid_stream_byte_identical(self, tiny_harness, feed_expected):
        cluster = make_cluster(tiny_harness, num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        joined = cluster.add_node()
        assert joined in cluster.node_ids()
        cluster.ingest(batches[1])
        cluster.remove_node(cluster.node_ids()[0])
        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_every_node_engine_runs_the_serial_executor(self, tiny_harness):
        """The nodes are the parallelism: no node engine starts a worker pool."""
        cluster = make_cluster(tiny_harness, num_nodes=2, num_shards=8)
        cluster.add_node()
        for node_id in cluster.node_ids():
            assert isinstance(cluster._member(node_id).engine._executor, SerialExecutor)
        cluster.close()

    def test_rebalance_after_every_batch_is_byte_identical(self, tiny_harness, feed_expected):
        """Layout churn between every two batches never changes the products."""
        cluster = make_cluster(tiny_harness, num_nodes=2, num_shards=8)
        for batch in feed_stream(tiny_harness):
            cluster.ingest(batch)
            cluster.rebalance()
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_load_aware_rebalance_levels_shards_and_refences(self, tiny_harness, feed_expected):
        cluster = make_cluster(tiny_harness, num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        before = cluster.coordinator.assignment()
        epochs_before = {shard: cluster.store.shard_epoch(shard) for shard in range(8)}

        layout = cluster.rebalance()
        moved = [shard for shard in range(8) if layout[shard] != before[shard]]
        # Every moved shard was re-fenced; unmoved ones kept their epoch.
        for shard in range(8):
            if shard in moved:
                assert cluster.store.shard_epoch(shard) > epochs_before[shard]
            else:
                assert cluster.store.shard_epoch(shard) == epochs_before[shard]
        # The greedy layout splits observed load evenly: with the loads
        # the coordinator read from the store, no node carries everything.
        loads = {}
        for _, state in cluster.store.iter_clusters():
            loads[state.shard_index] = loads.get(state.shard_index, 0) + state.size()
        per_node = {}
        for shard, node_id in layout.items():
            per_node[node_id] = per_node.get(node_id, 0) + loads.get(shard, 0)
        assert len(per_node) == 2
        assert max(per_node.values()) < sum(per_node.values())

        for batch in batches[1:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()


class _SimulatedCrash(Exception):
    """Raised by the fault hook to cut a node down mid-batch."""


def arm_crash(store, operation, countdown):
    """Install a hook that raises on the Nth occurrence of ``operation``."""
    remaining = {"count": countdown}

    def hook(name):
        if name != operation:
            return
        remaining["count"] -= 1
        if remaining["count"] == 0:
            store.set_fault_hook(None)
            raise _SimulatedCrash(f"injected crash at {operation}")

    store.set_fault_hook(hook)


class TestCrashInjection:
    """ISSUE 3 satellite: kill a node mid-batch, fence, recover, compare."""

    @pytest.mark.parametrize(
        "operation,countdown",
        [
            ("append_offers", 2),
            ("mark_seen", 5),
            ("set_product", 1),
        ],
    )
    def test_mid_batch_crash_recovers_byte_identical(
        self, tmp_path, tiny_harness, feed_expected, operation, countdown
    ):
        path = str(tmp_path / f"crash-{operation}.sqlite3")
        cluster = make_cluster(
            tiny_harness, num_nodes=2, num_shards=8, store="sqlite", store_path=path
        )
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        nodes_before = cluster.node_ids()
        routed_before = {s.node_id: s.offers_routed for s in cluster.node_stats()}
        epochs_before = {shard: cluster.store.shard_epoch(shard) for shard in range(8)}

        arm_crash(cluster.store, operation, countdown)
        report = cluster.ingest(batches[1])  # auto-recovery absorbs the crash
        assert report.offers_new > 0

        # Exactly one node was fenced and dropped from the membership.
        survivors = cluster.node_ids()
        assert len(survivors) == 1
        fenced = set(nodes_before) - set(survivors)
        assert len(fenced) == 1
        # Every shard is owned by the survivor, under advanced epochs for
        # the shards that changed hands.
        assignment = cluster.coordinator.assignment()
        assert set(assignment.values()) == set(survivors)
        assert any(cluster.store.shard_epoch(shard) > epochs_before[shard] for shard in range(8))

        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        # No offer was lost or double-absorbed along the way.
        expected_total = len({o.offer_id for b in batches for o in b})
        assert cluster.snapshot().offers_ingested == expected_total
        # And the rolled-back attempt was not double-counted: the
        # survivor routed its pre-crash share plus every later offer
        # exactly once (the crashed batch counts once, via the replay).
        survivor_stats = cluster.node_stats()[0]
        expected_routed = routed_before[survivor_stats.node_id] + sum(
            len(batch) for batch in batches[1:]
        )
        assert survivor_stats.offers_routed == expected_routed
        cluster.close()

    def test_crash_of_the_last_node_propagates_cleanly(self, tmp_path, tiny_harness, feed_expected):
        """With no survivor to replay on, the crash surfaces, but the
        store is rolled back to the barrier so the caller can retry."""
        path = str(tmp_path / "crash-last.sqlite3")
        cluster = make_cluster(
            tiny_harness, num_nodes=1, num_shards=8, store="sqlite", store_path=path
        )
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        seen_at_barrier = cluster.store.num_seen()

        arm_crash(cluster.store, "append_offers", 1)
        with pytest.raises(_SimulatedCrash):
            cluster.ingest(batches[1])
        # Rolled back: nothing of the failed batch was half-absorbed.
        assert cluster.store.num_seen() == seen_at_barrier
        assert cluster.node_ids() == ["node-1"]

        for batch in batches[1:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_a_crash_on_every_survivor_propagates_at_the_last_node(
        self, tmp_path, tiny_harness, feed_expected
    ):
        """Recovery fences one failed node per attempt; a failure that
        follows the batch onto every survivor surfaces once one node is
        left, with the store back at the barrier."""
        path = str(tmp_path / "crash-every.sqlite3")
        cluster = make_cluster(
            tiny_harness, num_nodes=3, num_shards=8, store="sqlite", store_path=path
        )
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        seen_at_barrier = cluster.store.num_seen()

        def always(name):
            if name == "append_offers":
                raise _SimulatedCrash("injected crash on every node")

        cluster.store.set_fault_hook(always)
        with pytest.raises(_SimulatedCrash):
            cluster.ingest(batches[1])
        cluster.store.set_fault_hook(None)
        assert len(cluster.node_ids()) == 1
        assert cluster.store.num_seen() == seen_at_barrier

        for batch in batches[1:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_crash_at_commit_barrier_is_retryable(self, tmp_path, tiny_harness, feed_expected):
        """A failed shared-store flush is a store failure, not a node
        crash: it propagates, and the batch can simply be replayed."""
        path = str(tmp_path / "crash-commit.sqlite3")
        cluster = make_cluster(
            tiny_harness, num_nodes=2, num_shards=8, store="sqlite", store_path=path
        )
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])

        arm_crash(cluster.store, "commit", 1)
        with pytest.raises(_SimulatedCrash):
            cluster.ingest(batches[1])
        assert cluster.node_ids() == ["node-1", "node-2"]  # nobody was fenced
        replay = cluster.ingest(batches[1])
        assert replay.offers_new > 0
        assert replay.offers_duplicate == 0

        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_crash_recovery_requires_rollback_capable_store(self, tiny_harness):
        """The volatile store has no commit barrier to return to, so a
        mid-batch crash propagates instead of pretending to recover."""
        cluster = make_cluster(tiny_harness, num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        arm_crash(cluster.store, "append_offers", 1)
        with pytest.raises(_SimulatedCrash):
            cluster.ingest(batches[1])
        assert cluster.node_ids() == ["node-1", "node-2"]
        cluster.close()


#: The members MultiNodeEngine and MultiProcessEngine each used to
#: define for themselves (862 lines counting both copies).
SHARED_MEMBERS = [
    "__enter__",
    "__exit__",
    "__init__",
    "_partition",
    "_retire",
    "_route_categories",
    "add_node",
    "barrier_wait_seconds",
    "close",
    "coordinator",
    "coordinator_seconds",
    "fence_node",
    "flush",
    "ingest",
    "node_ids",
    "node_stats",
    "num_clusters",
    "products",
    "rebalance",
    "remove_node",
    "routing_seconds",
    "snapshot",
    "store",
    "transport_stats",
]


class TestOneCoordinator:
    @pytest.mark.parametrize("name", SHARED_MEMBERS)
    def test_shared_member_is_defined_once(self, name):
        """Both public engines resolve every shared member to one object."""
        assert getattr(MultiNodeEngine, name) is getattr(MultiProcessEngine, name)

    def test_cluster_module_does_not_depend_on_procnode(self):
        import repro.runtime.cluster as cluster_module

        assert "__getattr__" not in vars(cluster_module)
        assert not hasattr(cluster_module, "MultiProcessEngine")

    @pytest.mark.parametrize(
        "engine,option",
        [
            (MultiNodeEngine, {"concurrent": True}),
            (MultiProcessEngine, {"delta_refusion": True}),
            (MultiNodeEngine, {"node_timeout": 5.0}),
            (SynthesisEngine, {"delta_refusion": False}),
            (MultiNodeEngine, {"delta_refusion": False}),
            (MultiProcessEngine, {"node_executor": "serial"}),
            (SynthesisEngine, {"track_category_statistics": True}),
            (MultiNodeEngine, {"track_category_statistics": True}),
            (MultiProcessEngine, {"track_category_statistics": True}),
            # Settings only tests ever set: the clusterer holds the
            # emission threshold, recovery is always on, rebalancing is
            # manual, every node engine is serial, the timeouts are fixed.
            (SynthesisEngine, {"min_cluster_size": 2}),
            (ProductSynthesisPipeline, {"min_cluster_size": 2}),
            (SqliteCatalogStore, {"busy_timeout_ms": 5_000}),
            (MultiProcessEngine, {"node_timeout": 5.0}),
            (MultiNodeEngine, {"executor": "process"}),
            # One commit journal (the SQLite store's), one commit barrier.
            (MemoryCatalogStore, {"journal_ring_size": 256}),
            (FencedStoreView, {"deferred_commit": True}),
            *[
                (cluster, option)
                for cluster in (MultiNodeEngine, MultiProcessEngine)
                for option in (
                    {"min_cluster_size": 2},
                    {"max_workers": 2},
                    {"auto_recover": False},
                    {"auto_rebalance_skew": 1.5},
                    {"auto_rebalance_patience": 2},
                )
            ],
        ],
    )
    def test_removed_and_foreign_options_are_rejected(self, tiny_harness, tmp_path, engine, option):
        path = tmp_path / "unused.sqlite3"
        if engine is SqliteCatalogStore:
            required = {"path": str(path)}
        elif engine is MemoryCatalogStore:
            required = {}
        elif engine is FencedStoreView:
            required = {"base": MemoryCatalogStore(), "lease": ShardLease(node_id="node-1")}
        else:
            required = {
                "catalog": tiny_harness.corpus.catalog,
                "correspondences": tiny_harness.offline_result.correspondences,
            }
            if engine is MultiProcessEngine:
                required["store_path"] = str(path)
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine(**required, **option)
        assert not path.exists()


class TestCoordinatorReadsCommittedRows:
    @pytest.mark.parametrize("hint_routing", [False, True], ids=["classify", "hint"])
    def test_views_never_rebuild_the_coordinators_mirror(
        self, tiny_harness, any_cluster, tmp_path, monkeypatch, hint_routing
    ):
        """After open, no ingest or view restores the coordinator's SQLite
        mirror, and every view equals the single engine's after every batch."""
        options = {}
        if any_cluster.kind == "threads":
            options = dict(store="sqlite", store_path=str(tmp_path / "views.sqlite3"))
        cluster = any_cluster(num_nodes=2, num_shards=8, hint_routing=hint_routing, **options)
        restores = []
        original = SqliteCatalogStore._restore

        def counted(store):
            restores.append(store.path)
            original(store)

        monkeypatch.setattr(SqliteCatalogStore, "_restore", counted)
        single = make_single(tiny_harness, num_shards=8)
        for batch in feed_stream(tiny_harness):
            single.ingest(batch)
            cluster.ingest(batch)
            cluster.rebalance()
            assert cluster.products() == single.products()
            assert cluster.num_clusters() == single.num_clusters()
            assert cluster.snapshot() == single.snapshot()
        single.close()
        assert restores == []


class TestClusterFacade:
    def test_reports_and_snapshot_match_single_engine(self, tiny_harness, any_cluster):
        single = make_single(tiny_harness, num_shards=8)
        cluster = any_cluster(num_nodes=3, num_shards=8)
        batches = feed_stream(tiny_harness)
        for batch in batches:
            single_report = single.ingest(batch)
            cluster_report = cluster.ingest(batch)
            assert cluster_report.offers_in_batch == single_report.offers_in_batch
            assert cluster_report.offers_new == single_report.offers_new
            assert cluster_report.offers_duplicate == single_report.offers_duplicate
            assert cluster_report.offers_clustered == single_report.offers_clustered
            assert cluster_report.clusters_touched == single_report.clusters_touched
        single_snapshot = single.snapshot()
        cluster_snapshot = cluster.snapshot()
        assert fingerprint(cluster_snapshot.products) == fingerprint(single_snapshot.products)
        assert cluster_snapshot.num_clusters == single_snapshot.num_clusters
        assert cluster_snapshot.offers_ingested == single_snapshot.offers_ingested
        assert cluster_snapshot.assigned_categories == single_snapshot.assigned_categories
        assert cluster_snapshot.reconciliation_stats == single_snapshot.reconciliation_stats
        single.close()

    def test_the_clusterers_threshold_holds_on_every_node(self, tiny_harness, any_cluster):
        """The emission threshold travels with the clusterer to each node engine."""
        catalog = tiny_harness.corpus.catalog
        single = make_single(
            tiny_harness, num_shards=8, clusterer=KeyAttributeClusterer(catalog, min_cluster_size=2)
        )
        cluster = any_cluster(
            num_nodes=2, num_shards=8, clusterer=KeyAttributeClusterer(catalog, min_cluster_size=2)
        )
        loose = make_single(tiny_harness, num_shards=8)
        for batch in feed_stream(tiny_harness):
            single.ingest(batch)
            cluster.ingest(batch)
            loose.ingest(batch)
        assert len(cluster.products()) < len(loose.products())
        assert sorted(fingerprint(cluster.products())) == sorted(fingerprint(single.products()))
        single.close()
        loose.close()

    def test_node_stats_account_for_every_routed_offer(self, tiny_harness, any_cluster):
        cluster = any_cluster(num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        for batch in batches:
            cluster.ingest(batch)
        stats = cluster.node_stats()
        assert [s.node_id for s in stats] == cluster.node_ids()
        assert sum(s.offers_routed for s in stats) == sum(len(b) for b in batches)
        assert {shard for s in stats for shard in s.shards} == set(range(8))
        assert sum(s.busy_seconds for s in stats) > 0.0
        payload = stats[0].to_dict()
        assert payload["node_id"] == stats[0].node_id
        assert payload["offers_routed"] == stats[0].offers_routed

    def test_cannot_remove_last_node(self, any_cluster):
        cluster = any_cluster(num_nodes=1, num_shards=4)
        with pytest.raises(RuntimeError, match="last node"):
            cluster.remove_node(cluster.node_ids()[0])
        with pytest.raises(ValueError, match="not a cluster member"):
            cluster.remove_node("node-99")

    def test_ingest_after_store_close_fails_fast(self, tiny_harness, any_cluster, tmp_path):
        options = {}
        if any_cluster.kind == "threads":
            options = dict(store="sqlite", store_path=str(tmp_path / "closed.sqlite3"))
        cluster = any_cluster(num_nodes=2, num_shards=4, **options)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        cluster.store.close()
        with pytest.raises(RuntimeError, match="closed"):
            cluster.ingest(batches[1])

    def test_closed_cluster_refuses_every_call(self, tiny_harness, any_cluster):
        """One rule for both engines: ``close`` is final (and idempotent).

        A thread cluster over a caller-owned store used to come back to
        life on the next ``ingest``.
        """
        options = {}
        if any_cluster.kind == "threads":
            # Caller-owned, so the store itself survives the close.
            options = dict(store=MemoryCatalogStore())
        cluster = any_cluster(num_nodes=2, num_shards=4, **options)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        cluster.close()
        cluster.close()
        calls = [
            lambda: cluster.ingest(batches[1]),
            cluster.products,
            cluster.num_clusters,
            cluster.snapshot,
            cluster.add_node,
            lambda: cluster.remove_node("node-2"),
            lambda: cluster.fence_node("node-1"),
            cluster.rebalance,
        ]
        messages = set()
        for call in calls:
            with pytest.raises(RuntimeError, match="closed") as excinfo:
                call()
            messages.add(str(excinfo.value))
        assert len(messages) == 1  # the same error, whatever was called


class TestHintAccuracyGauge:
    """Hint accuracy as a first-class gauge."""

    def test_transport_stats_gauge_semantics(self):
        from repro.runtime.engine import TransportStats

        stats = TransportStats()
        assert stats.hint_accuracy is None  # hint routing never ran
        assert stats.to_dict()["hint_accuracy"] is None
        stats.hinted_offers = 80
        stats.misrouted_offers = 20
        assert stats.hint_accuracy == 0.75
        other = TransportStats(hinted_offers=20, misrouted_offers=0)
        stats.merge(other)
        assert stats.hinted_offers == 100
        assert stats.hint_accuracy == 0.80
        assert stats.to_dict()["hinted_offers"] == 100

    def test_hint_accuracy_pinned_on_fixed_stream(self, tiny_harness, feed_expected, any_cluster):
        """The gauge equals an independent replay of the hint decisions."""
        from repro.runtime import shard_for_category
        from repro.runtime.cluster import CategoryHinter

        batches = feed_stream(tiny_harness)
        cluster = any_cluster(num_nodes=2, num_shards=8, hint_routing=True)
        probe = make_single(tiny_harness, num_shards=8)
        hinter = CategoryHinter.from_classifier(tiny_harness.category_classifier)
        assignment = cluster.coordinator.assignment()
        fallback = cluster.node_ids()[0]

        expected_hinted = 0
        expected_misrouted = 0
        try:
            for batch in batches:
                # Replay the routing decision offer by offer: hinted owner
                # versus the owner the real classifier dictates.
                for offer, classified in zip(batch, probe.classify_offers(batch)):
                    hint = hinter.hint(offer)
                    hinted_owner = (
                        assignment[shard_for_category(hint, 8)] if hint else fallback
                    )
                    true_owner = (
                        assignment[shard_for_category(classified.category_id, 8)]
                        if classified.category_id is not None
                        else fallback
                    )
                    expected_hinted += 1
                    if hinted_owner != true_owner:
                        expected_misrouted += 1
                cluster.ingest(batch)

            stats = cluster.transport_stats()
            assert stats.hinted_offers == expected_hinted
            assert stats.misrouted_offers == expected_misrouted
            assert 0 <= stats.misrouted_offers <= stats.hinted_offers
            assert stats.hint_accuracy == 1.0 - expected_misrouted / expected_hinted
            assert stats.to_dict()["hint_accuracy"] == stats.hint_accuracy
            # The stream is fixed (tiny corpus, feed order), so the gauge
            # itself is pinned: hints must be right most of the time, or
            # hint routing would be all re-ship traffic.
            assert expected_hinted == sum(len(batch) for batch in batches)
            assert stats.hint_accuracy >= 0.5
            assert sorted(fingerprint(cluster.products())) == feed_expected
        finally:
            probe.close()

    def test_coordinator_routing_reports_no_hinted_offers(self, tiny_harness, any_cluster):
        """Without hint routing the gauge must stay None, not fake 1.0."""
        cluster = any_cluster(num_nodes=2, num_shards=8)
        for batch in feed_stream(tiny_harness):
            cluster.ingest(batch)
        stats = cluster.transport_stats()
        assert stats.hinted_offers == 0
        assert stats.hint_accuracy is None
