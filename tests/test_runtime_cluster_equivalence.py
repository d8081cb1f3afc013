"""Property-based equivalence: MultiNodeEngine == SynthesisEngine.

For random offer streams (random subsets, orderings, and duplications of
the tiny corpus) and random micro-batch splits, a cluster of 1, 2 or 4
nodes over either store backend must synthesize a product set
byte-identical to a single serial in-memory engine fed the same stream —
the acceptance criterion of the multi-node tentpole.

The stream and split are drawn by hypothesis; the reference fingerprint
is recomputed per example, so shrinking stays meaningful.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.products import product_fingerprint as fingerprint
from repro.runtime import (
    MultiNodeEngine,
    MultiProcessEngine,
    StagedBatch,
    StaleEpochError,
    SynthesisEngine,
)

#: Unique sqlite filenames across hypothesis examples (which all share
#: one tmp directory because fixtures are resolved once per test).
_STORE_COUNTER = itertools.count(1)


def split_batches(stream, cut_points):
    cuts = [0] + sorted(cut_points) + [len(stream)]
    return [stream[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


def engine_kwargs(harness):
    return dict(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
    )


def reference_fingerprint(harness, batches):
    engine = SynthesisEngine(num_shards=8, **engine_kwargs(harness))
    for batch in batches:
        engine.ingest(batch)
    result = sorted(fingerprint(engine.products()))
    engine.close()
    return result


@st.composite
def stream_and_cuts(draw, max_offers):
    """A random stream (indices, duplicates allowed) plus batch cuts."""
    indices = draw(st.lists(st.integers(0, max_offers - 1), min_size=4, max_size=28))
    cut_points = draw(st.lists(st.integers(1, len(indices) - 1), max_size=4, unique=True))
    return indices, cut_points


class TestMultiNodeEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_streams_and_splits_byte_identical(self, tiny_harness, tmp_path_factory, data):
        offers = tiny_harness.unmatched_offers
        indices, cut_points = data.draw(stream_and_cuts(len(offers)))
        stream = [offers[index] for index in indices]
        batches = split_batches(stream, cut_points)
        num_nodes = data.draw(st.sampled_from([1, 2, 4]))
        backend = data.draw(st.sampled_from(["memory", "sqlite"]))

        expected = reference_fingerprint(tiny_harness, batches)

        store_path = None
        if backend == "sqlite":
            store_dir = tmp_path_factory.mktemp("equivalence")
            store_path = str(store_dir / f"cluster-{next(_STORE_COUNTER)}.sqlite3")
        cluster = MultiNodeEngine(
            num_nodes=num_nodes,
            num_shards=8,
            store=backend,
            store_path=store_path,
            **engine_kwargs(tiny_harness),
        )
        try:
            for batch in batches:
                cluster.ingest(batch)
            assert sorted(fingerprint(cluster.products())) == expected
            # The cluster also deduplicated exactly like a single engine:
            # every distinct offer id was absorbed exactly once.
            assert cluster.snapshot().offers_ingested == len({o.offer_id for o in stream})
        finally:
            cluster.close()

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_membership_churn_preserves_equivalence(self, tiny_harness, data):
        """Join/leave at random batch boundaries never changes the output."""
        offers = tiny_harness.unmatched_offers
        indices, cut_points = data.draw(stream_and_cuts(len(offers)))
        stream = [offers[index] for index in indices]
        batches = split_batches(stream, cut_points)
        join_before = data.draw(st.integers(0, len(batches)))
        leave_before = data.draw(st.integers(0, len(batches)))

        expected = reference_fingerprint(tiny_harness, batches)

        cluster = MultiNodeEngine(num_nodes=2, num_shards=8, **engine_kwargs(tiny_harness))
        try:
            for position, batch in enumerate(batches):
                if position == join_before:
                    cluster.add_node()
                if position == leave_before and len(cluster.node_ids()) > 1:
                    cluster.remove_node(cluster.node_ids()[0])
                cluster.ingest(batch)
            assert sorted(fingerprint(cluster.products())) == expected
        finally:
            cluster.close()


class TestMultiProcessEquivalence:
    """ISSUE 4 acceptance: 2- and 4-process clusters are byte-identical
    to a single engine for random streams and splits, including one
    mid-stream node kill absorbed by crash recovery."""

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_process_cluster_byte_identical(self, tiny_harness, tmp_path_factory, data):
        offers = tiny_harness.unmatched_offers
        indices, cut_points = data.draw(stream_and_cuts(len(offers)))
        stream = [offers[index] for index in indices]
        batches = split_batches(stream, cut_points)
        num_nodes = data.draw(st.sampled_from([2, 4]))

        expected = reference_fingerprint(tiny_harness, batches)

        store_dir = tmp_path_factory.mktemp("proc-equivalence")
        store_path = str(store_dir / f"cluster-{next(_STORE_COUNTER)}.sqlite3")
        cluster = MultiProcessEngine(
            num_nodes=num_nodes,
            num_shards=8,
            store_path=store_path,
            **engine_kwargs(tiny_harness),
        )
        try:
            for batch in batches:
                cluster.ingest(batch)
            assert sorted(fingerprint(cluster.products())) == expected
            assert cluster.snapshot().offers_ingested == len({o.offer_id for o in stream})
        finally:
            cluster.close()

    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_mid_stream_node_kill_preserves_equivalence(
        self, tiny_harness, tmp_path_factory, data
    ):
        """SIGKILL one node process before a random batch: recovery
        (abort survivors, fence, replay) keeps the products identical."""
        offers = tiny_harness.unmatched_offers
        indices, cut_points = data.draw(stream_and_cuts(len(offers)))
        stream = [offers[index] for index in indices]
        batches = split_batches(stream, cut_points)
        kill_before = data.draw(st.integers(0, len(batches) - 1))

        expected = reference_fingerprint(tiny_harness, batches)

        store_dir = tmp_path_factory.mktemp("proc-kill")
        store_path = str(store_dir / f"cluster-{next(_STORE_COUNTER)}.sqlite3")
        cluster = MultiProcessEngine(
            num_nodes=2,
            num_shards=8,
            store_path=store_path,
            **engine_kwargs(tiny_harness),
        )
        try:
            killed = False
            for position, batch in enumerate(batches):
                if position == kill_before and not killed:
                    cluster.kill_node(cluster.node_ids()[-1])
                    killed = True
                cluster.ingest(batch)
            assert sorted(fingerprint(cluster.products())) == expected
            assert cluster.snapshot().offers_ingested == len({o.offer_id for o in stream})
        finally:
            cluster.close()


class TestPipelinedEquivalence:
    """ISSUE 7 acceptance: the pipelined / hint-routed ingest paths are
    byte-identical to the default path for random streams and splits, at
    1, 2 and 4 nodes, on both store backends, including a node killed
    while a depth-2 commit window is still in flight."""

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_knob_combinations_byte_identical(self, tiny_harness, tmp_path_factory, data):
        offers = tiny_harness.unmatched_offers
        indices, cut_points = data.draw(stream_and_cuts(len(offers)))
        stream = [offers[index] for index in indices]
        batches = split_batches(stream, cut_points)
        num_nodes = data.draw(st.sampled_from([1, 2, 4]))
        backend = data.draw(st.sampled_from(["memory", "sqlite"]))
        pipeline_depth = data.draw(st.sampled_from([1, 2]))
        hint_routing = data.draw(st.booleans())

        expected = reference_fingerprint(tiny_harness, batches)

        store_path = None
        if backend == "sqlite":
            store_dir = tmp_path_factory.mktemp("pipelined")
            store_path = str(store_dir / f"cluster-{next(_STORE_COUNTER)}.sqlite3")
        cluster = MultiNodeEngine(
            num_nodes=num_nodes,
            num_shards=8,
            store=backend,
            store_path=store_path,
            pipeline_depth=pipeline_depth,
            hint_routing=hint_routing,
            **engine_kwargs(tiny_harness),
        )
        try:
            for batch in batches:
                cluster.ingest(batch)
            assert sorted(fingerprint(cluster.products())) == expected
            assert cluster.snapshot().offers_ingested == len({o.offer_id for o in stream})
        finally:
            cluster.close()

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_process_cluster_pipelined_byte_identical(
        self, tiny_harness, tmp_path_factory, data
    ):
        offers = tiny_harness.unmatched_offers
        indices, cut_points = data.draw(stream_and_cuts(len(offers)))
        stream = [offers[index] for index in indices]
        batches = split_batches(stream, cut_points)
        num_nodes = data.draw(st.sampled_from([2, 4]))
        hint_routing = data.draw(st.booleans())

        expected = reference_fingerprint(tiny_harness, batches)

        store_dir = tmp_path_factory.mktemp("proc-pipelined")
        store_path = str(store_dir / f"cluster-{next(_STORE_COUNTER)}.sqlite3")
        cluster = MultiProcessEngine(
            num_nodes=num_nodes,
            num_shards=8,
            store_path=store_path,
            pipeline_depth=2,
            hint_routing=hint_routing,
            **engine_kwargs(tiny_harness),
        )
        try:
            for batch in batches:
                cluster.ingest(batch)
            assert sorted(fingerprint(cluster.products())) == expected
            assert cluster.snapshot().offers_ingested == len({o.offer_id for o in stream})
        finally:
            cluster.close()

    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_mid_pipeline_node_kill_preserves_equivalence(
        self, tiny_harness, tmp_path_factory, data
    ):
        """SIGKILL a node while batch N's commit window is still open
        (depth 2): the durable commit intent plus recovery replay keeps
        the products identical to the single engine."""
        offers = tiny_harness.unmatched_offers
        indices, cut_points = data.draw(stream_and_cuts(len(offers)))
        stream = [offers[index] for index in indices]
        batches = split_batches(stream, cut_points)
        # Kill *after* some batch's ingest returned — its commit window
        # is still in flight at depth 2 — and before the next batch.
        kill_after = data.draw(st.integers(0, len(batches) - 1))

        expected = reference_fingerprint(tiny_harness, batches)

        store_dir = tmp_path_factory.mktemp("proc-pipeline-kill")
        store_path = str(store_dir / f"cluster-{next(_STORE_COUNTER)}.sqlite3")
        cluster = MultiProcessEngine(
            num_nodes=2,
            num_shards=8,
            store_path=store_path,
            pipeline_depth=2,
            hint_routing=True,
            **engine_kwargs(tiny_harness),
        )
        try:
            killed = False
            for position, batch in enumerate(batches):
                cluster.ingest(batch)
                if position == kill_after and not killed:
                    cluster.kill_node(cluster.node_ids()[-1])
                    killed = True
            assert sorted(fingerprint(cluster.products())) == expected
            assert cluster.snapshot().offers_ingested == len({o.offer_id for o in stream})
        finally:
            cluster.close()


class TestFencedEpochRejection:
    """Acceptance criterion rider: the stale-epoch write is rejected."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_stale_epoch_write_rejected_on_both_backends(self, backend, tmp_path, tiny_harness):
        store_path = str(tmp_path / "fence.sqlite3") if backend == "sqlite" else None
        cluster = MultiNodeEngine(
            num_nodes=2,
            num_shards=8,
            store=backend,
            store_path=store_path,
            **engine_kwargs(tiny_harness),
        )
        try:
            offers = tiny_harness.unmatched_offers
            cluster.ingest(offers[: len(offers) // 2])
            victim = cluster.node_ids()[0]
            view = cluster.node_view(victim)
            shard = view.lease.shards()[0]
            cluster.fence_node(victim)
            with pytest.raises(StaleEpochError):
                view.apply(StagedBatch(clusters=[("computing.hdd", "stale-key")]))
            with pytest.raises(StaleEpochError):
                view.commit()
            # And the authoritative store-side check, independent of the
            # in-process lease object.
            with pytest.raises(StaleEpochError):
                cluster.store.check_shard_epoch(shard, cluster.store.shard_epoch(shard) - 1)
            cluster.ingest(offers[len(offers) // 2 :])
        finally:
            cluster.close()
