"""Tests for the true multi-process cluster (`repro.runtime.procnode`).

Covers the whole tentpole surface: byte-identity of 2- and 4-process
clusters against a single engine, the commit barrier (one coordinator
write per batch, carrying every voter's journal, so a reader sees one
commit per batch and a death anywhere lands the batch whole or not at
all), membership churn (join / graceful leave / fence) with
shard-handoff refresh, crash recovery after a SIGKILL between batches,
a hard ``os._exit`` mid-ingest and one right after a vote (injected
inside the node process), and kill-and-resume of the whole cluster against the shared
WAL file — and the node process lifecycle: every node is a
``multiprocessing`` child while the cluster runs, and none outlives
``close()``, a failed constructor or the script that started it.
"""

import dataclasses
import glob
import multiprocessing
import os
import pickle
import sqlite3
import subprocess
import sys
import time

import pytest

from conftest import product_fingerprint as fingerprint
from conftest import run_in_fresh_interpreter
from repro.model.attributes import Specification
from repro.runtime import (
    MultiProcessEngine,
    NodeDeadError,
    SqliteCatalogStore,
    StaleEpochError,
    SynthesisEngine,
)
from repro.runtime import procnode
from repro.runtime.delta import TransportStats
from repro.runtime.node import ShardLease
from repro.serving.reader import CatalogReader


def make_single(harness, **kwargs):
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        **kwargs,
    )


def make_cluster(harness, tmp_path, name="cluster.sqlite3", **kwargs):
    return MultiProcessEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        store_path=str(tmp_path / name),
        **kwargs,
    )


def feed_stream(harness, num_batches=4):
    """The tiny stream in merchant-feed order, split into micro-batches."""
    offers = sorted(harness.unmatched_offers, key=lambda offer: offer.merchant_id)
    size = max(1, (len(offers) + num_batches - 1) // num_batches)
    return [offers[start : start + size] for start in range(0, len(offers), size)]


def child_pids():
    """Pids of every child of this process that is not reaped yet, zombies included.

    Read from the kernel's per-thread children lists, so it also sees
    children that ``multiprocessing`` does not know about.
    """
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path, encoding="ascii") as handle:
            pids.update(int(pid) for pid in handle.read().split())
    return pids


def session_members(session_id):
    """Pids of every process in the session ``session_id`` (the kernel's view)."""
    members = set()
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path, encoding="utf-8", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process exited while we looked
            continue
        if int(fields[3]) == session_id:
            members.add(int(path.split("/")[2]))
    return members


@pytest.fixture(scope="module")
def feed_expected(tiny_harness):
    """Products of an uninterrupted single-engine run over the feed stream."""
    engine = make_single(tiny_harness, num_shards=8)
    for batch in feed_stream(tiny_harness):
        engine.ingest(batch)
    result = sorted(fingerprint(engine.products()))
    engine.close()
    return result


def raw_stream(harness, num_batches=4):
    """The feed stream as raw rows: every specification stripped, so each
    offer is extracted from its landing page on the write path."""
    return [
        [offer.with_specification(Specification()) for offer in batch]
        for batch in feed_stream(harness, num_batches)
    ]


@pytest.fixture(scope="module")
def raw_expected(tiny_harness):
    """Products of one serial engine, with the caller's extractor, over the raw stream."""
    engine = make_single(tiny_harness, num_shards=8)
    for batch in raw_stream(tiny_harness):
        engine.ingest(batch)
    products = engine.products()
    engine.close()
    return products


class TestPagesTravelWithOffers:
    @pytest.mark.parametrize("hint_routing", [False, True], ids=["classify", "hint"])
    def test_nodes_extract_raw_rows_from_the_pages_they_are_sent(
        self, tmp_path, tiny_harness, raw_expected, hint_routing
    ):
        cluster = make_cluster(
            tiny_harness, tmp_path, num_nodes=2, num_shards=8, hint_routing=hint_routing
        )
        try:
            for batch in raw_stream(tiny_harness):
                cluster.ingest(batch)
            assert cluster.products() == raw_expected
        finally:
            cluster.close()

    def test_an_offer_whose_page_is_missing_gets_an_empty_specification(
        self, tmp_path, tiny_harness
    ):
        """No page travels for it, nothing raises, and the node treats it
        as the caller's extractor would: an empty specification, so no
        clustering key."""
        batches = raw_stream(tiny_harness)
        victim = dataclasses.replace(batches[1][0], url="http://missing.example.com/no-page")
        assert victim.url not in tiny_harness.corpus.web
        batches[1][0] = victim
        single = make_single(tiny_harness, num_shards=8)
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        try:
            for position, batch in enumerate(batches):
                expected = single.ingest(batch)
                report = cluster.ingest(batch)
                assert report.offers_without_key == expected.offers_without_key
                assert report.offers_clustered == expected.offers_clustered
                if position == 1:
                    assert report.offers_without_key >= 1
            assert cluster.products() == single.products()
            assert cluster.snapshot() == single.snapshot()
            assert victim.offer_id in cluster.snapshot().assigned_categories
        finally:
            single.close()
            cluster.close()

    @pytest.mark.parametrize("failure", ["kill_between_batches", "die_after_vote"])
    def test_recovery_replay_extracts_again(
        self, tmp_path, tiny_harness, raw_expected, failure
    ):
        """The replay of a batch a node died in sends the pages again."""
        batches = raw_stream(tiny_harness)
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        try:
            cluster.ingest(batches[0])
            victim = cluster.node_ids()[-1]
            if failure == "kill_between_batches":
                cluster.kill_node(victim)
            else:
                cluster.inject_crash(victim, "vote", countdown=1, hard=True)
            for batch in batches[1:]:
                cluster.ingest(batch)
            assert victim not in cluster.node_ids()
            assert cluster.products() == raw_expected
        finally:
            cluster.close()

    def test_node_components_carry_no_page_text(self, tmp_path, tiny_harness, monkeypatch):
        sent = []
        original = procnode.ProcessNode.boot

        def recording(node, store_path, num_shards, components):
            sent.append(components)
            original(node, store_path, num_shards, components)

        monkeypatch.setattr(procnode.ProcessNode, "boot", recording)
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        cluster.close()
        assert len(sent) == 2 and sent[0] == sent[1]
        web = tiny_harness.corpus.web
        assert len(web) > 0
        assert pickle.loads(sent[0])["extractor"].web.urls() == []
        leaked = [url for url in web if web.fetch(url).encode("utf-8") in sent[0]]
        assert leaked == []


class TestMultiProcessBasics:
    def test_requires_store_path(self, tiny_harness):
        with pytest.raises(ValueError, match="store_path"):
            MultiProcessEngine(
                catalog=tiny_harness.corpus.catalog,
                correspondences=tiny_harness.offline_result.correspondences,
            )

    def test_rejects_process_node_executor(self, tmp_path, tiny_harness):
        """Node processes are the parallelism and each runs a serial
        engine, so a process cluster takes no executor at all: the single engine's
        option is refused at construction, before a store file or a
        node process exists, instead of failing opaquely mid-ingest."""
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_cluster(tiny_harness, tmp_path, num_nodes=2, executor="process")
        assert not (tmp_path / "cluster.sqlite3").exists()

    def test_node_processes_exit_when_coordinator_vanishes(self, tmp_path, tiny_harness):
        """Closing the coordinator-side pipe ends (what a coordinator
        hard crash does) must EOF every node: no node holds a duplicate
        of another node's pipe end that would keep it open."""
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=3, num_shards=8)
        cluster.ingest(feed_stream(tiny_harness)[0])
        nodes = [cluster._nodes[node_id] for node_id in cluster.node_ids()]
        for node in nodes:
            node.channel.close()
        for node in nodes:
            node._process.join(timeout=30)
            assert not node.alive(), f"{node.node_id} orphaned after coordinator loss"

    @pytest.mark.parametrize("num_nodes", [2, 4])
    def test_process_cluster_byte_identical(
        self, tmp_path, tiny_harness, feed_expected, num_nodes
    ):
        cluster = make_cluster(
            tiny_harness, tmp_path, num_nodes=num_nodes, num_shards=8
        )
        batches = feed_stream(tiny_harness)
        for batch in batches:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        expected_total = len({o.offer_id for b in batches for o in b})
        assert cluster.snapshot().offers_ingested == expected_total
        # Replaying the whole stream is a cluster-wide no-op.
        replay = cluster.ingest([offer for batch in batches for offer in batch])
        assert replay.offers_new == 0
        assert replay.offers_duplicate == replay.offers_in_batch
        cluster.close()


class TestMembership:
    def test_join_leave_and_rebalance_mid_stream(self, tmp_path, tiny_harness, feed_expected):
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        joined = cluster.add_node()
        assert joined in cluster.node_ids()
        cluster.ingest(batches[1])
        cluster.rebalance()
        cluster.remove_node(cluster.node_ids()[0])
        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_rebalance_after_every_batch_is_byte_identical(
        self, tmp_path, tiny_harness, feed_expected
    ):
        """Load-aware layout churn between every two batches never changes the products."""
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        for batch in feed_stream(tiny_harness):
            cluster.ingest(batch)
            cluster.rebalance()
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_fence_node_durably_advances_epochs(self, tmp_path, tiny_harness):
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        cluster.ingest(feed_stream(tiny_harness)[0])
        victim = cluster.node_ids()[0]
        held = dict(cluster.coordinator.lease_for(victim).epochs)
        cluster.fence_node(victim)
        assert victim not in cluster.node_ids()
        # Every shard the victim held was re-fenced in the shared store:
        # a zombie presenting the old epoch is rejected store-side.
        for shard, epoch in held.items():
            with pytest.raises(StaleEpochError):
                cluster.store.check_shard_epoch(shard, epoch)
        cluster.close()


class TestCrashRecovery:
    def test_sigkill_between_batches_recovers_byte_identical(
        self, tmp_path, tiny_harness, feed_expected
    ):
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        cluster.kill_node(cluster.node_ids()[0])
        report = cluster.ingest(batches[1])  # detects the death, recovers
        assert report.offers_new > 0
        assert len(cluster.node_ids()) == 1
        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        expected_total = len({o.offer_id for b in batches for o in b})
        assert cluster.snapshot().offers_ingested == expected_total
        cluster.close()

    @pytest.mark.parametrize(
        "operation,countdown",
        [
            ("append_offers", 2),
            ("mark_seen", 5),
            ("set_product", 1),
        ],
    )
    def test_hard_exit_mid_ingest_recovers_byte_identical(
        self, tmp_path, tiny_harness, feed_expected, operation, countdown
    ):
        """A node process hard-exits (os._exit) at a precise write: the
        survivors abort to the barrier, the dead node is fenced, and the
        replayed batch carries the catalog to the identical products."""
        cluster = make_cluster(
            tiny_harness,
            tmp_path,
            name=f"crash-{operation}.sqlite3",
            num_nodes=2,
            num_shards=8,
        )
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        victim = cluster.node_ids()[1]
        cluster.inject_crash(victim, operation, countdown)
        report = cluster.ingest(batches[1])
        assert report.offers_new > 0
        assert cluster.node_ids() == [n for n in ("node-1", "node-2") if n != victim]
        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        expected_total = len({o.offer_id for b in batches for o in b})
        assert cluster.snapshot().offers_ingested == expected_total
        cluster.close()

    def test_soft_failure_aborts_partial_journal_and_is_retryable(
        self, tmp_path, tiny_harness, feed_expected
    ):
        """A node whose *engine* raises mid-ingest stays alive with a
        partial journal; the coordinator must abort it even when the
        failure propagates (here: no other node to replay on), so a
        caller retry is clean (no half-processed offers flushed at a
        later barrier)."""
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=1, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        cluster.inject_crash("node-1", "append_offers", countdown=1, hard=False)
        with pytest.raises(RuntimeError, match="injected node fault"):
            cluster.ingest(batches[1])
        # The node survived; the failed batch can simply be retried.
        assert cluster.node_ids() == ["node-1"]
        replay = cluster.ingest(batches[1])
        assert replay.offers_new > 0
        assert replay.offers_duplicate == 0
        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        expected_total = len({o.offer_id for b in batches for o in b})
        assert cluster.snapshot().offers_ingested == expected_total
        cluster.close()

    def test_two_nodes_failing_in_one_wave_recover(
        self, tmp_path, tiny_harness, feed_expected
    ):
        """Both nodes fail in the same wave: every answering journal is
        aborted, one node is fenced, and the replay (on nodes whose
        one-shot faults are spent) carries the stream to byte-identity."""
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        for node_id in cluster.node_ids():
            cluster.inject_crash(node_id, "append_offers", countdown=1, hard=False)
        report = cluster.ingest(batches[1])
        assert report.offers_new > 0
        assert len(cluster.node_ids()) == 1
        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        expected_total = len({o.offer_id for b in batches for o in b})
        assert cluster.snapshot().offers_ingested == expected_total
        cluster.close()

    def test_remove_node_of_dead_process_degrades_to_fence(
        self, tmp_path, tiny_harness, feed_expected
    ):
        """Gracefully removing a node that cannot acknowledge shutdown
        must fence it: its shards get fresh epochs, so a hypothetical
        zombie write is rejected store-side."""
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        victim = cluster.node_ids()[0]
        held = dict(cluster.coordinator.lease_for(victim).epochs)
        cluster.kill_node(victim)
        cluster.remove_node(victim)
        assert victim not in cluster.node_ids()
        for shard, epoch in held.items():
            with pytest.raises(StaleEpochError):
                cluster.store.check_shard_epoch(shard, epoch)
        for batch in batches[1:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        cluster.close()

    def test_two_dead_processes_cascade_fence_and_recover(
        self, tmp_path, tiny_harness, feed_expected
    ):
        """Two of three node processes SIGKILLed together: fencing the
        first discovers the second corpse while pushing leases and
        fences it too, then the batch replays on the survivor."""
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=3, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        cluster.kill_node("node-1")
        cluster.kill_node("node-2")
        report = cluster.ingest(batches[1])
        assert report.offers_new > 0
        assert cluster.node_ids() == ["node-3"]
        for batch in batches[2:]:
            cluster.ingest(batch)
        assert sorted(fingerprint(cluster.products())) == feed_expected
        expected_total = len({o.offer_id for b in batches for o in b})
        assert cluster.snapshot().offers_ingested == expected_total
        cluster.close()

    def test_crash_of_the_last_node_propagates(self, tmp_path, tiny_harness):
        """With no survivor to replay on, the death surfaces from ingest."""
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=1, num_shards=8)
        batches = feed_stream(tiny_harness)
        cluster.ingest(batches[0])
        seen_at_barrier = cluster.snapshot().offers_ingested
        cluster.kill_node("node-1")
        with pytest.raises(NodeDeadError, match="dead"):
            cluster.ingest(batches[1])
        # Nothing of the failed batch reached the shared store.
        assert cluster.snapshot().offers_ingested == seen_at_barrier
        cluster.close()

    def test_cluster_resume_after_full_shutdown(self, tmp_path, tiny_harness, feed_expected):
        """Kill the whole cluster mid-stream; a new cluster over the same
        WAL file resumes exactly where the barrier left it."""
        path_name = "resume.sqlite3"
        batches = feed_stream(tiny_harness)
        first = make_cluster(tiny_harness, tmp_path, name=path_name, num_nodes=2, num_shards=8)
        first.ingest(batches[0])
        first.ingest(batches[1])
        first.close()

        second = make_cluster(tiny_harness, tmp_path, name=path_name, num_nodes=4, num_shards=8)
        # Replaying from the start is safe: committed offers deduplicate.
        for batch in batches:
            second.ingest(batch)
        assert sorted(fingerprint(second.products())) == feed_expected
        expected_total = len({o.offer_id for b in batches for o in b})
        assert second.snapshot().offers_ingested == expected_total
        second.close()


def commits_per_ingest(engine, batches, path, flush=lambda: None):
    """Ingest ``batches``; per batch, how many commits a reader of ``path``
    saw land and the clusters their journal entries named."""
    reader = CatalogReader(path)
    try:
        head = reader.commit_count()
        steps = []
        for batch in batches:
            engine.ingest(batch)
            flush()
            now, delta = reader.read_delta(head)
            steps.append((now - head, set(delta)))
            head = now
        return steps
    finally:
        reader.close()


CLUSTER_DEATH_SCRIPT = """
import os, sys
from repro.corpus.config import CorpusPreset
from repro.experiments.harness import get_harness
from repro.runtime import MultiProcessEngine

harness = get_harness(CorpusPreset.TINY)
offers = sorted(harness.unmatched_offers, key=lambda offer: offer.merchant_id)
size = (len(offers) + 3) // 4
batches = [offers[start : start + size] for start in range(0, len(offers), size)]
cluster = MultiProcessEngine(
    catalog=harness.corpus.catalog,
    correspondences=harness.offline_result.correspondences,
    extractor=harness.extractor,
    category_classifier=harness.category_classifier,
    store_path=sys.argv[1],
    num_nodes=2,
    num_shards=8,
)
cluster.ingest(batches[0])
cluster.ingest(batches[1])


def die(operation):
    if operation == "journal":
        os._exit(17)  # every row of the batch is written, the commit is not


cluster.store.set_fault_hook(die)
cluster.ingest(batches[2])
"""


class TestBarrierAtomicity:
    """The barrier is one transaction of the coordinator's store: a
    batch lands whole or not at all, whoever dies when."""

    @pytest.mark.parametrize("pipeline_depth", [1, 2])
    @pytest.mark.parametrize("hint_routing", [False, True], ids=["classify", "hint"])
    def test_a_reader_sees_one_commit_per_batch(
        self, tmp_path, tiny_harness, pipeline_depth, hint_routing
    ):
        """Each ingest with fresh offers moves a reader's commit count by
        exactly 1, and that commit's journal names exactly the clusters
        the batch touched: those a single engine's commit named."""
        batches = feed_stream(tiny_harness)
        single_path = str(tmp_path / "single.sqlite3")
        single = make_single(tiny_harness, num_shards=8, store="sqlite", store_path=single_path)
        single_steps = commits_per_ingest(single, batches, single_path)
        cluster = make_cluster(
            tiny_harness,
            tmp_path,
            num_nodes=2,
            num_shards=8,
            pipeline_depth=pipeline_depth,
            hint_routing=hint_routing,
        )
        try:
            cluster_path = cluster.store.path
            cluster_steps = commits_per_ingest(cluster, batches, cluster_path, cluster.flush)
            assert [commits for commits, _ in single_steps] == [1] * len(batches)
            assert cluster_steps == single_steps
            assert cluster.products() == single.products()
        finally:
            cluster.close()
            single.close()

    @pytest.mark.parametrize("pipeline_depth", [1, 2])
    def test_a_node_dying_right_after_its_vote_lands_its_batch_whole(
        self, tmp_path, tiny_harness, feed_expected, pipeline_depth
    ):
        """The vote carried the node's journal, so the barrier writes the
        batch whole; the next round finds the node dead and fences it."""
        batches = feed_stream(tiny_harness)
        cluster = make_cluster(
            tiny_harness,
            tmp_path,
            num_nodes=2,
            num_shards=8,
            pipeline_depth=pipeline_depth,
            hint_routing=True,
        )
        reader = CatalogReader(cluster.store.path)
        try:
            cluster.ingest(batches[0])
            cluster.flush()
            victim = cluster.node_ids()[-1]
            cluster.inject_crash(victim, "vote", countdown=1, hard=True)
            cluster.ingest(batches[1])
            cluster._nodes[victim]._process.join(timeout=30)
            assert not cluster._nodes[victim].alive()
            cluster.flush()
            assert reader.commit_count() == 2
            landed = {offer.offer_id for batch in batches[:2] for offer in batch}
            assert cluster.store.committed_num_seen() == len(landed)
            assert victim in cluster.node_ids()  # nobody noticed yet
            for batch in batches[2:]:
                cluster.ingest(batch)
            assert victim not in cluster.node_ids()
            assert sorted(fingerprint(cluster.products())) == feed_expected
        finally:
            reader.close()
            cluster.close()

    @pytest.mark.parametrize("pipeline_depth", [1, 2])
    def test_a_failed_barrier_write_lands_nothing_and_the_retry_does(
        self, tmp_path, tiny_harness, feed_expected, pipeline_depth
    ):
        """The coordinator's write fails after every row of the batch went
        into its transaction: the file keeps the previous barrier, every
        node is rolled back (or the retry would find the offers seen in
        its mirror), and the caller's retry lands the stream."""
        batches = feed_stream(tiny_harness)
        cluster = make_cluster(
            tiny_harness,
            tmp_path,
            num_nodes=2,
            num_shards=8,
            pipeline_depth=pipeline_depth,
            hint_routing=True,
        )
        reader = CatalogReader(cluster.store.path)
        try:
            cluster.ingest(batches[0])
            cluster.flush()
            head, seen = reader.commit_count(), cluster.store.committed_num_seen()

            def fail_once(operation):
                if operation == "journal":
                    cluster.store.set_fault_hook(None)
                    raise RuntimeError("injected barrier write fault")

            cluster.store.set_fault_hook(fail_once)
            with pytest.raises(RuntimeError, match="injected barrier write fault"):
                # At depth 2 batch 1's write happens inside batch 2's ingest.
                for batch in batches[1 : 1 + pipeline_depth]:
                    cluster.ingest(batch)
            assert reader.commit_count() == head
            assert cluster.store.committed_num_seen() == seen
            assert cluster.node_ids() == ["node-1", "node-2"]  # nobody was fenced
            retried = cluster.ingest(batches[1])
            assert retried.offers_new > 0 and retried.offers_duplicate == 0
            for batch in batches[2:]:
                cluster.ingest(batch)
            assert sorted(fingerprint(cluster.products())) == feed_expected
        finally:
            reader.close()
            cluster.close()

    def test_a_coordinator_dying_mid_write_leaves_the_earlier_barriers(
        self, tmp_path, tiny_harness, feed_expected
    ):
        """A coordinator process exits inside its third barrier write:
        the file holds exactly the first two batches, no process of it
        is left, and a reopened cluster replaying the stream lands it."""
        path = tmp_path / "died.sqlite3"
        script = tmp_path / "die_mid_write.py"
        script.write_text(CLUSTER_DEATH_SCRIPT, encoding="utf-8")
        source_root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        process = subprocess.Popen(
            [sys.executable, str(script), str(path)],
            env=dict(os.environ, PYTHONPATH=source_root),
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, 9)
                process.wait()
        assert process.returncode == 17, stderr
        deadline = time.monotonic() + 10
        while session_members(process.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session_members(process.pid) == set(), "the dead coordinator's nodes live on"

        batches = feed_stream(tiny_harness)
        prefix = make_single(tiny_harness, num_shards=8)
        for batch in batches[:2]:
            prefix.ingest(batch)
        with CatalogReader(str(path)) as reader:
            assert reader.commit_count() == 2
        reopened = make_cluster(tiny_harness, tmp_path, name=path.name, num_nodes=2, num_shards=8)
        try:
            assert reopened.products() == prefix.products()
            assert reopened.snapshot() == prefix.snapshot()
            for batch in batches:
                reopened.ingest(batch)
            assert sorted(fingerprint(reopened.products())) == feed_expected
        finally:
            reopened.close()
            prefix.close()

    def test_a_stale_journal_is_refused_and_nothing_lands(self, tmp_path, tiny_harness):
        """Epochs moved behind the coordinator's back between the votes and
        the write: the write refuses every voter's journal."""
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8, pipeline_depth=2)
        reader = CatalogReader(cluster.store.path)
        try:
            cluster.ingest(feed_stream(tiny_harness)[0])
            for shard in range(8):
                cluster.store.advance_shard_epoch(shard)
            with pytest.raises(StaleEpochError, match="nothing of this batch was written"):
                cluster.flush()
            assert reader.commit_count() == 0
            assert cluster.store.committed_num_seen() == 0
            assert list(cluster.store.iter_products()) == []
        finally:
            reader.close()
            cluster.close()

    def test_a_file_with_a_leftover_intent_is_refused_at_open(self, tmp_path, tiny_harness):
        """An older coordinator's commit intent is never silently ignored:
        the open fails with one line, before any node process starts."""
        path = tmp_path / "leftover.sqlite3"
        SqliteCatalogStore(str(path)).close()
        connection = sqlite3.connect(str(path))
        connection.execute("INSERT INTO commit_intents VALUES (1, 3, x'00')")
        connection.commit()
        connection.close()
        before = set(multiprocessing.active_children())
        before_pids = child_pids()
        with pytest.raises(ValueError, match="commit intent") as raised:
            make_cluster(tiny_harness, tmp_path, name=path.name, num_nodes=2, num_shards=8)
        assert "\n" not in str(raised.value)
        leaked = [child for child in multiprocessing.active_children() if child not in before]
        assert leaked == [], f"node processes outlived the refused open: {leaked}"
        assert child_pids() <= before_pids


class FailsToUnpickle:
    """A component that pickles but raises when a node process unpickles it."""

    def __reduce__(self):
        return int, ("not a component",)


GUARDLESS_SCRIPT = """
import multiprocessing, sys
from repro.corpus.config import CorpusPreset
from repro.experiments.harness import get_harness
from repro.runtime import MultiProcessEngine

harness = get_harness(CorpusPreset.TINY)
engine = MultiProcessEngine(
    catalog=harness.corpus.catalog,
    correspondences=harness.offline_result.correspondences,
    extractor=harness.extractor,
    category_classifier=harness.category_classifier,
    store_path=sys.argv[1],
    num_nodes=2,
)
print(" ".join(str(child.pid) for child in multiprocessing.active_children()), flush=True)
engine.ingest(harness.unmatched_offers)
engine.close()
"""


class TestNodeLifecycle:
    def test_nodes_are_multiprocessing_children_and_close_reaps_them(self, tmp_path, tiny_harness):
        before = child_pids()
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        try:
            cluster.ingest(feed_stream(tiny_harness)[0])
            pids = {cluster._nodes[node_id].pid for node_id in cluster.node_ids()}
            assert len(pids) == 2
            assert pids <= {child.pid for child in multiprocessing.active_children()}
            assert pids <= child_pids()
        finally:
            cluster.close()
        assert child_pids() <= before, "a node process outlived close()"
        assert not pids & {child.pid for child in multiprocessing.active_children()}

    def test_a_node_process_imports_only_the_node_half(self):
        """What a node's boot line imports: the engine and the stores, not
        the coordinator, the pool machinery, the learner or the corpus."""
        run_in_fresh_interpreter(
            "import sys; import repro.runtime.node; "
            "loaded = [m for m in ('repro.runtime.cluster', 'repro.runtime.procnode', "
            "'concurrent.futures', 'repro.matching.learner', 'repro.corpus.generator') "
            "if m in sys.modules]; assert not loaded, loaded"
        )

    def test_a_node_silent_past_the_reply_timeout_is_declared_dead(self, monkeypatch):
        """A node that answers nothing for ``NODE_TIMEOUT_S`` is dead to the coordinator."""
        monkeypatch.setattr(procnode, "NODE_TIMEOUT_S", 1.0)
        before = child_pids()
        node = procnode.ProcessNode("node-1", ShardLease(node_id="node-1"), TransportStats())
        try:
            # Never sent its header, the node waits for it and says nothing.
            started = time.monotonic()
            with pytest.raises(NodeDeadError, match="node-1.*no reply within 1s"):
                node.await_ready()
            assert time.monotonic() - started < 30
        finally:
            node.destroy()
        assert not node.alive()
        assert child_pids() <= before, "a node process outlived destroy()"

    def test_joined_node_boots_through_the_handshake(self, tmp_path, tiny_harness):
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=1, num_shards=8)
        try:
            # Boot frames are set-up, not protocol: the wire counters start at zero.
            stats = cluster.transport_stats()
            assert stats.frames_sent == stats.frames_received == 0
            joined = cluster.add_node()
            assert cluster._nodes[joined].alive()
            assert cluster._nodes[joined].pid in {
                child.pid for child in multiprocessing.active_children()
            }
            report = cluster.ingest(feed_stream(tiny_harness)[0])
            assert report.offers_new > 0
        finally:
            cluster.close()

    @pytest.mark.parametrize("failure", ["component", "interpreter"])
    def test_node_that_fails_to_boot_fails_the_constructor_fast(
        self, tmp_path, tiny_harness, monkeypatch, failure
    ):
        """A node that dies before ``ready`` — a component that does not
        unpickle there, or an interpreter that cannot even import the
        node — fails the constructor within seconds (not after the 300 s
        reply timeout), names the node and leaves no process behind."""
        kwargs = {}
        if failure == "component":
            kwargs["fusion"] = FailsToUnpickle()
        else:
            monkeypatch.setattr(
                procnode,
                "_boot_command",
                lambda channel_fd: [sys.executable, "-S", "-c", "import no_such_node_module"],
            )
        before = child_pids()
        started = time.monotonic()
        with pytest.raises(NodeDeadError, match="node-1.*failed to boot") as raised:
            make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8, **kwargs)
        assert time.monotonic() - started < 30
        if failure == "component":
            assert "not a component" in str(raised.value)
        assert "exit code 1" in str(raised.value)
        assert child_pids() <= before, "a node process outlived the failed constructor"

    def test_join_that_fails_to_boot_leaves_the_cluster_as_it_was(
        self, tmp_path, tiny_harness, feed_expected, monkeypatch
    ):
        cluster = make_cluster(tiny_harness, tmp_path, num_nodes=2, num_shards=8)
        try:
            batches = feed_stream(tiny_harness)
            cluster.ingest(batches[0])
            before = child_pids()
            with monkeypatch.context() as patch:
                patch.setattr(
                    procnode,
                    "_boot_command",
                    lambda channel_fd: [sys.executable, "-S", "-c", "raise SystemExit(3)"],
                )
                with pytest.raises(NodeDeadError, match="node-3.*exit code 3"):
                    cluster.add_node()
            assert child_pids() <= before
            assert cluster.node_ids() == ["node-1", "node-2"]
            assert sorted(cluster.coordinator.assignment().values()) == sorted(
                ["node-1", "node-2"] * 4
            )
            for batch in batches[1:]:
                cluster.ingest(batch)
            assert sorted(fingerprint(cluster.products())) == feed_expected
        finally:
            cluster.close()

    def test_script_without_main_guard_runs_and_leaves_nothing(self, tmp_path):
        """Nodes never re-run the caller's ``__main__``: a script with no
        ``if __name__ == "__main__":`` guard builds, ingests, closes and
        exits, and no process it started (a node, a resource tracker, a
        fork server) is left in its session afterwards."""
        script = tmp_path / "guardless.py"
        script.write_text(GUARDLESS_SCRIPT, encoding="utf-8")
        source_root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        process = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path / "guardless.sqlite3")],
            env=dict(os.environ, PYTHONPATH=source_root),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, 9)
                process.wait()
        assert process.returncode == 0, stderr
        node_pids = {int(pid) for pid in stdout.split()}
        assert len(node_pids) == 2
        deadline = time.monotonic() + 10
        while session_members(process.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session_members(process.pid) == set(), "the script left processes behind"
