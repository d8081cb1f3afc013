"""A fleet's replicas pin versions of one index instead of holding copies.

``ServingFleet.from_store_path`` opens one reader and one chain of
published index versions; each replica pins a version.  These tests pin
down what that sharing promises: replicas at the head serve one index
object through one reader, a commit is decoded and applied once however
many replicas move to it, a replica whose resync hook raises keeps its
old (unmutated) version while the others advance, a restart pins the
latest version without reading the store, and a resync building the
next version never blocks a query.
"""

import threading

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.runtime import SynthesisEngine
from repro.serving import CatalogIndex, CatalogReader, ServingFleet


def make_engine(harness, path):
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
        store="sqlite",
        store_path=path,
    )


def fingerprints(results):
    return tuple((result.product.product_id, result.score) for result in results)


def served_index(fleet, replica_id):
    return fleet._replicas[replica_id].service._version.index


@pytest.fixture
def writer_and_fleet(tiny_harness, tmp_path):
    """A writer that committed half the offers, a 2-replica fleet, the other half."""
    engine = make_engine(tiny_harness, str(tmp_path / "versions.sqlite3"))
    offers = tiny_harness.unmatched_offers
    middle = len(offers) // 2
    engine.ingest(offers[:middle])
    fleet = ServingFleet.from_store_path(engine.store.path, num_replicas=2)
    yield engine, fleet, offers[middle:]
    fleet.close()
    engine.close()


def test_replicas_at_the_head_share_one_index_and_one_reader(writer_and_fleet):
    engine, fleet, rest = writer_and_fleet
    services = [replica.service for replica in fleet._replicas]
    assert services[0]._reader is services[1]._reader
    assert served_index(fleet, 0) is served_index(fleet, 1)
    engine.ingest(rest)
    fleet.refresh_once()
    fleet.refresh_once()
    assert [entry["lag"] for entry in fleet.lag()["replicas"]] == [0, 0]
    assert served_index(fleet, 0) is served_index(fleet, 1)
    assert served_index(fleet, 0).published


def test_each_commit_is_decoded_and_applied_once(tiny_harness, tmp_path, monkeypatch):
    engine = make_engine(tiny_harness, str(tmp_path / "once.sqlite3"))
    offers = tiny_harness.unmatched_offers
    engine.ingest(offers[:10])
    registry = MetricsRegistry()
    previous = set_registry(registry)
    deltas = []
    original = CatalogReader.read_delta

    def counting(reader, since):
        head, delta = original(reader, since)
        deltas.append(len(delta or ()))
        return head, delta

    monkeypatch.setattr(CatalogReader, "read_delta", counting)
    try:
        fleet = ServingFleet.from_store_path(engine.store.path, num_replicas=3)
        engine.ingest(offers[10:])
        for _ in range(3):
            assert fleet.refresh_once() is not None
        counters = registry.snapshot()["counters"]
        fleet.close()
    finally:
        set_registry(previous)
        engine.close()
    # One replica read the delta; the other two moved to its version
    # without a store read.
    assert len(deltas) == 1 and deltas[0] > 0
    upserts = counters.get("serving_index_upserts_total", 0.0)
    removes = counters.get("serving_index_removes_total", 0.0)
    assert upserts + removes == deltas[0]
    # Every replica still counts its own move to the new version.
    assert counters['serving_resyncs_total{mode="delta"}'] == 3


def test_a_replica_whose_resync_raises_keeps_its_old_version(writer_and_fleet):
    engine, fleet, rest = writer_and_fleet
    before_snapshot = engine.store.commit_count
    before_products = engine.products()
    old_index = served_index(fleet, 0)

    def broken(operation):
        if operation == "resync":
            raise RuntimeError("injected resync failure")

    fleet.set_fault_hook(0, broken)
    engine.ingest(rest)
    assert fleet.refresh_once() == 1  # replica 1 builds the next version...
    assert fleet.refresh_once() is None  # ...and replica 0's hook raises
    lag = fleet.lag()["replicas"]
    assert [entry["snapshot_commit_count"] for entry in lag] == [
        before_snapshot,
        engine.store.commit_count,
    ]
    assert (lag[0]["healthy"], lag[1]["healthy"]) == (False, True)
    assert served_index(fleet, 0) is old_index
    assert served_index(fleet, 1) is not old_index
    # Queries go around the failed replica, to the advanced one.
    responses = [fleet.search("hard drive", top_k=5) for _ in range(4)]
    assert {response.replica_id for response in responses} == {1}
    assert {response.snapshot_commit_count for response in responses} == {
        engine.store.commit_count
    }
    # The old version was never written: it still answers for its commit.
    reference = CatalogIndex(before_products)
    for query in ("hard drive", "camera", "memory card"):
        assert fingerprints(old_index.search(query, top_k=10)) == fingerprints(
            reference.search(query, top_k=10)
        )


def test_restart_pins_the_head_without_a_store_read(writer_and_fleet, monkeypatch):
    engine, fleet, rest = writer_and_fleet
    engine.ingest(rest)
    fleet.refresh_once()
    fleet.refresh_once()
    head_index = served_index(fleet, 1)
    reads = []
    for name in ("read_products", "read_delta", "commit_count"):
        original = getattr(CatalogReader, name)

        def counting(reader, *args, _name=name, _original=original):
            reads.append(_name)
            return _original(reader, *args)

        monkeypatch.setattr(CatalogReader, name, counting)
    fleet.restart_replica(0)
    assert reads == []
    assert served_index(fleet, 0) is head_index
    entry = fleet.lag()["replicas"][0]
    assert entry["snapshot_commit_count"] == engine.store.commit_count
    assert entry["resync"]["full_resyncs"] == 1  # its priming pin


def test_a_resync_never_blocks_a_query(tiny_harness, tmp_path, monkeypatch):
    """A query on a replica whose next version is being built answers at once."""
    engine = make_engine(tiny_harness, str(tmp_path / "unblocked.sqlite3"))
    offers = tiny_harness.unmatched_offers
    engine.ingest(offers[:10])
    fleet = ServingFleet.from_store_path(engine.store.path, num_replicas=1, max_lag_commits=2)
    before = engine.store.commit_count
    entered, release = threading.Event(), threading.Event()
    original = CatalogIndex.upsert

    def slow_upsert(index, product):
        if threading.current_thread().name == "refresher":
            entered.set()
            assert release.wait(timeout=30)
        return original(index, product)

    monkeypatch.setattr(CatalogIndex, "upsert", slow_upsert)
    refresher = threading.Thread(target=fleet.refresh_once, name="refresher", daemon=True)
    try:
        engine.ingest(offers[10:])
        refresher.start()
        assert entered.wait(timeout=10)  # the resync is applying the delta
        answered = []
        query = threading.Thread(
            target=lambda: answered.append(fleet.search("hard drive")), daemon=True
        )
        query.start()
        query.join(timeout=5)
        assert answered and answered[0].snapshot_commit_count == before
    finally:
        release.set()
        refresher.join(timeout=30)
        fleet.close()
        engine.close()
    assert not refresher.is_alive()
