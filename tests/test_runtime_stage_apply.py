"""A batch lands whole or not at all, so a failed ingest can be retried.

``SynthesisEngine.ingest`` stages a batch's whole effect (dedup,
classify, extract, reconcile, route, fusion) without touching the store,
then hands it to ``store.apply`` and commits.  A failure anywhere before
the apply, or at one of the apply's own fault points, leaves the store
as it was; a failure at the commit leaves the batch applied and queued
for the next commit.  Either way the caller's retry of the same batch
ends with the uninterrupted run's catalog, also in a reopened file.
"""

import pytest

from repro.model.products import product_fingerprint as fingerprint
from repro.runtime import MultiNodeEngine, SqliteCatalogStore, SynthesisEngine

#: Every place one failure is injected: the store's fault points and fusion.
FAULT_POINTS = ["mark_seen", "append_offers", "set_product", "commit", "journal", "fusion"]


def engine_kwargs(harness):
    return dict(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
    )


def merchant_batches(harness, size=10):
    """The tiny stream in merchant-feed order, in batches of ``size`` offers."""
    offers = sorted(harness.unmatched_offers, key=lambda offer: offer.merchant_id)
    return [offers[start : start + size] for start in range(0, len(offers), size)]


class OneFailure:
    """Arms one failure at a named point of the next ingest(s); fires once.

    Store fault points go through the store's fault hook; ``"fusion"``
    makes the engine's executor raise where it would fuse the batch's
    touched clusters.
    """

    def __init__(self, point):
        self.point = point
        self.armed = False
        self.fired = 0

    def _fire(self):
        self.armed = False
        self.fired += 1
        raise RuntimeError(f"injected failure at {self.point}")

    def hook(self, operation):
        if self.armed and operation == self.point:
            self._fire()

    def install(self, engine, monkeypatch):
        if self.point != "fusion":
            engine.store.set_fault_hook(self.hook)
            return
        real_map_shards = engine._executor.map_shards

        def map_shards(function, payloads):
            if self.armed:
                self._fire()
            return real_map_shards(function, payloads)

        monkeypatch.setattr(engine._executor, "map_shards", map_shards)


def ingest_with_retry(engine, batch, failure):
    """Ingest ``batch``; if the armed failure fires, retry it once as a caller would."""
    try:
        return engine.ingest(batch)
    except RuntimeError as error:
        assert "injected failure" in str(error)
        assert not failure.armed
        return engine.ingest(batch)


@pytest.fixture(scope="module")
def uninterrupted_engine(tiny_harness):
    """An engine after an uninterrupted run over the merchant-ordered batches."""
    engine = SynthesisEngine(**engine_kwargs(tiny_harness))
    for batch in merchant_batches(tiny_harness):
        engine.ingest(batch)
    return engine


@pytest.fixture(scope="module")
def uninterrupted(uninterrupted_engine):
    """Products of the uninterrupted run."""
    return fingerprint(uninterrupted_engine.products())


def reopened_products(harness, path):
    engine = SynthesisEngine(store="sqlite", store_path=path, **engine_kwargs(harness))
    try:
        return fingerprint(engine.products())
    finally:
        engine.close()


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_a_batch_whose_fusion_fails_once_is_retried_whole(
    tiny_harness, uninterrupted_engine, uninterrupted, tmp_path, monkeypatch, store, executor
):
    """Fusion raises once on the third batch and the caller retries it:
    the retry absorbs all ten offers again, no product is lost, and the
    failed attempt ships nothing into the transport counters."""
    path = str(tmp_path / "catalog.sqlite3")
    engine = SynthesisEngine(
        store=store, store_path=path, executor=executor, **engine_kwargs(tiny_harness)
    )
    failure = OneFailure("fusion")
    failure.install(engine, monkeypatch)
    batches = merchant_batches(tiny_harness)
    assert len(uninterrupted) == 31 and len(batches) > 3
    for number, batch in enumerate(batches, 1):
        if number == 3:
            failure.armed = True
            with pytest.raises(RuntimeError, match="injected failure at fusion"):
                engine.ingest(batch)
            report = engine.ingest(batch)
            assert (report.offers_new, report.offers_duplicate) == (len(batch), 0)
        else:
            engine.ingest(batch)
    assert failure.fired == 1
    assert fingerprint(engine.products()) == uninterrupted
    expected = uninterrupted_engine.transport_stats().to_dict()
    assert engine.transport_stats().to_dict() == expected
    engine.close()
    if store == "sqlite":
        assert reopened_products(tiny_harness, path) == uninterrupted


@pytest.mark.parametrize("point", FAULT_POINTS)
@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_one_failure_on_any_batch_then_a_retry_changes_nothing(
    tiny_harness, uninterrupted, tmp_path, monkeypatch, store, point
):
    """One failure at ``point`` on batch k, for every k in turn, and the
    caller's retry: the products, and the reopened file, equal the
    uninterrupted run's.  (The memory store has no ``journal`` point.)"""
    batches = merchant_batches(tiny_harness)
    fired = 0
    for failing in range(len(batches)):
        path = str(tmp_path / f"catalog-{failing}.sqlite3")
        with monkeypatch.context() as patch:
            engine = SynthesisEngine(store=store, store_path=path, **engine_kwargs(tiny_harness))
            failure = OneFailure(point)
            failure.install(engine, patch)
            for number, batch in enumerate(batches):
                failure.armed = number == failing
                ingest_with_retry(engine, batch, failure)
            failure.armed = False
            fired += failure.fired
            assert fingerprint(engine.products()) == uninterrupted, (point, failing)
            engine.close()
        if store == "sqlite":
            assert reopened_products(tiny_harness, path) == uninterrupted, (point, failing)
    if store == "sqlite" or point != "journal":
        assert fired == len(batches)


def test_a_multi_node_memory_cluster_keeps_a_failed_nodes_offers(
    tiny_harness, uninterrupted, monkeypatch
):
    """Two in-process nodes over the memory store, which cannot roll a
    wave back: one node's fusion fails on the third batch, so the error
    reaches the caller.  The node that failed applied nothing, so the
    retry absorbs its offers and the catalog ends complete."""
    cluster = MultiNodeEngine(num_nodes=2, num_shards=4, **engine_kwargs(tiny_harness))
    try:
        failure = OneFailure("fusion")
        for node_id in cluster.node_ids():
            failure.install(cluster._member(node_id).engine, monkeypatch)
        for number, batch in enumerate(merchant_batches(tiny_harness), 1):
            failure.armed = number == 3
            if number != 3:
                cluster.ingest(batch)
                continue
            with pytest.raises(RuntimeError, match="injected failure at fusion"):
                cluster.ingest(batch)
            report = cluster.ingest(batch)
            assert report.offers_new > 0
            assert report.offers_new + report.offers_duplicate == len(batch)
        assert failure.fired == 1
        assert fingerprint(cluster.products()) == uninterrupted
    finally:
        cluster.close()


def test_a_failed_apply_leaves_the_sqlite_mirror_and_journal_untouched(tmp_path):
    """Every fault point fires before anything is applied: after a failed
    ``apply`` the store reads and commits exactly as before it."""
    from repro.runtime import StagedBatch

    store = SqliteCatalogStore(str(tmp_path / "catalog.sqlite3"))
    store.bind(4)
    cluster_id = ("cat", "key")
    batch = StagedBatch(
        seen=["offer-1"],
        clusters=[cluster_id],
        offers={cluster_id: []},
        products={cluster_id: None},
    )
    for point in ("mark_seen", "append_offers", "set_product"):
        failure = OneFailure(point)
        failure.armed = True
        store.set_fault_hook(failure.hook)
        with pytest.raises(RuntimeError, match=point):
            store.apply(batch)
        assert (store.num_seen(), store.num_clusters()) == (0, 0)
    store.set_fault_hook(None)
    store.commit()
    assert (store.committed_num_seen(), store.committed_num_clusters()) == (0, 0)
    store.apply(batch)
    store.commit()
    assert (store.committed_num_seen(), store.committed_num_clusters()) == (1, 1)
    store.close()
