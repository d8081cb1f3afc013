"""Kill-and-resume drill for a true multi-process synthesis cluster.

Walks the full operator story over one shared SQLite WAL store
(see ``docs/operations.md``):

1. start a 2-process cluster and stream the first batch of a feed;
2. hard-kill one node process mid-ingest (an injected ``os._exit`` at a
   precise store write) and watch crash recovery absorb it — survivors
   abort to the commit barrier, the dead node is fenced, the batch
   replays;
3. make the coordinator's barrier write fail once: nothing of the batch
   lands, and the caller's retry does;
4. shut the whole cluster down mid-stream;
5. start a *new* cluster over the same WAL file and replay the stream —
   committed offers deduplicate, the rest are absorbed;
6. verify the final catalog is byte-identical to an uninterrupted
   single-engine run.

Throughout phases 1–5 a read-only :class:`~repro.serving.reader.CatalogReader`
on the file checks the barrier's promise: every ingest that absorbed
offers moved the commit count by exactly one, so no reader ever saw
half a batch.

Run with::

    PYTHONPATH=src python examples/cluster_resume.py
"""

from __future__ import annotations

import os
import tempfile

from repro.corpus.config import CorpusPreset
from repro.experiments.harness import ExperimentHarness
from repro.model.products import product_fingerprint
from repro.runtime import MultiProcessEngine, SynthesisEngine
from repro.serving.reader import CatalogReader


def feed_batches(harness: ExperimentHarness, num_batches: int = 6) -> list:
    """The unmatched offers in merchant-feed order, micro-batched."""
    offers = sorted(harness.unmatched_offers, key=lambda offer: offer.merchant_id)
    size = max(1, (len(offers) + num_batches - 1) // num_batches)
    return [offers[start : start + size] for start in range(0, len(offers), size)]


def ingest_one_commit(cluster: MultiProcessEngine, reader: CatalogReader, batch: list):
    """Ingest ``batch``; assert a reader saw one commit if it absorbed offers, else none."""
    before = reader.commit_count()
    report = cluster.ingest(batch)
    commits = reader.commit_count() - before
    assert commits == (1 if report.offers_new else 0), f"{commits} commits for one batch"
    return report


def main() -> None:
    """Run the drill end to end and assert byte-identity."""
    print("building the tiny corpus + offline learning artefacts ...")
    harness = ExperimentHarness(CorpusPreset.TINY.config(seed=2011))
    batches = feed_batches(harness)
    pipeline_kwargs = dict(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
    )

    # The reference: one uninterrupted single engine over the stream.
    single = SynthesisEngine(num_shards=8, **pipeline_kwargs)
    for batch in batches:
        single.ingest(batch)
    reference = sorted(product_fingerprint(single.products()))
    single.close()
    print(f"reference run: {len(reference)} products from {len(batches)} batches\n")

    with tempfile.TemporaryDirectory() as scratch:
        store_path = os.path.join(scratch, "catalog.sqlite3")

        # -- phase 1: a 2-process cluster absorbs the first half --------------
        cluster = MultiProcessEngine(
            num_nodes=2, num_shards=8, store_path=store_path, **pipeline_kwargs
        )
        reader = CatalogReader(store_path)
        print(f"phase 1: cluster {cluster.node_ids()} over {store_path}")
        ingest_one_commit(cluster, reader, batches[0])

        # -- phase 2: hard-kill one node mid-ingest ---------------------------
        victim = cluster.node_ids()[1]
        cluster.inject_crash(victim, operation="append_offers", countdown=2)
        print(f"phase 2: armed a hard os._exit inside {victim}; ingesting ...")
        report = ingest_one_commit(cluster, reader, batches[1])
        print(
            f"  crash absorbed: {victim} fenced, survivors={cluster.node_ids()}, "
            f"batch replayed ({report.offers_new} offers absorbed)"
        )

        # -- phase 3: the coordinator's barrier write fails once -------------
        def fail_once(operation: str) -> None:
            if operation == "journal":  # every row is in the transaction
                cluster.store.set_fault_hook(None)
                raise RuntimeError("disk trouble, once")

        cluster.store.set_fault_hook(fail_once)
        head = reader.commit_count()
        try:
            cluster.ingest(batches[2])
        except RuntimeError as exc:
            print(f"phase 3: the barrier write failed ({exc}); the file kept commit {head}")
        else:
            raise AssertionError("the armed barrier write did not fail")
        assert reader.commit_count() == head, "a failed barrier write landed something"
        report = ingest_one_commit(cluster, reader, batches[2])
        print(f"  the retry landed the batch whole ({report.offers_new} offers absorbed)")

        # -- phase 4: stop the whole cluster mid-stream -----------------------
        ingested = cluster.snapshot().offers_ingested
        cluster.close()
        print(f"phase 4: cluster shut down after {ingested} offers\n")

        # -- phase 5: a fresh cluster resumes over the same WAL file ----------
        resumed = MultiProcessEngine(
            num_nodes=2, num_shards=8, store_path=store_path, **pipeline_kwargs
        )
        print(f"phase 5: new cluster {resumed.node_ids()} resumes from the store")
        # Replaying from the start is safe: committed offers deduplicate.
        duplicates = 0
        for batch in batches:
            replay = ingest_one_commit(resumed, reader, batch)
            duplicates += replay.offers_duplicate
        print(
            f"  replayed the whole stream: {duplicates} offers deduplicated, "
            "one commit per batch that absorbed offers"
        )
        reader.close()

        # -- phase 6: byte-identity check -------------------------------------
        final = sorted(product_fingerprint(resumed.products()))
        total = resumed.snapshot().offers_ingested
        resumed.close()

    assert final == reference, "resumed catalog diverged from the reference!"
    print(
        f"\nphase 6: OK — {total} offers, {len(final)} products, "
        "byte-identical to the uninterrupted single-engine run"
    )


if __name__ == "__main__":
    main()
