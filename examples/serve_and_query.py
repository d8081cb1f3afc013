"""Drill: ingest a stream, serve it over HTTP, query it while ingesting.

Demonstrates the ISSUE 5 serving subsystem end to end on the tiny
corpus:

1. a ``SynthesisEngine`` ingests merchant-feed batches into a durable
   SQLite store;
2. a feed-driven ``CatalogSearchService`` keeps an inverted index
   current from the engine's per-commit changed-product feed;
3. a *second*, reader-driven service opens the same WAL file read-only
   (the cross-process serving deployment) and answers identically;
4. the stdlib HTTP server exposes ``/search``, ``/product/<id>`` and
   ``/stats`` on an ephemeral port, queried here with ``urllib``.

Run it from the repository root::

    PYTHONPATH=src python examples/serve_and_query.py
"""

import json
import os
import tempfile
import threading
import urllib.parse
import urllib.request

from repro.corpus.config import CorpusPreset
from repro.experiments.harness import ExperimentHarness
from repro.runtime import SynthesisEngine
from repro.serving import CatalogHTTPServer, CatalogSearchService


def main() -> None:
    harness = ExperimentHarness(CorpusPreset.TINY.config())
    offers = harness.unmatched_offers
    store_path = os.path.join(tempfile.mkdtemp(prefix="serving-"), "catalog.sqlite3")

    engine = SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
        store="sqlite",
        store_path=store_path,
    )
    service = CatalogSearchService.from_engine(engine)

    # Ingest the stream in batches; the index follows the commit feed.
    batch_size = max(1, len(offers) // 4)
    for start in range(0, len(offers), batch_size):
        engine.ingest(offers[start : start + batch_size])
        print(
            f"ingested batch -> snapshot {service.snapshot_commit_count}, "
            f"{service.num_products} products indexed"
        )

    # A second service over the same file, read-only — what a separate
    # serving process would run.  It must answer identically.
    reader_service = CatalogSearchService.from_store_path(store_path)
    probe = engine.products()[0].title
    feed_ids = [r.product.product_id for r in service.search(probe, top_k=3)]
    reader_ids = [r.product.product_id for r in reader_service.search(probe, top_k=3)]
    assert feed_ids == reader_ids, "feed- and reader-driven services diverged"
    print(f"feed and reader services agree on {probe!r} -> {feed_ids}")

    # Serve the feed-driven service over HTTP on an ephemeral port.
    server = CatalogHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"serving on {base}")

    query = urllib.parse.quote(probe)
    with urllib.request.urlopen(f"{base}/search?q={query}&k=3") as response:
        payload = json.loads(response.read())
    print(
        f"GET /search?q={probe!r} -> {payload['num_results']} hits "
        f"(snapshot {payload['snapshot_commit_count']})"
    )
    top = payload["results"][0]
    with urllib.request.urlopen(f"{base}/product/{top['product_id']}") as response:
        product = json.loads(response.read())
    print(f"GET /product/{top['product_id']} -> {product['title']!r}")
    with urllib.request.urlopen(f"{base}/stats") as response:
        stats = json.loads(response.read())
    replica = stats["replicas"][0]["stats"]
    print(
        f"GET /stats -> {stats['num_replicas']} replica, "
        f"{replica['index']['num_products']} products, "
        f"{stats['queries_served']} queries served, mode={replica['mode']}"
    )

    server.shutdown()
    server.server_close()
    reader_service.close()
    service.close()
    engine.close()
    print("serve-and-query drill complete")


if __name__ == "__main__":
    main()
