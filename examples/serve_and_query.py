"""Drill: ingest a stream, serve it over HTTP, query it while ingesting.

Demonstrates the serving subsystem end to end on the tiny corpus:

1. a ``SynthesisEngine`` ingests merchant-feed batches into a durable
   SQLite store;
2. a ``CatalogSearchService`` opens the same WAL file read-only (what a
   separate serving process runs) and keeps its inverted index current
   from the store's commit journal, one delta per query that finds the
   head moved;
3. its answers equal an index built from the engine's own products;
4. a ``ServingFleet`` of one replica over the same file is served by the
   stdlib HTTP server, which exposes ``/search``, ``/product/<id>`` and
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
from repro.serving import CatalogHTTPServer, CatalogIndex, CatalogSearchService, ServingFleet


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
    batch_size = max(1, len(offers) // 4)
    batches = [offers[start : start + batch_size] for start in range(0, len(offers), batch_size)]
    engine.ingest(batches[0])
    # The read side opens the store file read-only and primes its index
    # with one full read; every later commit reaches it as a journal delta.
    service = CatalogSearchService.from_store_path(store_path)
    probe = engine.products()[0].title
    for batch in batches[1:]:
        engine.ingest(batch)
        service.search(probe, top_k=3)  # finds the head moved and catches up
        print(
            f"ingested batch -> snapshot {service.snapshot_commit_count}, "
            f"{service.num_products} products indexed"
        )

    # The maintained index answers exactly like one built from scratch.
    served_ids = [r.product.product_id for r in service.search(probe, top_k=3)]
    rebuilt = CatalogIndex(engine.products())
    rebuilt_ids = [r.product.product_id for r in rebuilt.search(probe, top_k=3)]
    assert served_ids == rebuilt_ids, "journal-maintained index diverged from a rebuild"
    print(f"served and rebuilt indexes agree on {probe!r} -> {served_ids}")
    service.close()

    # Serve the store over HTTP on an ephemeral port: the front serves a
    # fleet, here of one replica (what `runtime-serve --replicas 1` runs).
    fleet = ServingFleet.from_store_path(store_path, num_replicas=1)
    server = CatalogHTTPServer(("127.0.0.1", 0), fleet)
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
    resync = replica["resync"]
    print(
        f"GET /stats -> {stats['num_replicas']} replica, "
        f"{replica['index']['num_products']} products, "
        f"{stats['queries_served']} queries served, "
        f"{resync['delta_resyncs']} delta / {resync['full_resyncs']} full resyncs"
    )

    server.shutdown()
    server.server_close()
    fleet.close()
    engine.close()
    print("serve-and-query drill complete")


if __name__ == "__main__":
    main()
