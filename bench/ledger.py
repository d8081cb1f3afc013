"""The per-layer ledger of a traced run: one write-path and one read-path probe.

Every traced run, whatever its workload, takes the same two probes over
its own seeded inputs, so every layer's cost is known on every workload's
catalog:

* **write path** — the stream through one serial engine over SQLite with
  the tracer's wrappers recording, while a benchmark-owned reader-driven
  service follows each commit (``read_delta`` then ``resync``);
* **read path** — one seeded query sample replayed single-threaded at
  each nesting level (index, service, fleet, HTTP), a level's own cost
  being its median minus the median of the level inside it.

The workload's own traced measurement (request or batch spans, tail
latencies, tracing overhead) is taken separately, by the workload.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence, Tuple

from bench.inputs import TOP_K, Inputs, Request, query_pool, request_plan
from bench.ingest import PassResult, remove_store, serial_pass
from bench.serving import HttpClient, ServerChild
from bench.stats import median
from bench.tracing import Tracer
from repro.model.products import Product
from repro.serving.fleet import ServingFleet
from repro.serving.index import CatalogIndex
from repro.serving.reader import CatalogReader
from repro.serving.service import CatalogSearchService
from repro.synthesis.pipeline import ProductSynthesisPipeline
from repro.text.memo import clear_text_caches

__all__ = ["REPLAY_QUERIES", "POOL_SIZE", "write_path_ledger", "read_path_ledger"]

#: Queries replayed at each nesting level of the read-path probe.
REPLAY_QUERIES = 400
#: Size of the Zipf query pool (shared with ``serve_read``).
POOL_SIZE = 2000


def _median_us(tracer: Tracer, name: str, since: int) -> float:
    return median(tracer.durations(name, since)) * 1e6


def write_path_ledger(
    inputs: Inputs, out_dir: str, tracer: Tracer
) -> Tuple[Dict[str, float], str, PassResult]:
    """Probe the write path; returns metrics, the store path and the pass."""
    path = os.path.join(out_dir, "ledger.sqlite3")
    followers: List[object] = []
    since_commit = [0]

    def follow(position: int) -> None:
        """After a commit: catch a reader and a reader-driven service up."""
        if not followers:
            # The store file exists only once the first batch committed;
            # opening the service primes it with its one full rebuild.
            followers.extend([CatalogReader(path), CatalogSearchService.from_store_path(path)])
            since_commit[0] = followers[0].commit_count()
            return
        reader, service = followers
        with tracer.span("reader.read_delta", op=position):
            since_commit[0], _ = reader.read_delta(since_commit[0])
        with tracer.span("service.resync", op=position):
            service.resync()

    mark = tracer.mark()
    clear_text_caches()
    result = serial_pass(
        inputs, inputs.stream.batches, path, tracer, after_each=follow, keep_store=True
    )
    reader, service = followers
    resyncs = service.resync_stats()
    cache = service.stats()["reader"]
    reader.close()
    service.close()

    clear_text_caches()
    pipeline = ProductSynthesisPipeline(**inputs.engine_kwargs())
    started = time.perf_counter()
    with tracer.span("pipeline.single_pass"):
        pipeline.synthesize(inputs.stream.fresh)
    single_pass_s = time.perf_counter() - started

    spans = tracer.summary(mark)

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    lookups = cache["page_cache_hits"] + cache["page_cache_misses"]
    metrics = {
        "store.build_s": result.wall_s,
        "engine.ingest_s": total("engine.ingest"),
        "engine.self_s": spans["engine.ingest"]["self_s"],
        "engine.products_s": total("engine.products"),
        "engine.offers_new": float(result.offers_new),
        "engine.offers_duplicate": float(result.offers_duplicate),
        "engine.clusters_touched": float(result.clusters_touched),
        "engine.products_refreshed": float(result.products_refreshed),
        "engine.refused_per_new_offer": result.extra["refused_offers"] / result.offers_new,
        "synthesis.classify_s": total("synthesis.classify"),
        "synthesis.cluster_key_s": total("synthesis.cluster_key"),
        "synthesis.fuse_select_s": total("synthesis.fuse_select"),
        "synthesis.fuse_select_calls": float(spans["synthesis.fuse_select"]["count"]),
        "store.commit_s": total("store.commit"),
        "store.append_offers_s": total("store.append_offers"),
        "store.set_product_s": total("store.set_product"),
        "store.disk_bytes_per_offer": result.extra["disk_bytes"] / result.offers_new,
        "pipeline.single_pass_s": single_pass_s,
        "engine.stream_vs_oneshot_ratio": result.wall_s / single_pass_s,
        "reader.read_delta_ms": _median_us(tracer, "reader.read_delta", mark) / 1000.0,
        "service.resync_ms": _median_us(tracer, "service.resync", mark) / 1000.0,
        "service.delta_resyncs": float(resyncs["delta_resyncs"]),
        "service.full_resyncs": float(resyncs["full_resyncs"]),
        "reader.page_cache_hit_ratio": cache["page_cache_hits"] / lookups if lookups else 0.0,
    }
    return metrics, path, result


def _searches(plan: Sequence[Request]) -> List[Request]:
    return [request for request in plan if request.kind != "product"]


def read_path_ledger(
    store_path: str, products: Sequence[Product], seed: int, out_dir: str, tracer: Tracer
) -> Dict[str, float]:
    """Probe the read path over the store the write-path probe left behind."""
    pool = query_pool(products, size=POOL_SIZE)
    plan = _searches(request_plan(pool, products, REPLAY_QUERIES, seed, "replay", zipf=True))
    mark = tracer.mark()

    started = time.perf_counter()
    with tracer.span("service.prime"):
        service = CatalogSearchService.from_store_path(store_path)
    prime_ms = (time.perf_counter() - started) * 1000.0
    index = CatalogIndex(products)
    fleet = ServingFleet.from_store_path(store_path, num_replicas=2, max_lag_commits=2)
    server = ServerChild(store_path, os.path.join(out_dir, "server-ledger.log"))
    server.start()
    client = HttpClient(server.port, tracer)
    sizes: List[int] = []
    try:
        for position, request in enumerate(plan):
            arguments = {"top_k": TOP_K, "category": request.category}
            with tracer.span("index.search", op=position):
                index.search(request.query, **arguments)
            with tracer.span("service.search", op=position):
                service.search_pinned(request.query, **arguments)
            with tracer.span("fleet.search", op=position):
                fleet.search(request.query, **arguments)
            with tracer.span("http.roundtrip", op=position):
                status, body = client.get(request.path)
            if status != 200:
                raise RuntimeError(f"ledger replay: {request.path} answered {status}")
            sizes.append(len(body))
    finally:
        client.close()
        server.stop()
        fleet.close()
        service.close()
        remove_store(store_path)

    index_us = _median_us(tracer, "index.search", mark)
    service_us = _median_us(tracer, "service.search", mark)
    fleet_us = _median_us(tracer, "fleet.search", mark)
    roundtrip_us = _median_us(tracer, "http.roundtrip", mark)
    stats = index.stats()
    return {
        "service.prime_ms": prime_ms,
        "index.search_us": index_us,
        "index.num_products": float(stats["num_products"]),
        "index.vocabulary_size": float(stats["vocabulary_size"]),
        "service.search_us": service_us,
        "service.overhead_us": service_us - index_us,
        "fleet.search_us": fleet_us,
        "fleet.route_us": fleet_us - service_us,
        "http.roundtrip_us": roundtrip_us,
        "http.front_us": roundtrip_us - service_us,
        "http.connects_per_request": client.connects / len(plan),
        "http.response_bytes_p50": median(sizes),
    }
