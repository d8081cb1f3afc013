"""Property-based proof: fleet queries under real concurrency stay exact.

ISSUE 8 satellite.  For random streams and micro-batch splits, queries
are fired from multiple threads against a replicated
:class:`~repro.serving.fleet.ServingFleet` *while* the engine ingests
and the fleet refreshes — and every single response must byte-equal the
reference index built from the products of the exact committed prefix
the response reports being pinned to.  Replicas may trail the head (the
divergence bound is drawn per example) and one replica is restarted in
the middle of the run; neither may ever produce a result list that
mixes two prefixes.

Replicas read the SQLite store file through read-only connections that
race the live writer on the WAL file, and catch up from the store's
commit journal.
"""

import itertools
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import SynthesisEngine
from repro.serving import CatalogIndex, ServingFleet
from repro.text.tokenize import tokenize_title

#: Unique sqlite filenames across hypothesis examples (which all share
#: one tmp directory because fixtures are resolved once per test).
_STORE_COUNTER = itertools.count(1)

TOP_K = 5
QUERY_THREADS = 3


def split_batches(stream, cut_points):
    cuts = [0] + sorted(cut_points) + [len(stream)]
    return [stream[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


def engine_kwargs(harness):
    return dict(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
    )


def probe_queries(stream):
    """Deterministic queries drawn from the stream's own titles."""
    queries = []
    for offer in stream[:6]:
        tokens = tokenize_title(offer.title)
        if tokens:
            queries.append(" ".join(tokens[:2]))
    return queries or ["hard drive"]


def result_fingerprint(results):
    return tuple((result.product.product_id, result.score) for result in results)


@st.composite
def stream_and_cuts(draw, max_offers):
    """A random stream (indices, duplicates allowed) plus batch cuts."""
    indices = draw(st.lists(st.integers(0, max_offers - 1), min_size=4, max_size=20))
    cut_points = draw(st.lists(st.integers(1, len(indices) - 1), max_size=3, unique=True))
    return indices, cut_points


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_concurrent_fleet_queries_equal_their_pinned_prefix(
    tiny_harness, tmp_path_factory, data
):
    offers = tiny_harness.unmatched_offers
    indices, cut_points = data.draw(stream_and_cuts(len(offers)))
    stream = [offers[index] for index in indices]
    batches = split_batches(stream, cut_points)
    max_lag = data.draw(st.integers(0, 2))
    restart_before = data.draw(st.integers(0, max(0, len(batches) - 1)))
    queries = probe_queries(stream)

    store_dir = tmp_path_factory.mktemp("fleet")
    store_path = str(store_dir / f"fleet-{next(_STORE_COUNTER)}.sqlite3")
    engine = SynthesisEngine(
        store="sqlite", store_path=store_path, **engine_kwargs(tiny_harness)
    )
    # With a head watcher, resyncs race the queries and the restart
    # from a third thread instead of running between the waves.
    fleet = ServingFleet.from_store_path(
        store_path,
        num_replicas=2,
        max_lag_commits=max_lag,
        watch_head=data.draw(st.booleans()),
    )

    #: commit_count -> products of that exact committed prefix.
    prefix_products = {engine.store.commit_count: list(engine.products())}
    #: Every concurrent observation: (query, snapshot, fingerprint).
    observations = []
    observations_lock = threading.Lock()
    failures = []

    def query_loop():
        try:
            local = []
            for _ in range(2):
                for query in queries:
                    response = fleet.search(query, top_k=TOP_K)
                    local.append(
                        (
                            query,
                            response.snapshot_commit_count,
                            result_fingerprint(response.results),
                        )
                    )
            with observations_lock:
                observations.extend(local)
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    try:
        for position, batch in enumerate(batches):
            threads = [
                threading.Thread(target=query_loop, daemon=True)
                for _ in range(QUERY_THREADS)
            ]
            for thread in threads:
                thread.start()
            # The satellite's restart case: swap one replica for a fresh
            # service while queries are in flight against the old one.
            if position == restart_before:
                fleet.restart_replica(position % 2)
            engine.ingest(batch)
            prefix_products[engine.store.commit_count] = list(engine.products())
            fleet.refresh_once()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        # One last wave with the writer quiet.
        query_loop()
    finally:
        fleet.close()
        engine.close()

    assert not failures, failures[0]
    reference_cache = {}
    for query, snapshot, fingerprint in observations:
        # The pinned prefix must be a real commit barrier...
        assert snapshot in prefix_products
        if snapshot not in reference_cache:
            reference_cache[snapshot] = CatalogIndex(prefix_products[snapshot])
        # ...and the full ranked answer must byte-equal that prefix's.
        expected = result_fingerprint(
            reference_cache[snapshot].search(query, top_k=TOP_K)
        )
        assert fingerprint == expected
