"""The fleet's snapshot-keyed response cache: never stale, never over its bound.

The hypothesis suite drives random ingest streams into a SQLite store
and requests through the HTTP front (a fleet of one and a 3-replica
fleet over the store file), interleaved between commits and racing
them.  Every body must be byte-equal to an **uncached**
render of the committed prefix it reports, a repeated request is
rendered once per snapshot however many replicas answer it, and the
cached bytes never exceed the one bound the whole fleet has.  The
deterministic tests pin the cache key, every way a snapshot can move,
and eviction accounting.
"""

import http.client
import itertools
import json
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import put, write_store
from repro.model.attributes import Specification
from repro.model.persistence import product_to_dict
from repro.model.products import Product
from repro.obs import MetricsRegistry, set_registry
from repro.runtime import SynthesisEngine
from repro.runtime.store.sqlite import SqliteCatalogStore
from repro.serving import CatalogHTTPServer, CatalogIndex, ServingFleet
from repro.serving import fleet as fleet_module
from repro.text.tokenize import tokenize_title

_STORE_COUNTER = itertools.count(1)
TOP_K = 5


def engine_kwargs(harness):
    return dict(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
    )


def rendered(payload, replica):
    """The wire form: the answering replica, then the payload's sorted keys."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return b'{"replica": %d, ' % replica + body[1:]


def uncached_search_body(products, snapshot, query, top_k, replica, category=None, attributes=None):
    """What a front without a cache serves for this snapshot."""
    results = CatalogIndex(products).search(
        query, top_k=top_k, category=category, attributes=attributes
    )
    payload = {
        "query": query,
        "top_k": top_k,
        "snapshot_commit_count": snapshot,
        "num_results": len(results),
        "results": [result.to_dict() for result in results],
    }
    return rendered(payload, replica)


def uncached_product_body(products, snapshot, product_id, replica):
    product = CatalogIndex(products).get_product(product_id)
    if product is None:
        return None
    payload = product_to_dict(product)
    payload["snapshot_commit_count"] = snapshot
    return rendered(payload, replica)


def without_replica(body):
    """A body with the value of its ``replica`` field blanked."""
    blanked, count = re.subn(rb'^\{"replica": \d+, ', b'{"replica": _, ', body)
    assert count == 1, body[:40]
    return blanked


class Served:
    """An HTTP front over ``fleet`` and one keep-alive client connection."""

    def __init__(self, fleet):
        self.fleet = fleet
        self.server = CatalogHTTPServer(("127.0.0.1", 0), fleet, max_workers=2)
        self.port = self.server.server_address[1]
        threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        ).start()
        self.connection = self.connect()

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)

    def get(self, path, connection=None):
        connection = connection or self.connection
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()

    def close(self):
        self.connection.close()
        self.server.shutdown()
        self.server.server_close()
        self.fleet.close()


def search_path(query):
    return f"/search?q={query.replace(' ', '+')}&k={TOP_K}"


def split_batches(stream, cut_points):
    cuts = [0] + sorted(cut_points) + [len(stream)]
    return [stream[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


@st.composite
def stream_and_cuts(draw, max_offers):
    indices = draw(st.lists(st.integers(0, max_offers - 1), min_size=4, max_size=16))
    cut_points = draw(st.lists(st.integers(1, len(indices) - 1), max_size=3, unique=True))
    return indices, cut_points


@pytest.mark.parametrize("num_replicas", [1, 3])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_bodies_through_http_equal_an_uncached_render_of_their_snapshot(
    tiny_harness, tmp_path_factory, num_replicas, data
):
    offers = tiny_harness.unmatched_offers
    indices, cut_points = data.draw(stream_and_cuts(len(offers)))
    stream = [offers[index] for index in indices]
    batches = split_batches(stream, cut_points)
    # A fleet of one reads its last commit on every request; lag bound 1
    # lets replicas sit on different snapshots.
    max_lag_commits = 0 if num_replicas == 1 else 1
    # A bound small enough that these few queries overflow it, so the
    # property also covers bodies that were evicted and rendered again.
    default_bound = fleet_module.RESPONSE_CACHE_MAX_BYTES
    bound = data.draw(st.sampled_from([700, 4096, default_bound]))
    fleet_module.RESPONSE_CACHE_MAX_BYTES = bound

    queries = [
        " ".join(tokens[:2]) for tokens in (tokenize_title(o.title) for o in stream[:4]) if tokens
    ] or ["hard drive"]
    store_dir = tmp_path_factory.mktemp("cache")
    store_path = str(store_dir / f"cache-{next(_STORE_COUNTER)}.sqlite3")
    engine = SynthesisEngine(store="sqlite", store_path=store_path, **engine_kwargs(tiny_harness))
    fleet = ServingFleet.from_store_path(
        store_path, num_replicas=num_replicas, max_lag_commits=max_lag_commits
    )
    served = Served(fleet)
    prefix_products = {engine.store.commit_count: list(engine.products())}
    #: (path, query-or-product-id, body) of every response, racing or not.
    observed = []
    failures = []

    def paths():
        known = [p.product_id for p in prefix_products[max(prefix_products)]][:2]
        for query in queries:
            yield search_path(query), ("search", query)
        for product_id in known + ["no-such-product"]:
            yield f"/product/{product_id}", ("product", product_id)

    def wave(connection=None):
        for path, request in list(paths()):
            status, body = served.get(path, connection)
            assert status in (200, 404), (path, status, body)
            observed.append((request, status, body))

    def racing_wave():
        connection = served.connect()
        try:
            wave(connection)
            wave(connection)
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)
        finally:
            connection.close()

    def six_times(query):
        """Send one request nobody sent before six times; returns the snapshots
        and replicas that answered.  Whichever replicas those were, it is
        rendered once per snapshot and the whole fleet stays within the bound."""
        before = fleet.response_cache_stats()
        bodies = [served.get(search_path(query))[1] for _ in range(6)]
        after = fleet.response_cache_stats()
        parsed = [json.loads(body) for body in bodies]
        snapshots = {payload["snapshot_commit_count"] for payload in parsed}
        misses, hits = after["misses"] - before["misses"], after["hits"] - before["hits"]
        assert misses + hits == 6
        # Byte-identical apart from the replica value, per snapshot.
        distinct = {without_replica(body) for body in bodies}
        assert len(distinct) == len(snapshots)
        # These are the most recently used entries, so they only evict one
        # another when they do not fit the bound together (keys: < 200 bytes).
        if sum(len(body) + 200 for body in distinct) <= bound:
            assert (misses, hits) == (len(snapshots), 6 - len(snapshots))
        else:
            assert misses >= len(snapshots)
        assert after["bytes"] <= bound == after["max_bytes"]
        observed.extend((("search", query), 200, body) for body in bodies)
        return snapshots, {payload["replica"] for payload in parsed}

    try:
        for position, batch in enumerate(batches):
            wave()  # fills the cache at the current snapshots
            racer = threading.Thread(target=racing_wave, daemon=True)
            racer.start()
            previous = engine.store.commit_count
            engine.ingest(batch)
            prefix_products[engine.store.commit_count] = list(engine.products())
            racer.join(timeout=60)
            assert not racer.is_alive()
            head = engine.store.commit_count
            # One refresh moves at most one replica: a lag-bounded fleet
            # now answers from two snapshots at once, and each of them
            # renders the request once.
            fleet.refresh_once()
            snapshots, _ = six_times(f"{queries[0]} split {position}")
            if num_replicas > 1 and head > previous:
                assert snapshots == {previous, head}
            else:
                assert snapshots == {head}
            while fleet.refresh_once() is not None:
                pass
            # The writer is quiet and every replica has caught up.  No
            # hit outlives the move: everything cached before (and
            # during) the commit is answered from the head now.
            settled = len(observed)
            wave()
            for _, status, body in observed[settled:]:
                assert status == 404 or json.loads(body)["snapshot_commit_count"] == head
            # One snapshot, every replica taking its turn: 1 miss + 5 hits.
            snapshots, replicas = six_times(f"{queries[0]} {position}")
            assert snapshots == {head}
            assert replicas == set(range(num_replicas))
        wave()
    finally:
        served.close()
        engine.close()
        fleet_module.RESPONSE_CACHE_MAX_BYTES = default_bound

    assert not failures, failures[0]
    for (kind, subject), status, body in observed:
        if status == 404:
            assert kind == "product"
            continue
        parsed = json.loads(body)
        snapshot, replica = parsed["snapshot_commit_count"], parsed["replica"]
        assert replica in range(num_replicas)
        assert snapshot in prefix_products
        products = prefix_products[snapshot]
        if kind == "search":
            assert body == uncached_search_body(products, snapshot, subject, TOP_K, replica)
        else:
            assert body == uncached_product_body(products, snapshot, subject, replica)


def test_cache_accounting_survives_more_threads_than_cores(tiny_harness, tmp_path):
    """Eight keep-alive clients on a 3-worker front, a 10 us switch
    interval and a committing engine: no request is lost or double
    counted, no body is stale, and the byte total matches the bodies."""
    offers = tiny_harness.unmatched_offers
    path = str(tmp_path / "threads.sqlite3")
    engine = SynthesisEngine(store="sqlite", store_path=path, **engine_kwargs(tiny_harness))
    engine.ingest(offers[:10])
    fleet = ServingFleet.from_store_path(path, num_replicas=2)
    served = Served(fleet)
    prefix_products = {engine.store.commit_count: list(engine.products())}
    queries = [" ".join(tokenize_title(offer.title)[:2]) for offer in offers[:5]]
    clients, rounds = 8, 30
    bodies = [[] for _ in range(clients)]
    failures = []

    def client(number):
        connection = served.connect()
        try:
            for turn in range(rounds):
                query = queries[(number + turn) % len(queries)]
                status, body = served.get(search_path(query), connection)
                assert status == 200
                bodies[number].append((query, body))
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)
        finally:
            connection.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(n,), daemon=True) for n in range(clients)]
        for thread in threads:
            thread.start()
        for start in range(10, 40, 10):
            engine.ingest(offers[start : start + 10])
            prefix_products[engine.store.commit_count] = list(engine.products())
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        stats = fleet.response_cache_stats()
        cached = sum(itertools.starmap(fleet_module._entry_bytes, fleet._bodies.items()))
    finally:
        sys.setswitchinterval(interval)
        served.close()
        engine.close()

    assert not failures, failures[0]
    assert stats["hits"] + stats["misses"] == clients * rounds
    assert stats["bytes"] == cached <= stats["max_bytes"]
    assert stats["hits"] > 0
    for query, body in itertools.chain.from_iterable(bodies):
        parsed = json.loads(body)
        snapshot, replica = parsed["snapshot_commit_count"], parsed["replica"]
        assert body == uncached_search_body(
            prefix_products[snapshot], snapshot, query, TOP_K, replica
        )


def make_product(pid, title, pairs=()):
    return Product(
        product_id=pid,
        category_id="computing.hdd",
        title=title,
        specification=Specification(list(pairs)),
    )


PRODUCTS = [
    make_product(
        "p-1", "Seagate Barracuda 500GB hard drive", [("Brand", "Seagate"), ("Size", "500GB")]
    ),
    make_product("p-2", "WD Raptor 150GB hard drive", [("Brand", "WD")]),
]


#: The snapshot a store file holding ``PRODUCTS`` serves: its one commit.
SNAPSHOT = 1


def one_replica_fleet(directory):
    """A fleet of one over a new store file in ``directory`` holding ``PRODUCTS``."""
    path = write_store(directory / "products.sqlite3", PRODUCTS)
    return ServingFleet.from_store_path(path, num_replicas=1)


class TestCacheKey:
    @pytest.fixture
    def fleet(self, tmp_path):
        with one_replica_fleet(tmp_path) as fleet:
            yield fleet

    def test_second_identical_request_is_a_hit_with_the_same_bytes(self, fleet):
        first = fleet.search_body("hard drive", top_k=3)
        assert fleet.search_body("hard drive", top_k=3) == first
        stats = fleet.response_cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        # Charged: the body without its replica field, plus the key.
        key = (SNAPSHOT, "search", "hard drive", 3, None, ())
        assert stats["bytes"] == len(first) - len(b'{"replica": 0, ') + len(repr(key))
        assert first == uncached_search_body(PRODUCTS, SNAPSHOT, "hard drive", 3, 0)

    def test_attribute_order_does_not_split_the_entry(self, fleet):
        first = fleet.search_body("drive", attributes={"Brand": "Seagate", "Size": "500GB"})
        again = fleet.search_body("drive", attributes={"Size": "500GB", "Brand": "Seagate"})
        assert again == first
        assert fleet.response_cache_stats()["entries"] == 1
        assert [hit["product_id"] for hit in json.loads(first)["results"]] == ["p-1"]

    def test_everything_that_can_change_the_body_is_in_the_key(self, fleet):
        requests = [
            dict(query="hard drive"),
            dict(query="hard  drive"),  # echoed verbatim in the body
            dict(query="hard drive", top_k=1),
            dict(query="hard drive", category="computing.hdd"),
            dict(query="hard drive", category="cameras"),
            dict(query="hard drive", attributes={"Brand": "WD"}),
        ]
        for request in requests:
            expected = dict(request, top_k=request.get("top_k", 10), snapshot=SNAPSHOT, replica=0)
            assert fleet.search_body(**request) == uncached_search_body(PRODUCTS, **expected)
        stats = fleet.response_cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 6, 6)

    def test_url_encodings_of_one_query_share_an_entry(self, fleet):
        server = CatalogHTTPServer(("127.0.0.1", 0), fleet)
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        ).start()
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
        try:
            bodies = []
            for query in ("q=hard+drive&k=10", "k=10&q=hard%20drive", "q=hard+drive"):
                connection.request("GET", f"/search?{query}")
                bodies.append(connection.getresponse().read())
            assert len(set(bodies)) == 1
            stats = fleet.response_cache_stats()
            assert (stats["hits"], stats["misses"]) == (2, 1)
        finally:
            connection.close()
            server.shutdown()
            server.server_close()

    def test_unknown_product_is_not_cached(self, fleet):
        assert fleet.product_body("p-404") is None
        assert fleet.product_body("p-404") is None
        stats = fleet.response_cache_stats()
        assert (stats["entries"], stats["bytes"], stats["misses"]) == (0, 0, 2)
        body = fleet.product_body("p-1")
        assert body == uncached_product_body(PRODUCTS, SNAPSHOT, "p-1", 0)
        assert fleet.product_body("p-1") == body
        assert fleet.response_cache_stats()["hits"] == 1


class TestSnapshotMoves:
    """An entry belongs to its snapshot: once the replica moves, the old
    entry is never served again (it ages out), whatever moved the replica."""

    def test_writer_commit_is_answered_from_the_new_snapshot(self, tiny_harness, tmp_path):
        path = str(tmp_path / "writer.sqlite3")
        engine = SynthesisEngine(store="sqlite", store_path=path, **engine_kwargs(tiny_harness))
        fleet = ServingFleet.from_store_path(path, num_replicas=1)
        try:
            offers = tiny_harness.unmatched_offers
            engine.ingest(offers[:10])
            stale = fleet.search_body("hard drive")
            assert fleet.response_cache_stats()["entries"] == 1
            engine.ingest(offers[10:20])
            fresh = fleet.search_body("hard drive")
            stats = fleet.response_cache_stats()
            assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 2, 2)
            assert json.loads(fresh)["snapshot_commit_count"] == engine.store.commit_count
            assert json.loads(stale)["snapshot_commit_count"] < engine.store.commit_count
            assert fresh == uncached_search_body(
                engine.products(), engine.store.commit_count, "hard drive", 10, 0
            )
        finally:
            fleet.close()
            engine.close()

    def test_delta_and_full_resync_both_leave_the_old_entry_behind(self, tmp_path):
        path = str(tmp_path / "resync.sqlite3")
        store = SqliteCatalogStore(path)
        put(store, "a", "alpha seed product")
        store.commit()
        fleet = ServingFleet.from_store_path(path, num_replicas=1)
        try:
            assert json.loads(fleet.search_body("product"))["num_results"] == 1
            put(store, "b", "beta second product")
            store.commit()
            body = fleet.search_body("product")  # journal-delta resync on the way
            assert fleet.lag()["replicas"][0]["resync"]["delta_resyncs"] == 1
            assert json.loads(body)["num_results"] == 2
            put(store, "c", "gamma third product")
            store.commit()
            store.compact_journal()
            body = fleet.search_body("product")  # full rebuild on the way
            assert fleet.lag()["replicas"][0]["resync"]["full_resyncs"] == 2
            assert json.loads(body)["num_results"] == 3
            stats = fleet.response_cache_stats()
            assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 3, 3)
            assert fleet.search_body("product") == body
            assert fleet.response_cache_stats()["hits"] == 1
        finally:
            fleet.close()
            store.close()


class TestBound:
    def test_bytes_never_exceed_the_bound_and_evictions_are_counted(self, tmp_path, monkeypatch):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            fleet = one_replica_fleet(tmp_path)
        finally:
            set_registry(previous)
        with fleet:
            fleet.search_body("drive 0")
            one = fleet.response_cache_stats()["bytes"]
            bound = 3 * one + one // 2
            monkeypatch.setattr(fleet_module, "RESPONSE_CACHE_MAX_BYTES", bound)
            for number in range(1, 20):
                fleet.search_body(f"drive {number}")
                stats = fleet.response_cache_stats()
                assert stats["bytes"] <= bound
                assert stats["bytes"] == sum(
                    itertools.starmap(fleet_module._entry_bytes, fleet._bodies.items())
                )
                gauges = registry.snapshot()["gauges"]
                assert gauges["serving_response_cache_bytes"] == stats["bytes"]
            assert stats["entries"] == 3
            assert stats["evictions"] == 20 - 3
            # Least recently *used* goes first: touch the oldest survivor,
            # add one, and the untouched middle one is the victim.
            fleet.search_body("drive 17")
            fleet.search_body("drive 20")
            assert fleet.response_cache_stats()["hits"] == 1
            assert [key[2] for key in fleet._bodies] == ["drive 19", "drive 17", "drive 20"]

    def test_long_unique_filters_are_charged_for_their_keys(self, tmp_path):
        """A zero-hit body is ~85 bytes whatever the filters say; the key
        holds every filter as typed, so the key is what must be bounded."""
        with one_replica_fleet(tmp_path) as fleet:
            key_bytes = 0
            for number in range(64):
                filters = {"Brand": f"{number:04d}" + "x" * 65536}
                body = fleet.search_body("drive", attributes=filters)
                assert json.loads(body)["num_results"] == 0 and len(body) < 200
                key_bytes += 65536
                stats = fleet.response_cache_stats()
                assert stats["bytes"] <= stats["max_bytes"]
                held = sum(len(value) for key in fleet._bodies for _, value in key[5])
                assert held <= stats["bytes"]
            assert key_bytes > stats["max_bytes"] and stats["evictions"] > 0

    def test_cache_counters_reach_stats_and_the_registry(self, tmp_path):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            fleet = one_replica_fleet(tmp_path)
        finally:
            set_registry(previous)
        with fleet:
            fleet.search_body("hard drive")
            fleet.search_body("hard drive")
            assert fleet.stats()["response_cache"]["hits"] == 1
            snapshot = registry.snapshot()
            assert snapshot["counters"]["serving_response_cache_hits_total"] == 1
            assert snapshot["counters"]["serving_response_cache_misses_total"] == 1
            assert "serving_response_cache_evictions_total" in snapshot["families"]
            assert snapshot["gauges"]["serving_response_cache_bytes"] > 0
