"""Tests for the runtime-serve HTTP endpoints (stdlib client + server).

The server binds an ephemeral port with a hand-built catalog behind a
:class:`~repro.serving.service.CatalogSearchService`, so these stay
fast and hermetic: routing, parameter validation, JSON shapes, and the
error paths.
"""

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from exposition_parser import parse, validate_histograms
from repro.model.attributes import Specification
from repro.model.products import Product
from repro.obs import MetricsRegistry
from repro.serving import CatalogHTTPServer, CatalogIndex, CatalogSearchService


def make_product(pid, category, title, pairs=()):
    return Product(
        product_id=pid,
        category_id=category,
        title=title,
        specification=Specification(list(pairs)),
    )


PRODUCTS = [
    make_product(
        "p-1",
        "computing.hdd",
        "Seagate Barracuda 500GB hard drive",
        [("Brand", "Seagate"), ("Capacity", "500GB")],
    ),
    make_product(
        "p-2",
        "computing.hdd",
        "WD Raptor 150GB hard drive",
        [("Brand", "Western Digital")],
    ),
    make_product("p-3", "cameras.digital", "Kodak EasyShare digital camera"),
    make_product("p 0/x", "cameras.digital", "Leica rangefinder body"),
]


@pytest.fixture(scope="module")
def server_url():
    service = CatalogSearchService(CatalogIndex(PRODUCTS))
    server = CatalogHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def get_json(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def get_error(url):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(url)
    return excinfo.value.code, json.loads(excinfo.value.read().decode("utf-8"))


class TestSearchEndpoint:
    def test_ranked_search(self, server_url):
        query = urllib.parse.quote("seagate barracuda")
        status, payload = get_json(f"{server_url}/search?q={query}&k=2")
        assert status == 200
        assert payload["num_results"] >= 1
        assert payload["results"][0]["product_id"] == "p-1"
        assert payload["results"][0]["score"] > 0
        assert payload["top_k"] == 2
        assert "snapshot_commit_count" in payload

    def test_category_and_attribute_filters(self, server_url):
        query = urllib.parse.quote("hard drive")
        attr = urllib.parse.quote("Brand=Seagate")
        status, payload = get_json(f"{server_url}/search?q={query}&attr={attr}")
        assert status == 200
        assert [hit["product_id"] for hit in payload["results"]] == ["p-1"]
        status, payload = get_json(
            f"{server_url}/search?q={urllib.parse.quote('digital')}"
            "&category=cameras.digital"
        )
        assert [hit["product_id"] for hit in payload["results"]] == ["p-3"]

    def test_missing_query_is_400(self, server_url):
        code, payload = get_error(f"{server_url}/search")
        assert code == 400
        assert "q" in payload["error"]

    def test_bad_k_is_400(self, server_url):
        code, payload = get_error(f"{server_url}/search?q=drive&k=banana")
        assert code == 400
        assert "k" in payload["error"]
        code, _ = get_error(f"{server_url}/search?q=drive&k=0")
        assert code == 400
        code, _ = get_error(f"{server_url}/search?q=drive&k=100000")
        assert code == 400

    def test_bad_attr_is_400(self, server_url):
        code, payload = get_error(f"{server_url}/search?q=drive&attr=notapair")
        assert code == 400
        assert "Name=Value" in payload["error"]


class TestProductEndpoint:
    def test_product_lookup(self, server_url):
        status, payload = get_json(f"{server_url}/product/p-2")
        assert status == 200
        assert payload["product_id"] == "p-2"
        assert payload["title"] == "WD Raptor 150GB hard drive"
        assert ["Brand", "Western Digital"] in [
            list(pair) for pair in payload["specification"]
        ]

    def test_product_id_is_percent_decoded_like_a_query(self, server_url):
        """An id /search hands out must be fetchable, whatever it contains."""
        _, found = get_json(f"{server_url}/search?q=leica")
        product_id = found["results"][0]["product_id"]
        assert product_id == "p 0/x"
        path = urllib.parse.quote(product_id, safe="")
        assert path == "p%200%2Fx"
        status, payload = get_json(f"{server_url}/product/{path}")
        assert status == 200
        assert payload["product_id"] == product_id
        code, payload = get_error(f"{server_url}/product/p%200%2Fy")
        assert code == 404
        assert "p 0/y" in payload["error"]

    def test_unknown_product_is_404(self, server_url):
        code, payload = get_error(f"{server_url}/product/p-999")
        assert code == 404
        assert "p-999" in payload["error"]

    def test_empty_product_id_is_400(self, server_url):
        code, _ = get_error(f"{server_url}/product/")
        assert code == 400


class TestStatsAndRouting:
    def test_stats_shape(self, server_url):
        status, payload = get_json(f"{server_url}/stats")
        assert status == 200
        assert (payload["num_replicas"], payload["healthy_replicas"]) == (1, 1)
        assert (payload["max_lag_commits"], payload["watch_head"]) == (0, False)
        assert payload["queries_served"] >= 1
        (replica,) = payload["replicas"]
        assert replica["stats"]["index"]["num_products"] == len(PRODUCTS)
        assert replica["stats"]["count_by_category"] == {
            "cameras.digital": 2,
            "computing.hdd": 2,
        }

    def test_stats_reports_the_response_cache(self, server_url):
        query = urllib.parse.quote("raptor drive")
        get_json(f"{server_url}/search?q={query}")
        get_json(f"{server_url}/search?q={query}")
        _, payload = get_json(f"{server_url}/stats")
        cache = payload["response_cache"]
        assert set(cache) == {"hits", "misses", "evictions", "entries", "bytes", "max_bytes"}
        assert cache["hits"] >= 1 and cache["misses"] >= 1
        assert 0 < cache["bytes"] <= cache["max_bytes"] == 2 * 1024 * 1024

    def test_unknown_route_is_404(self, server_url):
        code, payload = get_error(f"{server_url}/nope")
        assert code == 404
        assert "/nope" in payload["error"]

    def test_concurrent_queries(self, server_url):
        """The threading server answers parallel searches consistently."""
        results = []
        errors = []

        def worker():
            try:
                query = urllib.parse.quote("hard drive")
                _, payload = get_json(f"{server_url}/search?q={query}")
                results.append(tuple(hit["product_id"] for hit in payload["results"]))
            except Exception as error:  # pragma: no cover - diagnostic aid
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(results)) == 1


class TestNestedResyncShape:
    """/stats and /lag report resync counters under "resync" only.

    The flat top-level copies were deprecated aliases for one release
    and are gone.
    """

    RESYNC_KEYS = ("resyncs", "delta_resyncs", "full_resyncs", "journal_truncations")

    def test_stats_nests_resync(self, server_url):
        _, payload = get_json(f"{server_url}/stats")
        assert set(payload["resync"]) == set(self.RESYNC_KEYS)
        assert not set(self.RESYNC_KEYS) & set(payload)

    def test_lag_replicas_nest_resync(self, server_url):
        _, payload = get_json(f"{server_url}/lag")
        assert payload["replicas"]
        for entry in payload["replicas"]:
            assert set(entry["resync"]) == set(self.RESYNC_KEYS)
            assert not set(self.RESYNC_KEYS) & set(entry)


class TestMetricsEndpoints:
    """/metrics (Prometheus text) and /metrics.json on an injected registry."""

    @pytest.fixture()
    def metrics_server(self):
        registry = MetricsRegistry()
        service = CatalogSearchService(CatalogIndex(PRODUCTS))
        server = CatalogHTTPServer(("127.0.0.1", 0), service, registry=registry)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", registry
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_metrics_renders_valid_exposition_text(self, metrics_server):
        base, _ = metrics_server
        # Touch a few endpoints first so latency series exist to scrape.
        get_json(f"{base}/health")
        get_json(f"{base}/stats")
        get_json(f"{base}/search?q={urllib.parse.quote('hard drive')}")
        with urllib.request.urlopen(f"{base}/metrics") as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        parsed = parse(body)
        validate_histograms(parsed)
        assert parsed.types["http_request_seconds"] == "histogram"
        for endpoint in ("/health", "/stats", "/search"):
            assert parsed.value("http_request_seconds_count", endpoint=endpoint) >= 1

    def test_metrics_count_connections(self, metrics_server):
        base, _ = metrics_server
        get_json(f"{base}/health")
        get_json(f"{base}/health")  # urllib: one connection per request
        with urllib.request.urlopen(f"{base}/metrics") as response:
            parsed = parse(response.read().decode("utf-8"))
        assert parsed.types["http_connections_accepted_total"] == "counter"
        assert parsed.types["http_connections_open"] == "gauge"
        assert parsed.value("http_connections_accepted_total") == 3
        assert parsed.value("http_connections_open") >= 1  # this scrape's own

    def test_process_memory_in_metrics_and_stats(self, metrics_server):
        base, _ = metrics_server
        with urllib.request.urlopen(f"{base}/metrics") as response:
            parsed = parse(response.read().decode("utf-8"))
        _, stats = get_json(f"{base}/stats")
        for key in ("resident_bytes", "peak_resident_bytes"):
            assert parsed.types[f"process_{key}"] == "gauge"
            assert parsed.value(f"process_{key}") > 0
            assert stats["process"][key] > 0

    def test_metrics_json_is_the_registry_snapshot(self, metrics_server):
        base, registry = metrics_server
        get_json(f"{base}/health")
        status, payload = get_json(f"{base}/metrics.json")
        assert status == 200
        assert set(payload) == {"counters", "gauges", "histograms", "families"}
        local = registry.snapshot()
        # The scrape itself is still in flight when the body is built, so
        # compare series names rather than exact observation counts.
        assert set(payload["histograms"]) <= set(local["histograms"])
        key = 'http_request_seconds{endpoint="/health"}'
        assert key in payload["histograms"]
        assert payload["histograms"][key]["count"] >= 1

    def test_each_endpoint_series_is_resolved_once_per_server(self, metrics_server):
        base, registry = metrics_server
        resolved = []
        lookup = registry.histogram

        def counting(name, **kwargs):
            resolved.append((name, kwargs["labels"]["endpoint"]))
            return lookup(name, **kwargs)

        registry.histogram = counting
        for _ in range(3):
            get_json(f"{base}/health")
            get_json(f"{base}/product/p-1")
            get_error(f"{base}/product/p-999")
            get_error(f"{base}/nope")
        assert sorted(resolved) == [
            ("http_request_seconds", "/health"),
            ("http_request_seconds", "/product"),
            ("http_request_seconds", "other"),
        ]
        histograms = registry.snapshot()["histograms"]
        assert histograms['http_request_seconds{endpoint="/health"}']["count"] == 3
        assert histograms['http_request_seconds{endpoint="/product"}']["count"] == 6
        # A label nobody requested has no series: /metrics shows traffic, not the table.
        assert 'http_request_seconds{endpoint="/search"}' not in histograms

    def test_label_cardinality_is_bounded(self, metrics_server):
        base, registry = metrics_server
        get_json(f"{base}/product/p-1")
        get_error(f"{base}/no/such/route")
        get_error(f"{base}/product/p-999")  # any id collapses to "/product"
        snapshot = registry.snapshot()
        histograms = snapshot["histograms"]
        assert histograms['http_request_seconds{endpoint="/product"}']["count"] == 2
        assert histograms['http_request_seconds{endpoint="other"}']["count"] == 1
        endpoints = {key for key in histograms if key.startswith("http_request_seconds")}
        assert len(endpoints) <= 8  # the literal set + "/product" + "other"
