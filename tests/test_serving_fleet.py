"""Tests for the replicated serving fleet (ISSUE 8 tentpole).

Covers the front's routing and failover semantics, the fault-injection
satellite (killed and hung replicas), replica restart, lag reporting
and the background refresher, the bounded HTTP worker pool, and the
/health and /lag endpoints over real HTTP.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runtime import SynthesisEngine
from repro.serving import (
    CatalogHTTPServer,
    CatalogIndex,
    CatalogSearchService,
    FleetUnavailableError,
    ServingFleet,
)


def make_engine(harness, **kwargs):
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
        **kwargs,
    )


def halves(offers):
    middle = len(offers) // 2
    return offers[:middle], offers[middle:]


def crash(operation):
    raise RuntimeError("injected replica crash")


@pytest.fixture
def sqlite_fleet(tiny_harness, tmp_path):
    """A live writer engine plus a 3-replica fleet over its store file."""
    path = str(tmp_path / "fleet.sqlite3")
    engine = make_engine(tiny_harness, store="sqlite", store_path=path)
    first, second = halves(tiny_harness.unmatched_offers)
    engine.ingest(first)
    fleet = ServingFleet.from_store_path(path, num_replicas=3)
    yield engine, fleet, second
    fleet.close()
    engine.close()


def fingerprints(results):
    return tuple((result.product.product_id, result.score) for result in results)


class TestFleetRouting:
    def test_requires_at_least_one_service(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ServingFleet([])

    def test_sequential_queries_rotate_across_replicas(self, sqlite_fleet):
        _, fleet, _ = sqlite_fleet
        served = {fleet.search("hard drive").replica_id for _ in range(12)}
        assert served == {0, 1, 2}
        health = fleet.health()
        assert all(entry["queries_served"] > 0 for entry in health["replicas"])

    def test_response_is_pinned_to_a_committed_prefix(self, sqlite_fleet):
        engine, fleet, second = sqlite_fleet
        before = {engine.store.commit_count: engine.products()}
        engine.ingest(second)
        before[engine.store.commit_count] = engine.products()
        response = fleet.search("hard drive", top_k=5)
        assert response.snapshot_commit_count in before
        reference = CatalogIndex(before[response.snapshot_commit_count])
        assert fingerprints(response.results) == fingerprints(
            reference.search("hard drive", top_k=5)
        )

    def test_get_product_reports_replica_and_snapshot(self, sqlite_fleet):
        engine, fleet, _ = sqlite_fleet
        product_id = engine.products()[0].product_id
        replica_id, snapshot, product = fleet.get_product(product_id)
        assert 0 <= replica_id < 3
        assert snapshot == engine.store.commit_count
        assert product is not None and product.product_id == product_id

    def test_feed_driven_fleet_serves_current_snapshot(self, tiny_harness):
        engine = make_engine(tiny_harness)
        fleet = ServingFleet.from_engine(engine, num_replicas=2)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        assert fleet.search("hard drive").snapshot_commit_count == 1
        engine.ingest(second)
        response = fleet.search("hard drive")
        assert response.snapshot_commit_count == 2
        assert fleet.lag()["max_lag"] == 0
        fleet.close()
        engine.close()


class TestFaultInjection:
    def test_killed_replica_is_routed_around(self, sqlite_fleet):
        _, fleet, _ = sqlite_fleet
        fleet.set_fault_hook(0, crash)
        for _ in range(8):
            assert fleet.search("hard drive").replica_id != 0
        health = fleet.health()
        assert health["healthy"] is True
        assert health["healthy_replicas"] == 2
        assert health["failovers"] >= 1
        dead = health["replicas"][0]
        assert dead["healthy"] is False
        assert "injected replica crash" in dead["last_error"]

    def test_no_query_observes_a_torn_snapshot_during_faults(self, sqlite_fleet):
        """Route-around retries must still pin to exact committed prefixes."""
        engine, fleet, second = sqlite_fleet
        prefixes = {engine.store.commit_count: engine.products()}
        fleet.set_fault_hook(1, crash)
        engine.ingest(second)
        prefixes[engine.store.commit_count] = engine.products()
        for _ in range(8):
            response = fleet.search("hard drive", top_k=5)
            assert response.snapshot_commit_count in prefixes
            reference = CatalogIndex(prefixes[response.snapshot_commit_count])
            assert fingerprints(response.results) == fingerprints(
                reference.search("hard drive", top_k=5)
            )

    def test_hung_replica_starves_while_others_serve(self, sqlite_fleet):
        """Least-in-flight routing drains traffic away from a hung replica."""
        _, fleet, _ = sqlite_fleet
        release = threading.Event()
        entered = threading.Event()

        def hang(operation):
            entered.set()
            assert release.wait(timeout=30)

        fleet.set_fault_hook(0, hang)
        # Three queries cover all three replicas (the rotating tie-break
        # advances per acquire), so exactly one request enters replica 0
        # and hangs there — counted as in flight the whole time.
        responses = []
        threads = [
            threading.Thread(
                target=lambda: responses.append(fleet.search("hard drive")),
                daemon=True,
            )
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        assert entered.wait(timeout=10)
        # While it hangs, every new query lands on the other replicas.
        for _ in range(8):
            assert fleet.search("hard drive").replica_id != 0
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert sum(1 for response in responses if response.replica_id == 0) == 1
        assert len(responses) == 3

    def test_all_replicas_dead_raises_unavailable(self, sqlite_fleet):
        _, fleet, _ = sqlite_fleet
        for replica_id in range(3):
            fleet.set_fault_hook(replica_id, crash)
        with pytest.raises(FleetUnavailableError, match="search"):
            fleet.search("hard drive")
        assert fleet.health()["healthy"] is False


class TestRestartAndRefresh:
    def test_restart_readmits_a_killed_replica(self, sqlite_fleet):
        _, fleet, _ = sqlite_fleet
        fleet.set_fault_hook(0, crash)
        for _ in range(3):  # rotation guarantees replica 0 gets tried
            fleet.search("hard drive")
        assert fleet.health()["healthy_replicas"] == 2
        fleet.restart_replica(0)
        health = fleet.health()
        assert health["healthy_replicas"] == 3
        assert health["replicas"][0]["restarts"] == 1
        assert health["replicas"][0]["last_error"] is None
        # The fresh replica serves again (fault hook did not survive).
        assert {fleet.search("hard drive").replica_id for _ in range(9)} == {0, 1, 2}

    def test_restarted_replica_serves_the_current_head(self, sqlite_fleet):
        engine, fleet, second = sqlite_fleet
        engine.ingest(second)
        fleet.set_fault_hook(2, crash)
        for _ in range(3):
            fleet.search("hard drive")
        fleet.restart_replica(2)
        snapshots = [entry["snapshot_commit_count"] for entry in fleet.lag()["replicas"]]
        assert snapshots[2] == engine.store.commit_count

    def test_restart_requires_a_rebuildable_source(self, tiny_harness, tmp_path):
        path = str(tmp_path / "detached.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers)
        services = [CatalogSearchService.from_store_path(path) for _ in range(2)]
        fleet = ServingFleet(services)
        with pytest.raises(RuntimeError, match="detached"):
            fleet.restart_replica(0)
        with pytest.raises(KeyError):
            fleet.restart_replica(9)
        fleet.close()
        engine.close()

    def test_lag_reports_divergence_and_refresh_converges(self, sqlite_fleet):
        engine, fleet, second = sqlite_fleet
        assert fleet.lag()["max_lag"] == 0
        assert fleet.refresh_once() is None  # nothing lags, nothing to do
        engine.ingest(second)
        lag = fleet.lag()
        assert lag["head_commit_count"] == engine.store.commit_count
        assert lag["max_lag"] == 1
        refreshed = set()
        for _ in range(3):
            replica_id = fleet.refresh_once()
            assert replica_id is not None
            refreshed.add(replica_id)
        assert refreshed == {0, 1, 2}
        assert fleet.lag()["max_lag"] == 0
        assert fleet.refresh_once() is None

    def test_background_refresher_converges_without_queries(
        self, tiny_harness, tmp_path
    ):
        path = str(tmp_path / "refresher.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        fleet = ServingFleet.from_store_path(
            path, num_replicas=2, max_lag_commits=0, refresh_interval=0.02
        )
        engine.ingest(second)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if fleet.lag()["max_lag"] == 0:
                break
            time.sleep(0.02)
        assert fleet.lag()["max_lag"] == 0
        fleet.close()
        engine.close()

    def test_close_is_idempotent(self, sqlite_fleet):
        _, fleet, _ = sqlite_fleet
        fleet.close()
        fleet.close()


class TestFleetHTTP:
    @pytest.fixture
    def served(self, sqlite_fleet):
        engine, fleet, second = sqlite_fleet
        server = CatalogHTTPServer(("127.0.0.1", 0), fleet, max_workers=3)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield engine, fleet, second, f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    @staticmethod
    def get_json(url):
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_search_reports_replica_and_snapshot(self, served):
        engine, _, _, base = served
        status, payload = self.get_json(f"{base}/search?q=hard+drive&k=5")
        assert status == 200
        assert payload["replica"] in (0, 1, 2)
        assert payload["snapshot_commit_count"] == engine.store.commit_count

    def test_worker_pool_serves_concurrent_clients(self, served):
        _, _, _, base = served
        outcomes = []

        def client():
            for _ in range(5):
                status, _ = self.get_json(f"{base}/search?q=hard+drive")
                outcomes.append(status)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert outcomes and set(outcomes) == {200}

    def test_health_flips_when_replicas_die(self, served):
        _, fleet, _, base = served
        status, payload = self.get_json(f"{base}/health")
        assert (status, payload["healthy"]) == (200, True)
        fleet.set_fault_hook(0, crash)
        for _ in range(3):  # rotation guarantees the failover trips
            fleet.search("hard drive")
        status, payload = self.get_json(f"{base}/health")
        assert status == 200  # still serving on the survivors
        assert payload["healthy_replicas"] == 2
        for replica_id in (1, 2):
            fleet.set_fault_hook(replica_id, crash)
        status, payload = self.get_json(f"{base}/search?q=hard+drive")
        assert status == 503
        assert "no healthy replica" in payload["error"]
        status, payload = self.get_json(f"{base}/health")
        assert (status, payload["healthy"]) == (503, False)

    def test_lag_endpoint_tracks_the_writer(self, served):
        engine, _, second, base = served
        status, payload = self.get_json(f"{base}/lag")
        assert status == 200
        assert payload["max_lag"] == 0
        engine.ingest(second)
        status, payload = self.get_json(f"{base}/lag")
        assert payload["head_commit_count"] == engine.store.commit_count
        assert payload["max_lag"] == 1
        assert [entry["lag"] for entry in payload["replicas"]] == [1, 1, 1]

    def test_single_service_health_and_lag_endpoints(self, tiny_harness, tmp_path):
        path = str(tmp_path / "single.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers)
        service = CatalogSearchService.from_store_path(path)
        server = CatalogHTTPServer(("127.0.0.1", 0), service)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            # A bare service is served as a fleet of one: the payloads are
            # the fleet's own, key for key.
            status, payload = self.get_json(f"{base}/health")
            assert status == 200
            assert payload == server.fleet.health()
            assert (payload["healthy"], payload["num_replicas"]) == (True, 1)
            assert [entry["replica_id"] for entry in payload["replicas"]] == [0]
            status, payload = self.get_json(f"{base}/lag")
            assert status == 200
            assert payload == server.fleet.lag()
            assert payload["max_lag_commits"] == 0
            assert [entry["lag"] for entry in payload["replicas"]] == [0]
            status, payload = self.get_json(f"{base}/search?q=hard+drive")
            assert (status, payload["replica"]) == (200, 0)
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            engine.close()


class TestResyncModeReporting:
    """ISSUE 9 satellite: journal-delta resyncs vs full rebuilds in /lag."""

    def test_lag_distinguishes_delta_resyncs_from_full_rebuilds(self, sqlite_fleet):
        engine, fleet, second = sqlite_fleet
        # Construction primes every replica with one full rebuild.
        for entry in fleet.lag()["replicas"]:
            assert entry["resync"]["full_resyncs"] == 1
            assert entry["resync"]["delta_resyncs"] == 0
            assert entry["resync"]["journal_truncations"] == 0

        # An intact journal turns the refresh into a delta application.
        engine.ingest(second)
        for _ in range(3):
            fleet.refresh_once()
        lag = fleet.lag()
        assert lag["max_lag"] == 0
        for entry in lag["replicas"]:
            assert entry["resync"]["delta_resyncs"] == 1
            assert entry["resync"]["full_resyncs"] == 1
            assert entry["resync"]["journal_truncations"] == 0
            assert entry["resync"]["resyncs"] == 2

        # A journal compacted past the replicas' snapshots forces the
        # full-rebuild fallback — reported distinctly.
        engine.ingest(tiny_batch := second[: max(1, len(second) // 4)])
        assert tiny_batch
        engine.store.compact_journal()
        for _ in range(3):
            fleet.refresh_once()
        lag = fleet.lag()
        assert lag["max_lag"] == 0
        for entry in lag["replicas"]:
            assert entry["resync"]["journal_truncations"] == 1
            assert entry["resync"]["full_resyncs"] == 2
            assert entry["resync"]["delta_resyncs"] == 1

    def test_single_service_lag_endpoint_reports_resync_modes(
        self, tiny_harness, tmp_path
    ):
        path = str(tmp_path / "single-modes.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        service = CatalogSearchService.from_store_path(path)
        server = CatalogHTTPServer(("127.0.0.1", 0), service)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            status, payload = TestFleetHTTP.get_json(f"{base}/lag")
            assert status == 200
            entry = payload["replicas"][0]
            assert entry["resync"]["full_resyncs"] == 1
            assert entry["resync"]["delta_resyncs"] == 0
            engine.ingest(second)
            service.resync()
            status, payload = TestFleetHTTP.get_json(f"{base}/lag")
            entry = payload["replicas"][0]
            assert entry["resync"]["delta_resyncs"] == 1
            assert entry["resync"]["full_resyncs"] == 1
            assert entry["resync"]["journal_truncations"] == 0
            assert entry["lag"] == 0
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            engine.close()
