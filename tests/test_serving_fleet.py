"""Tests for the replicated serving fleet (ISSUE 8 tentpole).

Covers the front's routing and failover semantics, the fault-injection
satellite (killed and hung replicas), replica restart, lag reporting
and the head watcher (ISSUE 18), the bounded HTTP worker pool, and the
/health and /lag endpoints over real HTTP.
"""

import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest
from exposition_parser import parse, validate_histograms

from repro.obs import MetricsRegistry, set_registry
from repro.runtime import SynthesisEngine
from repro.serving.reader import CatalogReader
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

    def test_unbounded_fleet_serves_the_current_snapshot(self, tiny_harness, tmp_path):
        path = str(tmp_path / "current.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        fleet = ServingFleet.from_store_path(path, num_replicas=2)
        assert fleet.search("hard drive").snapshot_commit_count == 1
        engine.ingest(second)
        # Bound 0: every request catches its replica up to the head first.
        responses = [fleet.search("hard drive") for _ in range(2)]
        assert {response.replica_id for response in responses} == {0, 1}
        assert {response.snapshot_commit_count for response in responses} == {2}
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

    def test_restarted_replica_follows_the_journal_afterwards(self, sqlite_fleet):
        engine, fleet, second = sqlite_fleet
        fleet.set_fault_hook(1, crash)
        for _ in range(3):
            fleet.search("hard drive")
        fleet.restart_replica(1)
        # The restart primes a fresh replica with one full rebuild; the
        # next commit reaches it as a journal delta.
        assert fleet.lag()["replicas"][1]["resync"]["full_resyncs"] == 1
        engine.ingest(second)
        for _ in range(3):
            fleet.refresh_once()
        entry = fleet.lag()["replicas"][1]
        assert entry["snapshot_commit_count"] == engine.store.commit_count
        assert entry["resync"]["delta_resyncs"] == 1
        assert entry["resync"]["full_resyncs"] == 1

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
            path, num_replicas=2, max_lag_commits=0, watch_head=True
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

    def test_refresh_interval_is_gone(self, tiny_harness, tmp_path):
        """A fleet watches the head or it does not; there is no interval to pick."""
        path = str(tmp_path / "removed-option.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers[:5])
        service = CatalogSearchService.from_store_path(path)
        try:
            with pytest.raises(TypeError, match="refresh_interval"):
                ServingFleet([service], refresh_interval=0.1)
            with pytest.raises(TypeError, match="refresh_interval"):
                ServingFleet.from_store_path(path, refresh_interval=0.1)
        finally:
            service.close()
            engine.close()


def snapshots(fleet):
    return [entry["snapshot_commit_count"] for entry in fleet.lag()["replicas"]]


def wait_until(predicate, timeout):
    """Poll ``predicate`` (sleeping, so the watcher gets the GIL) until true."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.0005)
    return predicate()


class TestHeadWatcher:
    """ISSUE 18: commit -> searchable without a timer, no store read per request."""

    @pytest.fixture
    def watched(self, tiny_harness, tmp_path):
        """A live writer plus a watching 2-replica fleet with lag bound 2."""
        path = str(tmp_path / "watched.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        fleet = ServingFleet.from_store_path(
            path, num_replicas=2, max_lag_commits=2, watch_head=True
        )
        yield engine, fleet, second
        fleet.close()
        engine.close()

    def test_a_commit_reaches_every_replica_within_milliseconds(self, watched):
        engine, fleet, offers = watched
        waits = []
        for offer in offers[:10]:
            engine.ingest([offer])
            committed = time.monotonic()
            head = engine.store.commit_count
            assert wait_until(lambda: min(snapshots(fleet)) >= head, timeout=5)
            waits.append(time.monotonic() - committed)
            time.sleep(0.05)
        # One replica per 100 ms tick measured 100-200 ms here.
        assert statistics.median(waits) < 0.040, waits

    @pytest.mark.parametrize(
        ("watch_head", "bound", "reads_per_request"),
        [(True, 2, 0), (True, 0, 1), (False, 2, 1)],
    )
    def test_only_a_watched_bound_keeps_requests_off_the_store(
        self, tiny_harness, tmp_path, monkeypatch, watch_head, bound, reads_per_request
    ):
        path = str(tmp_path / "reads.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers)
        product_id = engine.products()[0].product_id
        readers = []
        original = CatalogReader.commit_count

        def counting(reader):
            readers.append(threading.current_thread())
            return original(reader)

        monkeypatch.setattr(CatalogReader, "commit_count", counting)
        fleet = ServingFleet.from_store_path(
            path, num_replicas=2, max_lag_commits=bound, watch_head=watch_head
        )
        try:
            del readers[:]  # the constructor's own first probe
            for number in range(50):  # 200 requests, response-cache hits and misses
                fleet.search_body(f"hard drive {number % 10}")
                fleet.product_body(product_id)
                fleet.search("hard drive")
                fleet.get_product(product_id)
            stats = fleet.response_cache_stats()
            assert stats["hits"] > 0 and stats["misses"] > 0
            mine = readers.count(threading.current_thread())
            assert mine == 200 * reads_per_request
            if watch_head:
                assert wait_until(lambda: len(readers) > mine, timeout=5)  # the watcher's
        finally:
            fleet.close()
            engine.close()

    def test_the_bound_still_bites_when_the_watcher_is_stuck(self, tiny_harness, tmp_path):
        path = str(tmp_path / "stuck.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        head = [engine.store.commit_count]
        fleet = ServingFleet(
            [CatalogSearchService.from_store_path(path)],
            head=lambda: head[0],
            max_lag_commits=2,
            watch_head=True,
        )
        entered, release = threading.Event(), threading.Event()

        def stuck(operation):
            if operation == "resync":
                entered.set()
                assert release.wait(timeout=30)

        try:
            fleet.set_fault_hook(0, stuck)
            for offer in second[:3]:  # bound + 1 commits
                engine.ingest([offer])
            head[0] = engine.store.commit_count
            assert entered.wait(timeout=5)  # head published, the sweep hangs
            lag = fleet.lag()
            assert (lag["head_commit_count"], lag["max_lag"]) == (head[0], 3)
            assert fleet.search("hard drive").snapshot_commit_count == head[0]
            assert fleet.lag()["replicas"][0]["resync"]["delta_resyncs"] == 1
        finally:
            release.set()
            fleet.close()
            engine.close()

    def test_back_to_back_commits_share_delta_resyncs(self, watched):
        engine, fleet, offers = watched
        commits = 0
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            engine.ingest([offers[commits % len(offers)]])
            commits += 1
        head = engine.store.commit_count
        assert wait_until(lambda: min(snapshots(fleet)) >= head, timeout=0.1)
        for entry in fleet.lag()["replicas"]:
            assert entry["resync"]["full_resyncs"] == 1
            assert 0 < entry["resync"]["delta_resyncs"] < commits

    def test_close_waits_for_one_resync_not_for_the_sweep(self, tiny_harness, tmp_path):
        path = str(tmp_path / "closing.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        fleet = ServingFleet.from_store_path(
            path, num_replicas=3, max_lag_commits=2, watch_head=True
        )
        entered = []

        def slow(operation):
            if operation == "resync":
                entered.append(operation)
                time.sleep(0.3)

        try:
            for replica_id in range(3):
                fleet.set_fault_hook(replica_id, slow)
            engine.ingest(second)
            assert wait_until(lambda: entered, timeout=5)
            started = time.monotonic()
            fleet.close()
            assert time.monotonic() - started < 0.6  # three slow resyncs take 0.9 s
            assert len(entered) == 1
            assert not fleet._watcher.is_alive()
        finally:
            fleet.close()
            engine.close()

    def test_a_replica_that_fails_in_a_sweep_is_routed_around_until_restarted(self, watched):
        engine, fleet, offers = watched

        def broken(operation):
            if operation == "resync":
                raise RuntimeError("injected resync failure")

        fleet.set_fault_hook(0, broken)
        before = engine.store.commit_count
        engine.ingest(offers[:5])
        assert wait_until(lambda: not fleet.health()["replicas"][0]["healthy"], timeout=5)
        assert "injected resync failure" in fleet.health()["replicas"][0]["last_error"]
        assert {fleet.search("hard drive").replica_id for _ in range(6)} == {1}
        # The watcher keeps serving the survivor and leaves the dead one alone.
        engine.ingest(offers[5:10])
        head = engine.store.commit_count
        assert wait_until(lambda: snapshots(fleet)[1] == head, timeout=5)
        assert snapshots(fleet)[0] == before
        fleet.restart_replica(0)
        assert fleet.health()["healthy_replicas"] == 2
        assert snapshots(fleet) == [head, head]
        assert {fleet.search("hard drive").replica_id for _ in range(6)} == {0, 1}

    def test_an_unreadable_head_ages_and_the_watcher_survives_it(
        self, tiny_harness, tmp_path
    ):
        path = str(tmp_path / "unreadable.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        readable = [True]

        def head():
            if not readable[0]:
                raise OSError("store unreachable")
            return engine.store.commit_count

        fleet = ServingFleet(
            [CatalogSearchService.from_store_path(path)],
            head=head,
            max_lag_commits=2,
            watch_head=True,
        )
        try:
            time.sleep(0.02)
            assert fleet.lag()["head_age_ms"] < 20  # re-read every tick
            readable[0] = False
            engine.ingest(second)
            time.sleep(0.05)
            lag = fleet.lag()
            assert lag["head_age_ms"] >= 40
            assert lag["head_commit_count"] == engine.store.commit_count - 1
            readable[0] = True
            assert wait_until(
                lambda: snapshots(fleet) == [engine.store.commit_count], timeout=5
            )
            assert fleet.lag()["head_commit_count"] == engine.store.commit_count
        finally:
            fleet.close()
            engine.close()

    def test_watcher_metrics_reach_the_exposition(self, tiny_harness, tmp_path):
        path = str(tmp_path / "metrics.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            fleet = ServingFleet.from_store_path(
                path, num_replicas=2, max_lag_commits=2, watch_head=True
            )
        finally:
            set_registry(previous)
        try:
            assert parse(registry.render()).value("serving_head_changes_total") == 0
            engine.ingest(second)
            head = engine.store.commit_count
            assert wait_until(lambda: min(snapshots(fleet)) == head, timeout=5)
            parsed = parse(registry.render())
            validate_histograms(parsed)
            assert parsed.types["serving_refresh_seconds"] == "histogram"
            assert parsed.types["serving_head_changes_total"] == "counter"
            assert parsed.value("serving_head_changes_total") == 1
            assert parsed.value("serving_refresh_seconds_count") == 2  # one per replica
            assert parsed.value("serving_fleet_head_commit_count") == head
        finally:
            fleet.close()
            engine.close()

    def test_a_fleet_without_a_watcher_reports_a_fresh_head(self, sqlite_fleet):
        engine, fleet, second = sqlite_fleet
        engine.ingest(second)
        lag = fleet.lag()
        assert (lag["head_commit_count"], lag["head_age_ms"]) == (engine.store.commit_count, 0)
        assert fleet.stats()["watch_head"] is False


class TestServingCountersAreMonotonic:
    """Serving counters live in the registry: retiring a service loses none."""

    def test_serving_counters_survive_restart_and_close(self, tiny_harness, tmp_path):
        path = str(tmp_path / "counters.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        first, second = halves(tiny_harness.unmatched_offers)
        engine.ingest(first[:10])
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            fleet = ServingFleet.from_store_path(path, num_replicas=2)
            for _ in range(4):
                fleet.search_body("hard drive")  # 1 miss, then hits
            engine.ingest(first[10:])  # a journal delta for each replica
            for _ in range(4):
                fleet.search("hard drive")
            engine.ingest(second)
            engine.store.compact_journal()  # no journal covers the replicas any more
            fleet.count_by_category()
            fleet.set_fault_hook(0, crash)
            for _ in range(4):
                fleet.search("hard drive")

            def serving_counters():
                counters = registry.snapshot()["counters"]
                return {key: value for key, value in counters.items() if key.startswith("serving_")}

            before = serving_counters()
            for name in (
                "serving_queries_total",
                'serving_resyncs_total{mode="delta"}',
                'serving_resyncs_total{mode="full"}',
                "serving_journal_truncations_total",
                "serving_failovers_total",
                "serving_response_cache_hits_total",
                "serving_response_cache_misses_total",
            ):
                assert before[name] > 0, name
            fleet.restart_replica(0)
            fleet.restart_replica(1)
            restarted = serving_counters()
            fleet.close()
            closed = serving_counters()
        finally:
            set_registry(previous)
            engine.close()
        for after in (restarted, closed):
            for name, value in before.items():
                assert after.get(name, 0.0) >= value, name
        # Each replacement's priming build is a full resync of its own.
        full = 'serving_resyncs_total{mode="full"}'
        assert restarted[full] == before[full] + 2
        assert restarted["serving_replica_restarts_total"] == 2
        assert closed == restarted


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
