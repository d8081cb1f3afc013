"""Drill: a replicated serving fleet surviving a replica crash.

Demonstrates the ISSUE 8 serving fleet end to end on the tiny corpus:

1. a ``SynthesisEngine`` ingests merchant-feed batches into a durable
   SQLite store;
2. a three-replica ``ServingFleet`` opens the same WAL file read-only
   and load-balances queries across snapshot-pinned replicas;
3. the threaded HTTP front exposes ``/search``, ``/health`` and
   ``/lag`` on an ephemeral port with a bounded worker pool;
4. one replica is killed with a fault hook — the fleet routes around
   it, ``/health`` reports the degraded state, and a restart readmits
   the replica at the current head.

Run it from the repository root::

    PYTHONPATH=src python examples/fleet_drill.py
"""

import json
import os
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.corpus.config import CorpusPreset
from repro.experiments.harness import ExperimentHarness
from repro.runtime import SynthesisEngine
from repro.serving import CatalogHTTPServer, ServingFleet


def get_json(base: str, path: str) -> dict:
    try:
        with urllib.request.urlopen(f"{base}{path}") as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        return json.loads(error.read())


def main() -> None:
    harness = ExperimentHarness(CorpusPreset.TINY.config())
    offers = harness.unmatched_offers
    store_path = os.path.join(tempfile.mkdtemp(prefix="fleet-"), "catalog.sqlite3")

    engine = SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
        store="sqlite",
        store_path=store_path,
    )
    # Seed the catalog with the first half of the stream.
    half = max(1, len(offers) // 2)
    engine.ingest(offers[:half])

    # Three read-only replicas over the same WAL file, each pinned to a
    # committed prefix, with the fleet's head watcher chasing the head.
    fleet = ServingFleet.from_store_path(
        store_path, num_replicas=3, max_lag_commits=1, watch_head=True
    )
    server = CatalogHTTPServer(("127.0.0.1", 0), fleet, max_workers=4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"fleet of {fleet.num_replicas} replicas serving on {base}")

    probe = engine.products()[0].title
    query = urllib.parse.quote(probe)
    payload = get_json(base, f"/search?q={query}&k=3")
    print(
        f"GET /search -> {payload['num_results']} hits from replica "
        f"{payload['replica']} (snapshot {payload['snapshot_commit_count']})"
    )

    # Rotation: consecutive queries spread over all three replicas.
    served_by = {get_json(base, f"/search?q={query}&k=1")["replica"] for _ in range(6)}
    print(f"6 queries served by replicas {sorted(served_by)}")
    assert served_by == {0, 1, 2}, "rotation should cover every replica"

    # Ingest the rest of the stream; the head watcher has every replica
    # on the new commit a few milliseconds later, without any query.
    engine.ingest(offers[half:])
    committed = time.monotonic()
    lag = get_json(base, "/lag")
    while lag["head_commit_count"] < engine.store.commit_count or lag["max_lag"]:
        assert time.monotonic() - committed < 1.0, f"replicas still behind: {lag}"
        lag = get_json(base, "/lag")
    print(
        f"GET /lag after ingest -> head {lag['head_commit_count']}, max lag 0 "
        f"within {(time.monotonic() - committed) * 1000:.0f} ms (bound {lag['max_lag_commits']})"
    )

    # Kill replica 0 with a fault hook: the fleet routes around it.
    def crash(operation: str) -> None:
        raise RuntimeError("injected replica crash")

    fleet.set_fault_hook(0, crash)
    for _ in range(3):
        assert get_json(base, f"/search?q={query}&k=1")["num_results"] >= 0
    health = get_json(base, "/health")
    print(
        f"GET /health after crash -> {health['healthy_replicas']}/"
        f"{health['num_replicas']} healthy, {health['failovers']} failover(s)"
    )
    assert health["healthy_replicas"] == 2, "crashed replica should be out"
    survivors = {get_json(base, f"/search?q={query}&k=1")["replica"] for _ in range(6)}
    assert 0 not in survivors, "queries must route around the dead replica"
    print(f"queries now served by survivors {sorted(survivors)}")

    # Restart the replica: fresh reader at the current head, readmitted.
    fleet.restart_replica(0)
    health = get_json(base, "/health")
    assert health["healthy_replicas"] == 3, "restarted replica should rejoin"
    print(
        f"restarted replica 0 -> {health['healthy_replicas']}/"
        f"{health['num_replicas']} healthy again"
    )

    server.shutdown()
    server.server_close()
    fleet.close()
    engine.close()
    print("fleet drill complete")


if __name__ == "__main__":
    main()
