"""Closed-loop stress benchmark for the replicated serving fleet (ISSUE 8).

Runs :func:`repro.experiments.serving_bench.run_fleet` — N concurrent
HTTP clients hammering a threaded front while a writer engine keeps
committing batches — and asserts the tentpole's acceptance criteria:

* both phases (a fleet of one replica, then the replicated fleet) finish their
  measurement window with zero request errors and populated p50/p95/p99
  latency percentiles;
* the mixed workload really was mixed: commits landed during both
  windows, and responses report more than one distinct pinned snapshot;
* replica lag stays within the configured divergence bound;
* clients hold persistent connections (``connects_per_request`` near
  0), so the windows measure the server, not TCP set-up;
* fleet throughput stays within 20% of the committed
  ``BENCH_serving_fleet.json``;
* on a multi-core box the fleet's aggregate QPS beats the single
  replica — a **known failure** (``xfail``, checked last so every guard
  above still runs): 0.73x at the commit before ISSUE 12 on the 2-core
  box, 0.57x after it, 0.62-0.89x (median 0.71x of five runs) with
  ISSUE 13's one shared response cache.
  See "Replica sizing" in docs/serving.md for what a fleet buys instead.

Writes ``BENCH_serving_fleet.json`` next to the repo root, or into
``$BENCH_OUTPUT_DIR`` when set — CI uploads it as an artifact.
"""

import json
import os

import pytest
from conftest import run_once

from repro.corpus.config import CorpusPreset
from repro.experiments import serving_bench
from repro.experiments.harness import ExperimentHarness

#: Workload shape of the headline run.
STREAM_OFFERS = 10_000
STREAM_BATCHES = 10
CLIENTS = 4
REPLICAS = 2
DURATION_SECONDS = 5.0
MAX_LAG_COMMITS = 2
TOP_K = 10

#: The regression guard fails when fleet throughput drops below this
#: fraction of the committed run.  Wall-clock is machine-dependent: the
#: committed JSON is the reference for the hardware it was produced on,
#: so after a hardware change regenerate it rather than chasing a
#: phantom regression.
THROUGHPUT_GUARD = 0.8


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _output_path() -> str:
    out_dir = os.environ.get("BENCH_OUTPUT_DIR")
    if out_dir is None:
        out_dir = _repo_root()
    return os.path.join(out_dir, "BENCH_serving_fleet.json")


def _committed_result() -> dict:
    """The committed benchmark JSON (read before this run overwrites it)."""
    committed_path = os.path.join(_repo_root(), "BENCH_serving_fleet.json")
    if not os.path.exists(committed_path):
        return {}
    with open(committed_path, encoding="utf-8") as handle:
        return json.load(handle)


def test_bench_serving_fleet_closed_loop(benchmark, tmp_path):
    committed = _committed_result()
    harness = ExperimentHarness(
        CorpusPreset.SMALL.config(seed=2011).scaled(STREAM_OFFERS / 1200.0)
    )
    # Materialise setup artefacts outside the measured region.
    _ = harness.unmatched_offers
    _ = harness.offline_result
    _ = harness.category_classifier

    result = run_once(
        benchmark,
        serving_bench.run_fleet,
        num_offers=STREAM_OFFERS,
        num_batches=STREAM_BATCHES,
        top_k=TOP_K,
        harness=harness,
        store_path=str(tmp_path / "bench-fleet.sqlite3"),
        clients=CLIENTS,
        duration=DURATION_SECONDS,
        replicas=REPLICAS,
        max_lag_commits=MAX_LAG_COMMITS,
    )
    result.write_json(_output_path())
    print()
    print(result.to_text())

    assert result.num_offers == STREAM_OFFERS
    assert result.num_products > 1_000
    assert result.clients == CLIENTS
    assert result.fleet.replicas == REPLICAS

    for phase in (result.single, result.fleet):
        # Closed loop actually closed: zero dropped/errored requests and
        # a healthy request count for the window.
        assert phase.errors == 0, f"{phase.mode} phase saw {phase.errors} errors"
        assert phase.connects_per_request < 0.01
        assert phase.requests > 0
        assert phase.queries_per_second > 0
        # Latency percentiles recorded and ordered.
        assert 0 < phase.p50_ms <= phase.p95_ms <= phase.p99_ms
        # The workload was genuinely mixed: the writer committed during
        # the window, and queries observed the catalog advancing.
        assert phase.commits_during_run >= 1
        assert phase.distinct_snapshots >= 2

    # Replica divergence stays inside the configured bound.
    assert result.fleet.max_lag_observed <= MAX_LAG_COMMITS

    # Regression guard vs the committed BENCH_serving_fleet.json.
    committed_fleet = committed.get("fleet", {})
    committed_throughput = committed_fleet.get("queries_per_second")
    if committed_throughput:
        assert (
            result.fleet.queries_per_second
            >= THROUGHPUT_GUARD * committed_throughput
        ), (
            f"fleet throughput regressed more than 20%: "
            f"{result.fleet.queries_per_second:.1f} queries/s now vs "
            f"{committed_throughput:.1f} committed"
        )

    # The headline claim needs real parallelism underneath: replica
    # threads on one core just time-slice it, so the fleet-beats-single
    # check only applies on multi-core hardware.  It is a known failure
    # there too (clients, writer, front and both replicas share one GIL,
    # and every commit is applied once per replica), so it is an expected
    # failure, not a silent pass: it starts passing the day it holds.
    if (os.cpu_count() or 1) >= 2 and not result.fleet_speedup > 1.0:
        pytest.xfail(
            f"fleet aggregate QPS did not beat the single replica on a "
            f"{os.cpu_count()}-core box: {result.fleet_speedup:.2f}x"
        )
