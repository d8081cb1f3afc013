"""The benchmark checks itself at a tiny size (about 600 offers).

Not part of tier-1 (``pyproject.toml`` collects only ``tests/``); run it
with ``python -m pytest bench/tests`` from the repo root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

from bench import ROOT, compare, inputs, run

OFFERS = 600
SPEC = run.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_results: Dict[Tuple[str, int], Tuple[int, Dict[str, object]]] = {}


def _invoke(
    workload: str,
    trace: int,
    capsys,  # noqa: ANN001
    monkeypatch,  # noqa: ANN001
) -> Tuple[int, Dict[str, object]]:
    """Run the command in-process on a tiny stream; returns exit code and last-line JSON."""
    monkeypatch.setattr(inputs, "STREAM_OFFERS", OFFERS)
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def result(request, capsys, monkeypatch):  # noqa: ANN001, ANN201
    """One cached run per (workload, trace)."""
    key = request.param
    if key not in _results:
        _results[key] = _invoke(key[0], key[1], capsys, monkeypatch)
    return key, _results[key]


ALL_RUNS = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]


def test_benchmark_json_names_and_units_are_well_formed() -> None:
    """Names and units obey the contract's character sets and are unique."""
    names = [entry["name"] for entry in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for entry in SPEC[group]:
            names.append(entry["name"])
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher"), entry
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(
        entry == {"name": "setup_s", "unit": "s", "better": "lower", "bound": entry["bound"]}
        for entry in SPEC["end_to_end"]
    )
    assert all(0 <= entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("result", ALL_RUNS, indirect=True, ids=str)
def test_every_named_metric_is_emitted_with_its_unit(result) -> None:  # noqa: ANN001
    """Each run prints exactly the metrics of its group, correct and unfailed."""
    (workload, trace), (code, payload) = result
    assert code == 0, workload
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert payload["attempted"] >= 1 and payload["failed"] == 0
    expected = {
        entry["name"]: entry["unit"] for entry in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert {name: entry["unit"] for name, entry in payload["metrics"].items()} == expected
    for name, entry in payload["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        if not trace:
            assert entry["value"] > 0, f"end-to-end metric {name} must never be 0"


@pytest.mark.parametrize(
    "result", [(workload, 1) for workload in WORKLOADS], indirect=True, ids=str
)
def test_traced_time_metrics_are_measured_on_every_workload(result) -> None:  # noqa: ANN001
    """A per-layer *time* is never a placeholder: every workload measures it.

    The driver rejects a time that reads exactly the same on every run,
    which a zero filled in for an unexercised layer would.
    """
    _, (_, payload) = result
    for name, entry in payload["metrics"].items():
        if entry["unit"] in ("s", "ms", "us"):
            assert entry["value"] != 0, name


@pytest.mark.parametrize(
    "result", [(workload, 1) for workload in WORKLOADS], indirect=True, ids=str
)
def test_trace_file_self_times_add_up(result) -> None:  # noqa: ANN001
    """A traced parent's self time plus its children equals its duration."""
    (workload, _), _ = result
    with open(ROOT / "bench" / "out" / f"trace-{workload}.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    assert spans and trace["fields"] == ["name", "start", "end", "parent", "op"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        assert end >= start, name
        if parent >= 0:
            _, parent_start, parent_end, _, _ = spans[parent]
            assert parent_start <= start and end <= parent_end, (name, spans[parent][0])
            child_time[parent] += end - start
    totals: Dict[str, float] = {}
    selves: Dict[str, float] = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        assert child_time[index] <= (end - start) + 1e-9, name
        totals[name] = totals.get(name, 0.0) + (end - start)
        selves[name] = selves.get(name, 0.0) + (end - start) - child_time[index]
    for name, entry in trace["summary"].items():
        assert entry["total_s"] == pytest.approx(totals[name])
        assert entry["self_s"] == pytest.approx(selves[name], abs=1e-9)
    assert "registry" in trace and "metrics" in trace


def test_a_wrong_product_makes_the_command_exit_non_zero(
    capsys,  # noqa: ANN001
    monkeypatch,  # noqa: ANN001
) -> None:
    """The output check is live: a reference that disagrees fails the run."""
    from bench import workloads

    genuine = workloads.reference_products

    def one_product_short(inputs):  # noqa: ANN001, ANN202
        return genuine(inputs)[:-1]

    monkeypatch.setattr(workloads, "reference_products", one_product_short)
    code, payload = _invoke("ingest_stream", 0, capsys, monkeypatch)
    assert code != 0
    assert payload["correct"] is False


def test_a_wrong_search_result_is_caught() -> None:
    """A response that differs from its snapshot's reference index is reported."""
    from bench.checks import check_responses
    from bench.inputs import Request
    from repro.model.attributes import Specification
    from repro.model.products import Product
    from repro.serving.index import CatalogIndex

    product = Product("p1", "cat", "acme widget", Specification([("Brand", "Acme")]))
    request = Request(path="/search?q=widget&k=10", kind="search", query="widget")
    hits = [hit.to_dict() for hit in CatalogIndex([product]).search("widget", top_k=10)]
    assert hits, "the query must match the product"
    good = {"results": hits}
    wrong = {"results": [{**hits[0], "score": hits[0]["score"] / 2}]}
    assert check_responses([(request, 3, good)], {3: [product]}.get) == []
    assert len(check_responses([(request, 3, wrong)], {3: [product]}.get)) == 1
    assert len(check_responses([(request, 4, good)], {3: [product]}.get)) == 1


def test_compare_tells_worse_from_unresolved(tmp_path, capsys) -> None:  # noqa: ANN001
    """``compare.py`` applies each metric's bound, flags wide spreads, refuses mixed sizes."""

    def write(path: Path, latencies, rates, offers=OFFERS) -> str:  # noqa: ANN001
        with open(path, "w", encoding="utf-8") as handle:
            for latency, rate in zip(latencies, rates):
                metrics = {
                    "latency_p50_ms": {"value": latency, "unit": "ms"},
                    "ops_per_s": {"value": rate, "unit": "1/s"},
                }
                record = {"workload": "serve_read", "seed": 1, "trace": 0, "metrics": metrics}
                record.update(offers=offers, seconds=1.0)
                handle.write(json.dumps(record) + "\n")
        return str(path)

    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    first = write(tmp_path / "a.jsonl", steady, [100, 200, 50, 400, 100])
    second = write(tmp_path / "b.jsonl", [2 * value for value in steady], [90, 210, 45, 390, 95])
    assert compare.main([first, second]) == 1
    out = capsys.readouterr().out
    assert re.search(r"latency_p50_ms.*WORSE", out)
    assert re.search(r"ops_per_s.*unresolved", out)
    assert compare.main([first, first]) == 0
    resized = write(tmp_path / "c.jsonl", steady, [100] * 5, offers=2 * OFFERS)
    assert compare.main([first, resized]) == 2


def test_a_window_in_which_nothing_completed_reports_zeros() -> None:
    """A dead server leaves the result to ``failed``; the summary does not raise."""
    from bench.serving import ClientLog
    from bench.workloads import _serve_summary

    summary = _serve_summary(ClientLog(attempted=5, failed=5), [])
    assert summary["ops_per_s"] == 0.0 and summary["latency_p90_ms"] == 0.0


def test_it_refuses_to_run_where_there_is_no_program(tmp_path) -> None:  # noqa: ANN001
    """With only BENCHMARK.json and bench/ present: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    finished = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest_stream", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert finished.returncode != 0
    assert "{" not in finished.stdout
