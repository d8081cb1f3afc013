"""CLI hardening: bad flags, store paths and artifacts fail clearly.

Every rejected combination exits through ``parser.error`` (status 2,
one-line message on stderr) instead of surfacing as a deep traceback
from the store or serving layers.  Only parsing is exercised — every
case here errors before any corpus, engine or socket work starts.  The
removed serving knobs and constructors are pinned here too, so none of
them comes back half-wired.
"""

import json

import pytest

from repro.experiments import cli
from repro.runtime import SqliteCatalogStore, resolve_executor
from repro.serving import CatalogReader, CatalogSearchService, ServingFleet


def expect_cli_error(capsys, argv, *fragments):
    """Run the CLI expecting an argparse error mentioning ``fragments``."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    stderr = capsys.readouterr().err
    for fragment in fragments:
        assert fragment in stderr, f"{fragment!r} not in {stderr!r}"


@pytest.fixture
def store_file(tmp_path):
    """An empty but real catalog store, as the library's write API leaves it."""
    path = str(tmp_path / "cat.sqlite3")
    SqliteCatalogStore(path).close()
    return path


class TestRemovedSubcommands:
    @pytest.mark.parametrize("command", ["runtime-bench", "serving-bench"])
    def test_old_bench_commands_are_plain_argparse_errors(self, capsys, command):
        """Deleted with the pre-gate harness (ISSUE 19): no half-removed dispatch."""
        expect_cli_error(capsys, [command], "unrecognized arguments", command)
        expect_cli_error(capsys, [command, "--offers", "600"], "unrecognized arguments")


def _reader_page_size(capsys, store_file):
    with pytest.raises(TypeError):
        CatalogReader(store_file, page_size=8)


def _reader_max_cached_pages(capsys, store_file):
    with pytest.raises(TypeError):
        CatalogReader(store_file, max_cached_pages=8)


def _service_from_engine(capsys, store_file):
    assert not hasattr(CatalogSearchService, "from_engine")


def _fleet_from_engine(capsys, store_file):
    assert not hasattr(ServingFleet, "from_engine")


def _serve_page_size(capsys, store_file):
    expect_cli_error(
        capsys,
        ["runtime-serve", "--store-path", store_file, "--page-size", "8"],
        "unrecognized arguments: --page-size 8",
    )


def _thread_executor(capsys, store_file):
    with pytest.raises(ValueError) as excinfo:
        resolve_executor("thread")
    assert str(excinfo.value).endswith("expected one of ['process', 'serial']")


class TestRemovedSurface:
    @pytest.mark.parametrize(
        "check",
        [
            _reader_page_size,
            _reader_max_cached_pages,
            _service_from_engine,
            _fleet_from_engine,
            _serve_page_size,
            _thread_executor,
        ],
        ids=lambda check: check.__name__.lstrip("_"),
    )
    def test_removed_knob_stays_removed(self, capsys, store_file, check):
        """One way to keep a replica current (the store's commit journal), a
        reader with no page cache or page-size knob, and two shard executors."""
        check(capsys, store_file)


class TestStorePathValidation:
    def test_directory_as_store_path(self, capsys, tmp_path):
        expect_cli_error(
            capsys, ["runtime-serve", "--store-path", str(tmp_path)], "is a directory"
        )

    def test_missing_parent_directory(self, capsys, tmp_path):
        bad = str(tmp_path / "no" / "such" / "dir" / "cat.sqlite3")
        expect_cli_error(
            capsys, ["runtime-serve", "--store-path", bad], "directory that does not exist"
        )

    @pytest.mark.parametrize("content", [b"", b"not a database, " * 64])
    def test_file_that_is_not_a_catalog_store(self, capsys, tmp_path, content):
        """An empty file and garbage bytes: one line, not a sqlite3 traceback."""
        path = tmp_path / "junk.sqlite3"
        path.write_bytes(content)
        expect_cli_error(
            capsys, ["runtime-serve", "--store-path", str(path)], "is not a catalog store"
        )
        assert path.read_bytes() == content


class TestRuntimeServeErrors:
    def test_store_file_must_exist(self, capsys, tmp_path):
        expect_cli_error(
            capsys,
            ["runtime-serve", "--store-path", str(tmp_path / "gone.sqlite3")],
            "does not exist",
        )

    def test_port_range(self, capsys, store_file):
        expect_cli_error(
            capsys,
            ["runtime-serve", "--store-path", store_file, "--port", "70000"],
            "--port",
        )

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_defaults_do_not_depend_on_the_replica_count(self, store_file, replicas):
        argv = ["--store-path", store_file] + (["--replicas", "3"] if replicas == 3 else [])
        args = cli._parse_runtime_serve_args(argv)
        assert args.replicas == replicas
        assert args.threads == 2 * replicas
        assert args.max_lag_commits == 2
        assert not hasattr(args, "index_backend")


class TestRuntimeObsArtifact:
    def test_reads_the_registry_section_of_a_bench_trace(self, capsys, tmp_path):
        """``bench/run.py --trace 1`` keeps its per-layer floats under
        ``metrics`` and the ``MetricsRegistry.snapshot()`` under ``registry``."""
        trace = {
            "metrics": {"engine.ingest_s": 0.4},
            "registry": {
                "counters": {"engine_batches_total": 50.0},
                "gauges": {"serving_replica_lag_commits": 0.0},
                "histograms": {"span_seconds": {"count": 3, "sum": 0.3, "p50": 0.1}},
            },
        }
        path = tmp_path / "trace-ingest_stream.json"
        path.write_text(json.dumps(trace), encoding="utf-8")
        assert cli.main(["runtime-obs", "--artifact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine_batches_total" in out and "serving_replica_lag_commits" in out
        assert "span_seconds" in out and "count=3" in out
        assert "engine.ingest_s" not in out

    @pytest.mark.parametrize("payload", [[1, 2], {"metrics": {"x": 1.0}}, {"registry": {"x": 1}}])
    def test_artifact_without_a_snapshot_exits_2(self, capsys, tmp_path, payload):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["runtime-obs", "--artifact", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "no 'registry' metrics snapshot" in out
