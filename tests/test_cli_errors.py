"""CLI hardening: conflicting flags and bad store paths fail clearly.

ISSUE 5 satellite: every rejected combination exits through
``parser.error`` (status 2, one-line message on stderr) instead of
surfacing as a deep traceback from the store or cluster layers.  Only
parsing is exercised — every case here errors before any corpus or
engine work starts.
"""

import pytest

from repro.experiments import cli


def expect_cli_error(capsys, argv, *fragments):
    """Run the CLI expecting an argparse error mentioning ``fragments``."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    stderr = capsys.readouterr().err
    for fragment in fragments:
        assert fragment in stderr, f"{fragment!r} not in {stderr!r}"


class TestRuntimeBenchConflicts:
    def test_nodes_and_processes_are_mutually_exclusive(self, capsys):
        expect_cli_error(
            capsys,
            ["runtime-bench", "--nodes", "2", "--processes", "2"],
            "mutually exclusive",
        )

    def test_processes_reject_memory_store(self, capsys):
        expect_cli_error(
            capsys,
            ["runtime-bench", "--processes", "2", "--store", "memory"],
            "WAL file",
        )

    def test_processes_reject_process_executor(self, capsys):
        expect_cli_error(
            capsys,
            ["runtime-bench", "--processes", "2", "--executor", "process"],
            "daemonic",
        )

    def test_resume_requires_sqlite(self, capsys):
        expect_cli_error(capsys, ["runtime-bench", "--resume"], "--store sqlite")

    def test_resume_rejects_cluster_modes(self, capsys):
        expect_cli_error(
            capsys,
            ["runtime-bench", "--resume", "--store", "sqlite", "--nodes", "2"],
            "single-engine",
        )

    def test_node_and_process_counts_must_be_positive(self, capsys):
        expect_cli_error(capsys, ["runtime-bench", "--nodes", "0"], "--nodes")
        expect_cli_error(capsys, ["runtime-bench", "--processes", "0"], "--processes")

    def test_store_path_requires_sqlite(self, capsys):
        expect_cli_error(
            capsys,
            ["runtime-bench", "--store-path", "whatever.sqlite3"],
            "--store-path requires",
        )


class TestStorePathValidation:
    def test_directory_as_store_path(self, capsys, tmp_path):
        expect_cli_error(
            capsys,
            ["runtime-bench", "--store", "sqlite", "--store-path", str(tmp_path)],
            "is a directory",
        )

    def test_missing_parent_directory(self, capsys, tmp_path):
        bad = str(tmp_path / "no" / "such" / "dir" / "cat.sqlite3")
        expect_cli_error(
            capsys,
            ["runtime-bench", "--store", "sqlite", "--store-path", bad],
            "does not exist",
        )

    def test_resume_requires_an_existing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "fresh.sqlite3")
        expect_cli_error(
            capsys,
            [
                "runtime-bench",
                "--store",
                "sqlite",
                "--store-path",
                missing,
                "--resume",
            ],
            "does not exist",
        )

    def test_valid_arguments_still_parse(self, tmp_path):
        args = cli._parse_runtime_bench_args(
            ["--store", "sqlite", "--store-path", str(tmp_path / "ok.sqlite3")]
        )
        assert args.store == "sqlite"
        assert args.executor == "process"
        args = cli._parse_runtime_bench_args(["--processes", "2"])
        assert args.store == "sqlite"
        assert args.executor == "serial"
        assert args.store_path == "BENCH_catalog.sqlite3"


class TestServingBenchErrors:
    def test_store_path_requires_sqlite(self, capsys):
        expect_cli_error(
            capsys,
            ["serving-bench", "--store", "memory", "--store-path", "x.sqlite3"],
            "--store-path requires",
        )

    def test_counts_must_be_positive(self, capsys):
        expect_cli_error(capsys, ["serving-bench", "--queries", "0"], "--queries")
        expect_cli_error(capsys, ["serving-bench", "--top-k", "0"], "--top-k")
        expect_cli_error(capsys, ["serving-bench", "--offers", "0"], "--offers")

    def test_bad_store_path(self, capsys, tmp_path):
        expect_cli_error(
            capsys,
            ["serving-bench", "--store-path", str(tmp_path)],
            "is a directory",
        )

    def test_defaults_parse(self):
        args = cli._parse_serving_bench_args([])
        assert args.store == "sqlite"
        assert args.store_path == "BENCH_serving_catalog.sqlite3"


class TestRuntimeServeErrors:
    def test_store_file_must_exist(self, capsys, tmp_path):
        expect_cli_error(
            capsys,
            ["runtime-serve", "--store-path", str(tmp_path / "gone.sqlite3")],
            "does not exist",
        )

    def test_port_range(self, capsys, tmp_path):
        store = tmp_path / "cat.sqlite3"
        store.touch()
        expect_cli_error(
            capsys,
            ["runtime-serve", "--store-path", str(store), "--port", "70000"],
            "--port",
        )

    def test_page_size_positive(self, capsys, tmp_path):
        store = tmp_path / "cat.sqlite3"
        store.touch()
        expect_cli_error(
            capsys,
            ["runtime-serve", "--store-path", str(store), "--page-size", "0"],
            "--page-size",
        )

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_defaults_do_not_depend_on_the_replica_count(self, tmp_path, replicas):
        store = tmp_path / "cat.sqlite3"
        store.touch()
        argv = ["--store-path", str(store)] + (["--replicas", "3"] if replicas == 3 else [])
        args = cli._parse_runtime_serve_args(argv)
        assert args.replicas == replicas
        assert args.threads == 2 * replicas
        assert args.max_lag_commits == 2
        assert not hasattr(args, "index_backend")
