"""Self-test of the benchmark (run with ``python -m pytest bench/tests``)."""
