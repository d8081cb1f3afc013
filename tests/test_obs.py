"""Tests for the unified observability layer (``repro.obs``).

Covers the metrics core (counter/gauge/histogram semantics, the span
timer, series identity and label escaping), the registry (get-or-create,
type conflicts, provider bridges, snapshot/merge/render), the shared
nearest-rank percentile rule, the Prometheus text exposition output
validated through the test-only parser in ``tests/exposition_parser.py``,
and — via hypothesis — that concurrent increments from N threads are
never lost.
"""

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exposition_parser import parse, validate_histograms
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_snapshot,
    get_registry,
    merge_snapshot,
    nearest_rank,
    percentile,
    process_memory,
    register_process_gauges,
    render_snapshot,
    series_key,
    set_registry,
    snapshot_fragment,
)


class TestPercentiles:
    def test_nearest_rank_clamps_to_valid_indices(self):
        assert nearest_rank(1, 0.0) == 0
        assert nearest_rank(1, 1.0) == 0
        assert nearest_rank(100, 0.5) == 50
        assert nearest_rank(100, 0.99) == 99
        assert nearest_rank(10, 1.0) == 9
        with pytest.raises(ValueError):
            nearest_rank(0, 0.5)

    def test_percentile_of_sorted_sample(self):
        values = [float(index) for index in range(100)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile([], 0.5) == 0.0

    def test_histogram_percentile_uses_the_same_rank_rule(self):
        # 100 samples landing in distinct buckets: the histogram's
        # answer must be the bucket bound covering the same rank the
        # raw-sample rule selects.
        histogram = Histogram(buckets=[1.0, 2.0, 3.0, 4.0])
        samples = [0.5] * 50 + [1.5] * 40 + [2.5] * 10
        for sample in samples:
            histogram.observe(sample)
        # Rank 95 of 100 falls in the third bucket (cumulative 50, 90,
        # 100): the histogram answers that bucket's upper bound, an
        # upper estimate of the raw-sample nearest-rank value.
        raw = percentile(sorted(samples), 0.95)
        assert histogram.percentile(0.95) == 3.0
        assert raw <= histogram.percentile(0.95)


class TestMetricPrimitives:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec_and_callback(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0
        gauge.set_callback(lambda: 42.0)
        assert gauge.value == 42.0
        gauge.set_callback(lambda: 1 / 0)  # a scrape must never raise
        assert gauge.value == 0.0
        gauge.set(7)  # set drops the callback
        assert gauge.value == 7.0

    def test_histogram_buckets_sum_count(self):
        histogram = Histogram(buckets=[0.1, 1.0])
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.05)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"0.1": 1, "1": 3, "+Inf": 4}
        assert snapshot["count"] == 4
        assert snapshot["p50"] == 1.0

    def test_histogram_rejects_empty_or_inf_bounds(self):
        with pytest.raises(ValueError):
            Histogram(buckets=[])
        with pytest.raises(ValueError):
            Histogram(buckets=[1.0, float("inf")])

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert len(set(DEFAULT_LATENCY_BUCKETS)) == len(DEFAULT_LATENCY_BUCKETS)


class TestSeriesKey:
    def test_key_sorts_labels_and_escapes_values(self):
        key = series_key("m_total", {"b": 'say "hi"', "a": "back\\slash\nline"})
        assert key == 'm_total{a="back\\\\slash\\nline",b="say \\"hi\\""}'

    def test_key_without_labels_is_the_name(self):
        assert series_key("m_total") == "m_total"
        assert series_key("m_total", {}) == "m_total"


class TestRegistry:
    def test_get_or_create_returns_the_same_handle(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", labels={"x": "1"})
        second = registry.counter("c_total", labels={"x": "1"})
        other = registry.counter("c_total", labels={"x": "2"})
        assert first is second
        assert first is not other

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")

    def test_invalid_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("1bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("fine", labels={"bad-label": "v"})

    def test_span_times_into_the_span_histogram(self):
        registry = MetricsRegistry()
        with registry.span("unit.test_stage"):
            pass
        snapshot = registry.snapshot()
        series = snapshot["histograms"]['span_seconds{span="unit.test_stage"}']
        assert series["count"] == 1

    def test_provider_fragments_merge_without_double_count(self):
        registry = MetricsRegistry()
        registry.counter("direct_total").inc(3)
        provider = registry.add_provider(
            lambda: snapshot_fragment(counters={"bridged_total": 7})
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["direct_total"] == 3
        assert snapshot["counters"]["bridged_total"] == 7
        registry.remove_provider(provider)
        assert "bridged_total" not in registry.snapshot()["counters"]

    def test_failing_provider_never_breaks_a_scrape(self):
        registry = MetricsRegistry()
        registry.add_provider(lambda: 1 / 0)
        assert registry.snapshot()["counters"] == {}

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="help").inc()
        registry.gauge("g").set(1.5)
        registry.histogram("h_seconds").observe(0.2)
        round_tripped = json.loads(json.dumps(registry.snapshot()))
        assert round_tripped["counters"]["c_total"] == 1

    def test_global_registry_is_injectable(self):
        original = get_registry()
        replacement = MetricsRegistry()
        set_registry(replacement)
        try:
            assert get_registry() is replacement
        finally:
            set_registry(original)

    def test_null_registry_forgets_everything(self):
        counter = NULL_REGISTRY.counter("ignored_total")
        counter.inc(100)
        assert counter.value == 0.0
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(1.0)
        with NULL_REGISTRY.span("nothing"):
            pass
        snapshot = NULL_REGISTRY.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}


class TestMergeSnapshot:
    def test_counters_sum_gauges_overwrite_histograms_merge(self):
        left_registry = MetricsRegistry()
        left_registry.counter("c_total").inc(2)
        left_registry.gauge("g").set(1)
        left_registry.histogram("h_seconds", buckets=[1.0]).observe(0.5)
        right_registry = MetricsRegistry()
        right_registry.counter("c_total").inc(3)
        right_registry.gauge("g").set(9)
        right_registry.histogram("h_seconds", buckets=[1.0]).observe(2.0)

        merged = merge_snapshot(left_registry.snapshot(), right_registry.snapshot())
        assert merged["counters"]["c_total"] == 5
        assert merged["gauges"]["g"] == 9
        histogram = merged["histograms"]["h_seconds"]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(2.5)
        assert histogram["buckets"] == {"1": 1, "+Inf": 2}
        # Percentiles are recomputed from the merged buckets.
        assert histogram["p50"] == 1.0


class TestExposition:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "requests_total", help="Requests served.", labels={"endpoint": "/search"}
        ).inc(5)
        registry.gauge("lag_commits", help="Replica lag.", labels={"replica": "0"}).set(2)
        histogram = registry.histogram(
            "latency_seconds", help="Latency.", labels={"endpoint": "/search"}
        )
        for value in (0.0001, 0.002, 0.03, 120.0):
            histogram.observe(value)
        return registry

    def test_render_parses_and_histograms_are_consistent(self):
        registry = self.make_registry()
        parsed = parse(registry.render())
        validate_histograms(parsed)
        assert parsed.types["requests_total"] == "counter"
        assert parsed.types["lag_commits"] == "gauge"
        assert parsed.types["latency_seconds"] == "histogram"
        assert parsed.helps["requests_total"] == "Requests served."
        assert parsed.value("requests_total", endpoint="/search") == 5
        assert parsed.value("lag_commits", replica="0") == 2
        assert parsed.value("latency_seconds_count", endpoint="/search") == 4
        # The 120s observation lands beyond the largest finite bound.
        assert parsed.value("latency_seconds_bucket", endpoint="/search", le="60") == 3
        assert parsed.value("latency_seconds_bucket", endpoint="/search", le="+Inf") == 4

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        nasty = 'quote " backslash \\ newline \n end'
        registry.counter("escaped_total", labels={"query": nasty}).inc()
        parsed = parse(registry.render())
        assert parsed.value("escaped_total", query=nasty) == 1

    def test_render_snapshot_matches_registry_render(self):
        registry = self.make_registry()
        assert render_snapshot(registry.snapshot()) == registry.render()

    def test_bucket_lines_are_cumulative_and_sorted(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        lines = registry.render().splitlines()
        bucket_lines = [line for line in lines if line.startswith("h_seconds_bucket")]
        values = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert values == [1, 2, 3, 4]
        assert bucket_lines[-1].startswith('h_seconds_bucket{le="+Inf"}')

    def test_format_snapshot_mentions_every_series(self):
        registry = self.make_registry()
        text = format_snapshot(registry.snapshot())
        assert 'requests_total{endpoint="/search"}' in text
        assert "p95" in text
        assert format_snapshot(MetricsRegistry().snapshot()) == "(empty metrics snapshot)\n"


class TestProcessMemory:
    """``process_memory``: /proc first, the getrusage peak next, else nothing."""

    @staticmethod
    def _no_proc(monkeypatch):
        import repro.obs.process as process_module

        def missing(*args, **kwargs):
            raise FileNotFoundError("/proc/self/status")

        monkeypatch.setattr(process_module, "open", missing, raising=False)

    def test_reads_resident_and_peak(self):
        memory = process_memory()
        assert set(memory) == {"resident_bytes", "peak_resident_bytes"}
        assert 0 < memory["resident_bytes"] <= memory["peak_resident_bytes"]

    def test_without_proc_only_the_rusage_peak(self, monkeypatch):
        self._no_proc(monkeypatch)
        memory = process_memory()
        assert set(memory) == {"peak_resident_bytes"}
        assert memory["peak_resident_bytes"] > 0

    def test_without_either_source_nothing_is_reported(self, monkeypatch):
        self._no_proc(monkeypatch)
        monkeypatch.setitem(sys.modules, "resource", None)  # import resource -> ImportError
        assert process_memory() == {}
        registry = MetricsRegistry()
        register_process_gauges(registry)
        assert registry.snapshot()["gauges"] == {}

    def test_gauges_read_at_collection_time(self):
        registry = MetricsRegistry()
        register_process_gauges(registry)
        gauges = registry.snapshot()["gauges"]
        assert set(gauges) == {"process_resident_bytes", "process_peak_resident_bytes"}
        assert 0 < gauges["process_resident_bytes"] <= gauges["process_peak_resident_bytes"]
        parsed = parse(registry.render())
        assert parsed.types["process_resident_bytes"] == "gauge"
        assert parsed.types["process_peak_resident_bytes"] == "gauge"


class TestConcurrency:
    @settings(deadline=None, max_examples=15)
    @given(
        num_threads=st.integers(min_value=2, max_value=8),
        increments=st.integers(min_value=1, max_value=200),
    )
    def test_no_lost_counter_increments(self, num_threads, increments):
        registry = MetricsRegistry()
        counter = registry.counter("hammered_total")
        start = threading.Barrier(num_threads)

        def worker():
            start.wait()
            for _ in range(increments):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == num_threads * increments

    @settings(deadline=None, max_examples=15)
    @given(
        num_threads=st.integers(min_value=2, max_value=8),
        observations=st.integers(min_value=1, max_value=100),
    )
    def test_no_lost_histogram_observations(self, num_threads, observations):
        registry = MetricsRegistry()
        histogram = registry.histogram("hammered_seconds", buckets=[0.5])
        start = threading.Barrier(num_threads)

        def worker(offset):
            start.wait()
            for index in range(observations):
                histogram.observe(0.1 if (index + offset) % 2 else 0.9)

        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = num_threads * observations
        assert histogram.count == total
        snapshot = histogram.snapshot()
        assert snapshot["buckets"]["+Inf"] == total
        parsed = parse(render_snapshot(registry.snapshot()))
        validate_histograms(parsed)
