"""Observability guard: instrumentation costs < 5% engine throughput.

The same serial workload — 1,000 feed-ordered offers in 5 micro-batches
through one :class:`~repro.runtime.SynthesisEngine` — runs with the
no-op ``NULL_REGISTRY`` injected (counters/spans become method calls
that record nothing) and with a live registry.  Runs alternate and each
side keeps its best of 21, so machine noise hits both equally; the
guard then bounds the *relative* cost of recording metrics, which is
what the <5% acceptance criterion of docs/observability.md is about.
Serial execution keeps process-pool spin-up out of the measurement.

Twenty-one rounds: since ISSUE 17 a run takes ~0.09 s (0.28 s before),
and a full garbage collection of this process's corpus heap (~0.08 s)
lands in about half of them, so three rounds left a one in ten chance
that every instrumented run caught one (measured once: "37% cost").
Seven rounds still read -5% to +6% on the shared 2-core box (one run in
five over the line at ISSUE 18's commit, two in five here); at 21 the
two sides' best runs are clean ones and eight consecutive readings sat
between -1.4% and +1.4%, for 2.5 s more.

Self-contained on purpose: the gating benchmark (``bench/``) measures
this path's throughput and its own tracing overhead
(``trace.overhead_ratio``), but nothing there swaps the registry out.
"""

import time

from conftest import run_once

from repro.corpus.config import CorpusPreset
from repro.experiments.harness import ExperimentHarness
from repro.model.products import product_fingerprint
from repro.obs import NULL_REGISTRY, get_registry, set_registry
from repro.runtime import SynthesisEngine
from repro.text.memo import clear_text_caches

STREAM_OFFERS = 1_000
STREAM_BATCHES = 5
ROUNDS = 21


def _engine_pass(harness, batches, registry):
    """(offers/s, sorted product fingerprint, registry snapshot) of one pass."""
    previous = set_registry(registry)
    try:
        # Engines resolve their metric handles at construction, so the
        # registry under test must be in place (and empty) before it.
        registry.clear()
        clear_text_caches()
        engine = SynthesisEngine(
            catalog=harness.corpus.catalog,
            correspondences=harness.offline_result.correspondences,
            extractor=harness.extractor,
            category_classifier=harness.category_classifier,
            num_shards=4,
            executor="serial",
        )
        started = time.perf_counter()
        for batch in batches:
            engine.ingest(batch)
        products = engine.products()
        seconds = time.perf_counter() - started
        snapshot = registry.snapshot()
        engine.close()
    finally:
        set_registry(previous)
    return STREAM_OFFERS / seconds, sorted(product_fingerprint(products)), snapshot


def test_bench_runtime_metrics_overhead(benchmark):
    harness = ExperimentHarness(CorpusPreset.SMALL.config(seed=2011))
    # Merchant-feed order: a product's offers arrive spread over the
    # batches, so clusters grow (and are re-fused) across them.
    offers = sorted(
        harness.unmatched_offers[:STREAM_OFFERS], key=lambda offer: offer.merchant_id
    )
    assert len(offers) == STREAM_OFFERS
    size = STREAM_OFFERS // STREAM_BATCHES
    batches = [offers[start : start + size] for start in range(0, STREAM_OFFERS, size)]
    # Materialise setup artefacts outside the measured region.
    _ = harness.offline_result
    _ = harness.category_classifier

    def measure():
        best = {"null": 0.0, "live": 0.0}
        for _ in range(ROUNDS):
            null_rate, null_products, _unused = _engine_pass(harness, batches, NULL_REGISTRY)
            live_rate, live_products, live_snapshot = _engine_pass(
                harness, batches, get_registry()
            )
            # Recording metrics changes how long a pass takes, nothing else.
            assert null_products == live_products
            best["null"] = max(best["null"], null_rate)
            best["live"] = max(best["live"], live_rate)
        return best, live_snapshot

    best, live_snapshot = run_once(benchmark, measure)
    print(
        f"\nmetrics overhead: null {best['null']:.1f} offers/s, "
        f"instrumented {best['live']:.1f} offers/s "
        f"({100.0 * (1.0 - best['live'] / best['null']):.2f}% cost)"
    )
    assert best["live"] >= 0.95 * best["null"], (
        f"instrumentation costs more than 5% throughput: "
        f"{best['live']:.1f} offers/s instrumented vs {best['null']:.1f} null"
    )
    # The null run records nothing, so the live one must carry real series.
    assert live_snapshot["counters"]
    assert any(key.startswith("span_seconds") for key in live_snapshot["histograms"])
