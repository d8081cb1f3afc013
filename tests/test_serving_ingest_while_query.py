"""Property-based proof: queries never see a half-applied batch (ISSUE 5).

For random streams and micro-batch splits, engine ingests over a SQLite
store are interleaved with serving-layer queries — and additionally
*inside* the ingest itself, from a store fault hook fired
between the mirror mutations and the commit barrier, where a torn read
would happen if one could.  Every query's full ranked result (ids and
scores) must equal the same query executed against a reference index
built from the products of one exact committed stream prefix:

* queries issued mid-ingest (hook) must serve the *previous* prefix —
  the in-flight batch is mutating the store mirror at that very moment;
* queries issued after the ingest returns must serve the *new* prefix.

The service reads the store file through its own read-only connection,
concurrently with the live writer, and catches up from the store's
commit journal.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import SynthesisEngine
from repro.serving import CatalogIndex, CatalogSearchService
from repro.text.tokenize import tokenize_title

#: Unique sqlite filenames across hypothesis examples (which all share
#: one tmp directory because fixtures are resolved once per test).
_STORE_COUNTER = itertools.count(1)

#: Ranked searches issued at every interleaving point.
TOP_K = 5


def split_batches(stream, cut_points):
    cuts = [0] + sorted(cut_points) + [len(stream)]
    return [stream[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


def engine_kwargs(harness):
    return dict(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
    )


def probe_queries(stream):
    """Deterministic queries drawn from the stream's own titles."""
    queries = []
    for offer in stream[:6]:
        tokens = tokenize_title(offer.title)
        if tokens:
            queries.append(" ".join(tokens[:2]))
    return queries or ["hard drive"]


def run_queries(service, queries):
    """Full ranked fingerprints of every probe query, via the service."""
    return [
        tuple(
            (result.product.product_id, result.score)
            for result in service.search(query, top_k=TOP_K)
        )
        for query in queries
    ]


def reference_answers(products, queries):
    """The same fingerprints against an index of one committed prefix."""
    reference = CatalogIndex(products)
    return [
        tuple(
            (result.product.product_id, result.score)
            for result in reference.search(query, top_k=TOP_K)
        )
        for query in queries
    ]


@st.composite
def stream_and_cuts(draw, max_offers):
    """A random stream (indices, duplicates allowed) plus batch cuts."""
    indices = draw(st.lists(st.integers(0, max_offers - 1), min_size=4, max_size=24))
    cut_points = draw(st.lists(st.integers(1, len(indices) - 1), max_size=3, unique=True))
    return indices, cut_points


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_interleaved_queries_serve_exact_committed_prefixes(
    tiny_harness, tmp_path_factory, data
):
    offers = tiny_harness.unmatched_offers
    indices, cut_points = data.draw(stream_and_cuts(len(offers)))
    stream = [offers[index] for index in indices]
    batches = split_batches(stream, cut_points)
    queries = probe_queries(stream)

    store_dir = tmp_path_factory.mktemp("serving")
    store_path = str(store_dir / f"catalog-{next(_STORE_COUNTER)}.sqlite3")
    engine = SynthesisEngine(
        store="sqlite",
        store_path=store_path,
        **engine_kwargs(tiny_harness),
    )
    service = CatalogSearchService.from_store_path(store_path)

    #: Query fingerprints captured *inside* each ingest by the fault
    #: hook, to be checked against the pre-ingest prefix afterwards.
    mid_ingest_observations = []

    def query_mid_ingest(operation):
        # set_product fires after the batch mutated the mirror but
        # before the commit barrier — the exact window where a torn
        # read would be visible if isolation were broken.  One probe
        # per ingest keeps the example cheap.
        if operation == "set_product" and not hook_fired[0]:
            hook_fired[0] = True
            mid_ingest_observations.append(
                (service.snapshot_commit_count, run_queries(service, queries))
            )

    engine.store.set_fault_hook(query_mid_ingest)
    previous_products = list(engine.products())
    try:
        for batch in batches:
            hook_fired = [False]
            engine.ingest(batch)
            committed_products = list(engine.products())

            # Mid-ingest queries saw exactly the previous committed prefix.
            if hook_fired[0]:
                seen_snapshot, seen_answers = mid_ingest_observations[-1]
                assert seen_snapshot == engine.store.commit_count - 1
                assert seen_answers == reference_answers(previous_products, queries)

            # Post-ingest queries see exactly the new committed prefix.
            answers = run_queries(service, queries)
            assert service.snapshot_commit_count == engine.store.commit_count
            assert answers == reference_answers(committed_products, queries)
            previous_products = committed_products
    finally:
        engine.store.set_fault_hook(None)
        service.close()
        engine.close()
