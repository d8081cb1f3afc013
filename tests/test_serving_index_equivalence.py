"""Property-based conformance: incremental maintenance equals a rebuild.

For random document sets drawn from the corpus generator's own
synthesized products (plus hand-built edge cases: diacritics, decimal
sizes, untokenisable titles), a stream of maintenance operations —
interleaved ``upsert``, ``remove`` and journal deltas, applied the way a
serving replica resyncs — is applied to one long-lived
:class:`~repro.serving.index.CatalogIndex`, and after
every step it must be indistinguishable from a fresh
``CatalogIndex(products)`` built from the products it should now hold:
an identical query stream (plain searches, category filters, attribute
filters, varying ``top_k``) returns byte-identical ranked results —
same product ids, same scores, same order.  Facets, point lookups and
statistics must agree too, and shrinking ``top_k`` must be a pure prefix
of the longer ranking (the pagination contract).

This is the invariant every resync path leans on: a replica that caught
up by journal delta serves exactly what one that rebuilt from the
snapshot serves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attributes import Specification
from repro.model.products import Product
from repro.runtime import SynthesisEngine
from repro.serving import CatalogIndex, CatalogSearchService
from repro.synthesis.pipeline import stable_product_id
from repro.text.tokenize import tokenize_title


def make_edge(key, category, title, pairs=()):
    """A ``(cluster id, product)`` entry with the id the engine would give it."""
    product = Product(
        product_id=stable_product_id(category, key),
        category_id=category,
        title=title,
        specification=Specification(list(pairs)),
    )
    return (category, key), product


#: Hand-built adversarial documents: tokenisation edge cases (diacritics
#: the tokeniser folds, decimal tokens, titles that yield no token at
#: all, one token repeated).
EDGE_ENTRIES = [
    make_edge("edge-cafe", "edge.kitchen", "Café crème brûlée maker", [("Brand", "Café")]),
    make_edge("edge-decimal", "edge.hdd", 'Drive 3.5" bay 3 5 adapter', [("Size", '3.5"')]),
    make_edge("edge-empty", "edge.misc", "", []),
    make_edge("edge-punct", "edge.misc", "??? --- !!!", [("Brand", "---")]),
    make_edge("edge-dup", "edge.hdd", "drive drive drive 500 gb drive", [("Capacity", "500 GB")]),
]


@pytest.fixture(scope="module")
def entry_pool(tiny_harness):
    """``(cluster id, product)`` per synthesized cluster, plus edge cases."""
    engine = SynthesisEngine(
        catalog=tiny_harness.corpus.catalog,
        correspondences=tiny_harness.offline_result.correspondences,
        extractor=tiny_harness.extractor,
        category_classifier=tiny_harness.category_classifier,
        num_shards=4,
    )
    try:
        engine.ingest(tiny_harness.unmatched_offers)
        emitted = {
            cluster_id: state.product
            for cluster_id, state in engine.store.iter_clusters()
            if state.product is not None
        }
    finally:
        engine.close()
    assert emitted
    assert all(product.product_id == stable_product_id(*cid) for cid, product in emitted.items())
    return sorted(emitted.items()) + EDGE_ENTRIES


def result_fingerprint(results):
    return tuple((result.product.product_id, result.score) for result in results)


def pool_queries(pool, seeds, include_unknown):
    """The query stream: title spans of the seed products + a miss."""
    queries = []
    for index in seeds:
        product = pool[index][1]
        tokens = tokenize_title(product.title)
        if tokens:
            queries.append(" ".join(tokens[:2]))
            queries.append(tokens[len(tokens) // 2])
        queries.append(product.title)
    if include_unknown:
        queries.append("zzzunknownterm")
    return queries or ["drive"]


def pool_filters(pool, seeds):
    """Category and attribute filters drawn from the seed products."""
    categories = {pool[index][1].category_id for index in seeds}
    categories.add("no.such.category")
    attribute_filters = [{"Brand": "NoSuchBrand"}]
    for index in seeds:
        for pair in list(pool[index][1].specification)[:1]:
            attribute_filters.append({pair.name: pair.value})
    return sorted(categories), attribute_filters


def assert_equals_a_rebuild(maintained, held, queries, categories, attribute_filters):
    """The full conformance battery: ``maintained`` vs ``CatalogIndex(held)``."""
    fresh = CatalogIndex(held.values())
    assert maintained.num_products == fresh.num_products == len(held)
    assert maintained.vocabulary_size == fresh.vocabulary_size
    assert maintained.count_by_category() == fresh.count_by_category()
    assert maintained.stats() == fresh.stats()
    for query in queries:
        full = result_fingerprint(maintained.search(query, top_k=10))
        assert full == result_fingerprint(fresh.search(query, top_k=10))
        # Deterministic order: descending score, product id breaks ties.
        assert list(full) == sorted(full, key=lambda hit: (-hit[1], hit[0]))
        for top_k in (1, 3):
            page = result_fingerprint(maintained.search(query, top_k=top_k))
            assert page == result_fingerprint(fresh.search(query, top_k=top_k))
            # Pagination contract: a shorter page is a pure prefix of
            # the longer ranking (deterministic tie-breaks).
            assert page == full[:top_k]
        for category in categories:
            assert result_fingerprint(
                maintained.search(query, top_k=10, category=category)
            ) == result_fingerprint(fresh.search(query, top_k=10, category=category))
        for attributes in attribute_filters:
            assert result_fingerprint(
                maintained.search(query, top_k=10, attributes=attributes)
            ) == result_fingerprint(fresh.search(query, top_k=10, attributes=attributes))


@st.composite
def scenario(draw, pool_size):
    """An initial document set, an op stream, and query seeds."""
    member = st.integers(0, pool_size - 1)
    initial = draw(st.lists(member, max_size=12, unique=True))
    operations = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["upsert", "remove"]), member),
                # One journal delta: clusters (re-)emitting a product, and
                # clusters a commit left without one.
                st.tuples(
                    st.just("delta"),
                    st.lists(st.tuples(member, st.booleans()), max_size=4),
                ),
            ),
            max_size=8,
        )
    )
    seeds = draw(st.lists(member, min_size=1, max_size=3, unique=True))
    include_unknown = draw(st.booleans())
    return initial, operations, seeds, include_unknown


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_incremental_maintenance_is_byte_identical_to_a_rebuild(entry_pool, data):
    pool = entry_pool
    initial, operations, seeds, include_unknown = data.draw(scenario(len(pool)))
    queries = pool_queries(pool, seeds, include_unknown)
    categories, attribute_filters = pool_filters(pool, seeds)

    #: product id -> product the index must hold after each step.
    held = {pool[index][1].product_id: pool[index][1] for index in initial}
    maintained = CatalogIndex(pool[index][1] for index in initial)
    # The replica's resync path folds journal deltas into the index.
    service = CatalogSearchService(maintained)
    assert_equals_a_rebuild(maintained, held, queries, categories, attribute_filters)
    for action, argument in operations:
        if action == "upsert":
            product = pool[argument][1]
            maintained.upsert(product)
            held[product.product_id] = product
        elif action == "remove":
            product_id = pool[argument][1].product_id
            # The index must agree on whether the id was present.
            assert maintained.remove(product_id) == (held.pop(product_id, None) is not None)
        else:
            changed = [
                (pool[index][0], pool[index][1] if emits else None) for index, emits in argument
            ]
            service._apply_delta(dict(changed))
            for cluster_id, product in changed:  # in order: the last entry wins
                if product is None:
                    held.pop(stable_product_id(*cluster_id), None)
                else:
                    held[product.product_id] = product
        assert_equals_a_rebuild(maintained, held, queries, categories, attribute_filters)
    # Point lookups agree for present and absent ids alike.
    for index in seeds:
        product = pool[index][1]
        hit = maintained.get_product(product.product_id)
        assert (hit is None) == (product.product_id not in held)
        if hit is not None:
            assert hit.product_id == product.product_id
            assert hit.title == product.title
    assert maintained.get_product("no-such-id") is None
    service.close()


def test_rebuild_matches_an_incrementally_grown_index(entry_pool):
    """``rebuild`` over a dirty index equals growing a clean one."""
    pool = [product for _, product in entry_pool[: min(20, len(entry_pool))]]
    grown = CatalogIndex()
    for product in pool:
        grown.upsert(product)
    rebuilt = CatalogIndex(product for _, product in EDGE_ENTRIES)
    rebuilt.rebuild(pool)
    reference = CatalogIndex(pool)
    for query in pool_queries(entry_pool, range(min(4, len(pool))), True):
        expected = result_fingerprint(reference.search(query, top_k=10))
        assert result_fingerprint(grown.search(query, top_k=10)) == expected
        assert result_fingerprint(rebuilt.search(query, top_k=10)) == expected
    assert grown.stats() == rebuilt.stats() == reference.stats()
