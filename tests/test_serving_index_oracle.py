"""The compact-document index against the index it replaced.

:mod:`index_oracle` keeps the former :class:`CatalogIndex` — one joined
text, one term-frequency dict and one set of filter pairs per document,
a ``SearchResult`` per scored document before a full sort.  Random
``upsert`` / ``remove`` / rebuild sequences over hand-built products
(untokenisable text, repeated tokens, re-fused products that keep their
id, attribute names in varying case) are applied to both, and after
every step searches (scores compared with ``==``), point lookups, facets
and statistics must agree.  Published versions get the same check: every
version derived by a random delta answers like the oracle at its own
commit, and still does after later versions were derived from it.  A
relative memory guard measures both indexes over the SMALL corpus's
synthesized products in the same test, so the bound does not depend on
the interpreter's object sizes.
"""

import gc
import tracemalloc

import index_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.config import CorpusPreset
from repro.experiments.harness import ExperimentHarness
from repro.model.attributes import Specification
from repro.model.products import Product
from repro.serving import CatalogIndex
from repro.text.tokenize import tokenize_title

#: The new index's traced bytes must stay at or below this share of the oracle's.
MEMORY_RATIO_CEILING = 0.75

WORDS = ["seagate", "Barracuda", "500GB", "3.5", "drive", "DRIVE", "wd", "raptor", "sata-300"]
NAMES = ["Brand", "brand", "BRAND ", "Capacity", "Mfr. Part #"]
VALUES = ["Seagate", "SEAGATE", "500 GB", "3.5\"", "---", ""]
CATEGORIES = ["computing.hdd", "computing.ssd", "cameras.dslr"]
#: A small id space, so upserts keep replacing (re-fusing) the same ids.
PRODUCT_IDS = [f"p-{number}" for number in range(6)]

titles = st.one_of(
    st.just(""),
    st.just("??? --- !!!"),
    st.lists(st.sampled_from(WORDS), max_size=7).map(" ".join),
)
products = st.builds(
    lambda product_id, category, title, pairs: Product(
        product_id=product_id,
        category_id=category,
        title=title,
        specification=Specification(pairs),
    ),
    st.sampled_from(PRODUCT_IDS),
    st.sampled_from(CATEGORIES),
    titles,
    st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(VALUES)), max_size=4),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), products),
        st.tuples(st.just("remove"), st.sampled_from(PRODUCT_IDS + ["no-such-id"])),
        st.tuples(st.just("rebuild"), st.lists(products, max_size=5)),
    ),
    min_size=1,
    max_size=12,
)

QUERIES = ["seagate", "drive drive 500gb", "3.5 sata", "raptor wd seagate", "zzzunknown", "---"]
FILTERS = [
    {},
    {"category": "computing.hdd"},
    {"attributes": {"brand": "seagate"}},
    {"category": "computing.ssd", "attributes": {"Capacity": "500 gb"}},
    {"attributes": {"Brand": "NoSuchBrand"}},
]


def assert_agrees(index, oracle):
    assert index.stats() == oracle.stats()
    assert index.num_products == oracle.num_products
    assert index.vocabulary_size == oracle.vocabulary_size
    assert index.count_by_category() == oracle.count_by_category()
    for product_id in PRODUCT_IDS + ["no-such-id"]:
        assert index.get_product(product_id) is oracle.get_product(product_id)
    for query in QUERIES:
        for filters in FILTERS:
            for top_k in (1, 3, 10):
                assert index.search(query, top_k=top_k, **filters) == oracle.search(
                    query, top_k=top_k, **filters
                )


@settings(max_examples=60, deadline=None)
@given(initial=st.lists(products, max_size=5), steps=operations)
def test_every_step_agrees_with_the_former_index(initial, steps):
    index = CatalogIndex(initial)
    oracle = index_oracle.CatalogIndex(initial)
    assert_agrees(index, oracle)
    for action, argument in steps:
        if action == "upsert":
            index.upsert(argument)
            oracle.upsert(argument)
        elif action == "remove":
            assert index.remove(argument) == oracle.remove(argument)
        else:  # the full-rebuild fallback: a fresh index over the snapshot
            index = CatalogIndex(argument)
            oracle.rebuild(argument)
        assert_agrees(index, oracle)


def answers(index):
    """Every search, lookup, facet and statistic ``assert_agrees`` compares."""
    return (
        index.stats(),
        index.count_by_category(),
        [index.get_product(product_id) for product_id in PRODUCT_IDS + ["no-such-id"]],
        [
            index.search(query, top_k=top_k, **filters)
            for query in QUERIES
            for filters in FILTERS
            for top_k in (1, 3, 10)
        ],
    )


deltas = st.lists(
    st.lists(
        st.one_of(
            st.tuples(st.just("upsert"), products),
            st.tuples(st.just("remove"), st.sampled_from(PRODUCT_IDS + ["no-such-id"])),
        ),
        max_size=4,
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(initial=st.lists(products, max_size=5), commits=deltas)
def test_every_published_version_answers_like_the_oracle_at_its_commit(initial, commits):
    oracle = index_oracle.CatalogIndex(initial)
    versions = [CatalogIndex(initial).publish()]
    assert_agrees(versions[0], oracle)
    answered = [answers(versions[0])]
    for delta in commits:
        version = versions[-1].derive()
        for action, argument in delta:
            if action == "upsert":
                version.upsert(argument)
                oracle.upsert(argument)
            else:
                assert version.remove(argument) == oracle.remove(argument)
        versions.append(version.publish())
        assert_agrees(version, oracle)
        answered.append(answers(version))
    # Deriving never wrote to a published version: each one, its caches
    # warm or cold, still answers exactly as it did at its own commit.
    for version, expected in zip(versions, answered):
        assert answers(version) == expected
    with pytest.raises(RuntimeError, match="immutable"):
        versions[0].upsert(Product(product_id="p-0", category_id=CATEGORIES[0], title="wd"))
    with pytest.raises(RuntimeError, match="immutable"):
        versions[0].remove("p-0")


def test_scores_equal_the_oracle_bit_for_bit(small_products):
    """The per-version IDF table changes no score, cold or warm, by a single bit."""
    half = len(small_products) // 2
    oracle = index_oracle.CatalogIndex(small_products[:half])
    version = CatalogIndex(small_products[:half]).publish().derive()
    for product in small_products[half:]:
        version.upsert(product)
        oracle.upsert(product)
    for product in small_products[: half // 2]:
        assert version.remove(product.product_id) == oracle.remove(product.product_id)
    version.publish()
    queries = [" ".join(tokenize_title(product.title)[:3]) for product in small_products[::5]]
    for _ in range(2):  # cold tables, then warm ones
        for query in queries:
            expected = [
                (result.product.product_id, result.score.hex())
                for result in oracle.search(query, top_k=10)
            ]
            assert [
                (result.product.product_id, result.score.hex())
                for result in version.search(query, top_k=10)
            ] == expected


def traced_bytes(build, products):
    """Bytes still allocated after ``build(products)``, the products excluded."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build(products)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del built
    return allocated


@pytest.fixture(scope="module")
def small_products():
    return list(ExperimentHarness(CorpusPreset.SMALL.config()).synthesis_result.products)


def test_small_corpus_index_is_smaller_and_answers_the_same(small_products):
    # One build of each first: the bytes compared are what one more index
    # costs in a process that already serves one (a fleet's replicas, a
    # full resync), not the bounded caches and the interned-string table
    # that every index of the process shares.
    index_oracle.CatalogIndex(small_products)
    CatalogIndex(small_products)
    index_bytes = traced_bytes(CatalogIndex, small_products)
    oracle_bytes = traced_bytes(index_oracle.CatalogIndex, small_products)
    assert index_bytes <= MEMORY_RATIO_CEILING * oracle_bytes, (index_bytes, oracle_bytes)

    index = CatalogIndex(small_products)
    oracle = index_oracle.CatalogIndex(small_products)
    assert index.stats() == oracle.stats()
    for product in small_products[::7]:
        tokens = tokenize_title(product.title)
        query = " ".join(tokens[:3])
        assert index.search(query, top_k=10) == oracle.search(query, top_k=10)
        assert index.search(query, top_k=5, category=product.category_id) == oracle.search(
            query, top_k=5, category=product.category_id
        )
