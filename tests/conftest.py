"""Shared pytest fixtures.

The expensive artefacts (corpus generation, offline learning, synthesis)
are session-scoped so the whole suite pays for them once.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.corpus.config import CorpusPreset
from repro.corpus.generator import CorpusGenerator
from repro.evaluation.oracle import EvaluationOracle
from repro.experiments.harness import ExperimentHarness
from repro.extraction.extractor import WebPageAttributeExtractor
from repro.model.attributes import Specification
from repro.model.catalog import Catalog
from repro.model.matches import MatchStore, OfferProductMatch
from repro.model.merchants import Merchant
from repro.model.offers import Offer
from repro.model.products import Product
from repro.model.schema import AttributeKind, CategorySchema
from repro.model.taxonomy import Taxonomy
from repro.runtime import StagedBatch
from repro.runtime.store.sqlite import SqliteCatalogStore
from repro.text.divergence import MAX_JS_DIVERGENCE, _as_distribution, kl_divergence
from repro.text.memo import cached_normalize_value, cached_tokenize_value


# Re-exported so test modules share the canonical byte-identity oracle.
from repro.model.products import product_fingerprint  # noqa: E402,F401


def run_in_fresh_interpreter(code: str, **environment: str) -> str:
    """Run ``code`` in a new interpreter over this checkout's ``src``; returns stdout.

    For what only a fresh process can show: what importing the package
    pulls in, and results that must not depend on ``PYTHONHASHSEED``.
    """
    source_root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=source_root, **environment),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def reference_jensen_shannon(p, q, base: float = 2.0) -> float:
    """The JS divergence by its definition: two KLs against ``p.mixture(q)``, clamped.

    The equivalence tests hold :func:`repro.text.divergence.jensen_shannon_divergence`
    to ``==`` with this.
    """
    p, q = _as_distribution(p), _as_distribution(q)
    if p.is_empty() or q.is_empty():
        return MAX_JS_DIVERGENCE
    mixture = p.mixture(q, weight=0.5)
    value = 0.5 * kl_divergence(p, mixture, base=base) + 0.5 * kl_divergence(q, mixture, base=base)
    return min(max(value, 0.0), MAX_JS_DIVERGENCE)


def reference_centroid_select(values):
    """Appendix A's centroid vote by its definition: one binary term vector per value.

    Every token-bearing value becomes a 0/1 vector over the first-seen
    vocabulary, the centroid is their mean, and the value with the least
    ``(Euclidean distance, -terms, normalised value)`` wins, first listed on
    a full tie.  The equivalence tests hold
    :meth:`repro.synthesis.fusion.CentroidValueFusion.select` to ``==`` with this.
    """
    if not values:
        return None
    tokenised = []
    vocabulary = []
    seen_terms = set()
    for value in values:
        tokens = cached_tokenize_value(value)
        if not tokens:
            continue
        tokenised.append((value, tokens))
        for token in tokens:
            if token not in seen_terms:
                seen_terms.add(token)
                vocabulary.append(token)
    if not tokenised:
        return None
    if len(tokenised) == 1:
        return tokenised[0][0]
    index_of = {term: position for position, term in enumerate(vocabulary)}
    vectors = []
    for value, tokens in tokenised:
        vector = [0.0] * len(vocabulary)
        for token in tokens:
            vector[index_of[token]] = 1.0
        vectors.append((value, vector))
    centroid = [
        sum(vector[position] for _, vector in vectors) / len(vectors)
        for position in range(len(vocabulary))
    ]

    def distance(vector):
        return math.sqrt(
            sum((component - centroid[position]) ** 2 for position, component in enumerate(vector))
        )

    ranked = sorted(
        vectors,
        key=lambda item: (distance(item[1]), -sum(item[1]), cached_normalize_value(item[0])),
    )
    return ranked[0][0]


def put(store, key, product):
    """Apply one staged batch to ``store``: cluster ``(category, key)`` now holds ``product``.

    A title stands for a product: a hard drive with id ``id-<key>``.
    """
    if isinstance(product, str):
        product = Product(
            product_id=f"id-{key}",
            category_id="computing.hdd",
            title=product,
            specification=Specification([]),
        )
    cluster_id = (product.category_id, key)
    store.apply(
        StagedBatch(
            clusters=[] if store.get_cluster(cluster_id) else [cluster_id],
            products={cluster_id: product},
        )
    )


def write_store(path, products):
    """Commit ``products`` into a new store file at ``path``, in one commit; returns ``path``.

    What the serving stack serves when a test has a hand-built catalog:
    each product is its own cluster, keyed by its id.
    """
    store = SqliteCatalogStore(str(path))
    try:
        for product in products:
            put(store, product.product_id, product)
    finally:
        store.close()  # the one commit
    return str(path)


#: Seconds a test's leftover ``multiprocessing`` children get to exit on their own.
CHILD_EXIT_GRACE_S = 3.0


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a ``multiprocessing`` child it started running.

    Children alive before the test are not its own.  The rest get a short
    join (a node that was just asked to shut down may still be exiting);
    whatever is still alive after it is killed, so later tests start
    clean, and the test fails naming it.
    """
    before = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + CHILD_EXIT_GRACE_S
    leftover = []
    for child in multiprocessing.active_children():
        if child in before:
            continue
        child.join(timeout=max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            leftover.append(f"{child.name} (pid {child.pid})")
            child.kill()
            child.join(timeout=10)
    if leftover:
        pytest.fail(f"the test left processes running: {', '.join(leftover)}")


@pytest.fixture(scope="session")
def tiny_corpus():
    """A tiny synthetic corpus shared across the test session."""
    return CorpusGenerator.from_preset(CorpusPreset.TINY).generate()


@pytest.fixture(scope="session")
def tiny_harness():
    """An experiment harness over the tiny corpus (lazily computed artefacts)."""
    return ExperimentHarness(CorpusPreset.TINY.config())


@pytest.fixture(scope="session")
def tiny_extractor(tiny_corpus):
    """A web-page attribute extractor bound to the tiny corpus."""
    return WebPageAttributeExtractor(tiny_corpus.web)


@pytest.fixture(scope="session")
def tiny_oracle(tiny_corpus):
    """An evaluation oracle over the tiny corpus."""
    return EvaluationOracle(
        tiny_corpus.ground_truth,
        taxonomy=tiny_corpus.catalog.taxonomy,
        offer_merchants={offer.offer_id: offer.merchant_id for offer in tiny_corpus.offers},
    )


# --- hand-built micro fixtures (hard drives example from the paper) ----------


@pytest.fixture
def hdd_taxonomy() -> Taxonomy:
    """A two-node taxonomy: Computing > Hard Drives."""
    taxonomy = Taxonomy()
    taxonomy.add_category("computing", "Computing")
    taxonomy.add_category("computing.hdd", "Hard Drives", parent_id="computing")
    return taxonomy


@pytest.fixture
def hdd_catalog(hdd_taxonomy) -> Catalog:
    """A miniature hard-drive catalog mirroring the paper's Figure 5 example."""
    catalog = Catalog(hdd_taxonomy)
    schema = CategorySchema("computing.hdd")
    schema.add_attribute("Model Part Number", AttributeKind.IDENTIFIER, is_key=True)
    schema.add_attribute("Brand", AttributeKind.CATEGORICAL)
    schema.add_attribute("Model", AttributeKind.TEXT)
    schema.add_attribute("Speed", AttributeKind.NUMERIC, unit="rpm")
    schema.add_attribute("Interface", AttributeKind.CATEGORICAL)
    catalog.register_schema(schema)
    catalog.register_merchant(Merchant("m-1", "Microwarehouse"))

    rows = [
        ("p-1", "Seagate", "Barracuda", "5400", "ATA 100", "SGT001AA"),
        ("p-2", "Western Digital", "Raptor", "7200", "IDE 133", "WDC002BB"),
        ("p-3", "Seagate", "Momentus", "5400", "IDE 133", "SGT003CC"),
        ("p-4", "Hitachi", "39T2525", "7200", "ATA 133", "HIT004DD"),
        ("p-5", "Hitachi", "38L2392", "10000", "SCSI", "HIT005EE"),
    ]
    for product_id, brand, model, speed, interface, mpn in rows:
        catalog.add_product(
            Product(
                product_id=product_id,
                category_id="computing.hdd",
                title=f"{brand} {model} hard drive",
                specification=Specification(
                    [
                        ("Model Part Number", mpn),
                        ("Brand", brand),
                        ("Model", model),
                        ("Speed", speed),
                        ("Interface", interface),
                    ]
                ),
            )
        )
    return catalog


@pytest.fixture
def hdd_offers() -> list:
    """Merchant offers matching products p-1..p-4 (p-5 has no offer)."""
    specs = [
        ("o-1", "Seagate Barracuda HD", "SGT001AA", "5400", "ATA 100 mb/s"),
        ("o-2", "WD Raptor HDD", "WDC002BB", "7200", "IDE 133 mb/s"),
        ("o-3", "Seagate Momentus", "SGT003CC", "5400", "IDE 133 mb/s"),
        ("o-4", "Hitachi model 39T2525", "HIT004DD", "7200", "ATA 133 mb/s"),
    ]
    offers = []
    for offer_id, title, mpn, rpm, interface in specs:
        offers.append(
            Offer(
                offer_id=offer_id,
                merchant_id="m-1",
                title=title,
                price=99.0,
                url=f"http://merchant.example.com/{offer_id}",
                specification=Specification(
                    [
                        ("Mfr. Part #", mpn),
                        ("Product Description", title),
                        ("RPM", rpm),
                        ("Int. Type", interface),
                    ]
                ),
            )
        )
    return offers


@pytest.fixture
def hdd_matches(hdd_offers) -> MatchStore:
    """Historical matches pairing o-N with p-N."""
    store = MatchStore()
    for index, offer in enumerate(hdd_offers, start=1):
        store.add(OfferProductMatch(offer.offer_id, f"p-{index}", method="manual"))
    return store
