"""Output checks: the benchmark fails when the program's answers are wrong.

* Ingest workloads: every pass's products must be fingerprint-identical
  to one ``ProductSynthesisPipeline.synthesize`` over the fresh offers
  (the one-shot reference both ingest workloads share, which also makes
  ``ingest_cluster`` identical to ``ingest_stream``), and the engine must
  have dropped exactly the offers the generator re-sent.
* Serve workloads: one response in fifty is re-executed against a
  reference ``CatalogIndex`` built from the products of the committed
  prefix the response says it was served from; ids, scores and titles
  must be equal.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench.inputs import TOP_K, Inputs, Request
from bench.ingest import PassResult
from repro.model.persistence import product_to_dict
from repro.model.products import Product, product_fingerprint
from repro.serving.index import CatalogIndex
from repro.synthesis.pipeline import ProductSynthesisPipeline
from repro.text.memo import clear_text_caches

__all__ = ["SAMPLE_EVERY", "reference_products", "check_passes", "check_responses"]

#: One response in this many is kept and re-executed.
SAMPLE_EVERY = 50


def _fingerprint(products: Sequence[Product]) -> List[Tuple[object, ...]]:
    return sorted(product_fingerprint(list(products)))


def reference_products(inputs: Inputs) -> List[Product]:
    """The one-shot pipeline's products over the stream's fresh offers.

    Computed once per set-up and kept on ``inputs``: a traced run checks
    several groups of passes against the same reference.
    """
    if inputs.reference is None:
        clear_text_caches()
        pipeline = ProductSynthesisPipeline(**inputs.engine_kwargs())
        inputs.reference = pipeline.synthesize(inputs.stream.fresh).products
    return inputs.reference


def check_passes(
    passes: Sequence[PassResult], reference: Sequence[Product], resent: int
) -> List[str]:
    """Why any pass's output is wrong (empty when all are right)."""
    expected = _fingerprint(reference)
    problems: List[str] = []
    for number, result in enumerate(passes):
        if result.failed:
            continue  # already counted as failed operations
        if _fingerprint(result.products) != expected:
            problems.append(
                f"pass {number}: {len(result.products)} products differ from the "
                f"one-shot pipeline's {len(reference)}"
            )
        if result.offers_duplicate != resent:
            problems.append(
                f"pass {number}: engine dropped {result.offers_duplicate} duplicates, "
                f"the generator re-sent {resent}"
            )
    return problems


def check_responses(
    samples: Sequence[Tuple[Request, int, Dict[str, object]]],
    products_at: Callable[[int], Optional[Sequence[Product]]],
) -> List[str]:
    """Re-execute sampled responses against per-snapshot reference indexes.

    ``samples`` holds ``(request, reported snapshot, parsed body)``;
    ``products_at(snapshot)`` returns the products of that committed
    prefix (``None`` when no such commit exists — itself a failure).
    """
    problems: List[str] = []
    indexes: Dict[int, Optional[CatalogIndex]] = {}
    for request, snapshot, body in samples:
        if snapshot not in indexes:
            products = products_at(snapshot)
            indexes[snapshot] = None if products is None else CatalogIndex(products)
        index = indexes[snapshot]
        if index is None:
            problems.append(f"{request.path}: served from unknown snapshot {snapshot}")
            continue
        if request.kind == "product":
            product = index.get_product(request.product_id)
            # Through JSON and back, so tuples compare as the lists they
            # are served as.
            expected: object = (
                None if product is None else json.loads(json.dumps(product_to_dict(product)))
            )
            got: object = {
                key: value
                for key, value in body.items()
                if key not in ("snapshot_commit_count", "replica")
            }
        else:
            expected = [
                hit.to_dict()
                for hit in index.search(request.query, top_k=TOP_K, category=request.category)
            ]
            got = body.get("results")
        if got != expected:
            problems.append(f"{request.path}: response differs from snapshot {snapshot}")
    return problems
