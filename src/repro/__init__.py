"""repro — a reproduction of "Synthesizing Products for Online Catalogs".

Nguyen, Fuxman, Paparizos, Freire and Agrawal, PVLDB 4(7), 2011.

The package implements the paper's end-to-end product-synthesis system —
offline learning of attribute correspondences from historical
offer-to-product matches, plus the run-time pipeline (web-page attribute
extraction, schema reconciliation, clustering, value fusion) — together
with every substrate it needs (a synthetic shopping corpus standing in for
the Bing Shopping data, an HTML extraction stack, ML primitives) and every
baseline the paper compares against (single-feature scorers, a no-history
variant, DUMAS, the LSD instance-based Naive Bayes matcher, and
COMA++-style matchers).

Quickstart
----------
>>> from repro import synthesize_catalog
>>> from repro.corpus import CorpusPreset
>>> outcome = synthesize_catalog(preset=CorpusPreset.TINY)
>>> outcome.evaluation.attribute_precision > 0.5
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.corpus.config import CorpusConfig, CorpusPreset

if TYPE_CHECKING:
    from repro.corpus.generator import SyntheticCorpus
    from repro.evaluation.oracle import SynthesisEvaluation
    from repro.matching.learner import OfflineLearningResult
    from repro.synthesis.pipeline import SynthesisResult

__version__ = "1.4.0"

# Resolved on first access: ``import repro`` (which every ``repro.*``
# import runs first) must not load the corpus, the learner or numpy.
_exports, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.corpus.generator": ("CorpusGenerator", "SyntheticCorpus"),
        "repro.evaluation.oracle": ("EvaluationOracle", "SynthesisEvaluation"),
        "repro.extraction.extractor": ("WebPageAttributeExtractor",),
        "repro.matching.learner": ("OfflineLearner", "OfflineLearningResult"),
        "repro.model": ("Catalog", "Offer", "Product"),
        "repro.synthesis.category_classifier": ("TitleCategoryClassifier",),
        "repro.synthesis.pipeline": ("ProductSynthesisPipeline", "SynthesisResult"),
        "repro.runtime.engine": ("SynthesisEngine", "IngestReport", "EngineSnapshot"),
    },
)
__all__ = [
    "CorpusConfig",
    "CorpusPreset",
    *_exports,
    "SynthesisOutcome",
    "synthesize_catalog",
    "__version__",
]


@dataclass
class SynthesisOutcome:
    """Everything produced by :func:`synthesize_catalog`."""

    corpus: SyntheticCorpus
    offline: OfflineLearningResult
    synthesis: SynthesisResult
    evaluation: SynthesisEvaluation


def synthesize_catalog(
    preset: CorpusPreset = CorpusPreset.SMALL, seed: int = 2011
) -> SynthesisOutcome:
    """Run the whole reproduction end to end on a synthetic corpus.

    Generates a corpus, learns attribute correspondences from the
    historical matches, synthesizes products from the unmatched offers and
    evaluates them against the generator's ground truth.  This is the
    one-call entry point used by the quickstart example; the individual
    components are available for finer-grained use.
    """
    from repro.corpus.generator import CorpusGenerator
    from repro.evaluation.oracle import EvaluationOracle
    from repro.extraction.extractor import WebPageAttributeExtractor
    from repro.matching.learner import OfflineLearner
    from repro.synthesis.category_classifier import TitleCategoryClassifier
    from repro.synthesis.pipeline import ProductSynthesisPipeline

    corpus = CorpusGenerator(preset.config(seed=seed)).generate()
    extractor = WebPageAttributeExtractor(corpus.web)

    historical, _ = extractor.extract_offers(corpus.matched_offers())
    offline = OfflineLearner(corpus.catalog).learn(historical, corpus.matches)

    classifier = TitleCategoryClassifier().train_from_history(
        corpus.catalog, historical, corpus.matches
    )
    pipeline = ProductSynthesisPipeline(
        catalog=corpus.catalog,
        correspondences=offline.correspondences,
        extractor=extractor,
        category_classifier=classifier,
    )
    synthesis = pipeline.synthesize(corpus.unmatched_offers())

    oracle = EvaluationOracle(
        corpus.ground_truth,
        taxonomy=corpus.catalog.taxonomy,
        offer_merchants={offer.offer_id: offer.merchant_id for offer in corpus.offers},
    )
    evaluation = oracle.evaluate_products(synthesis.products)
    return SynthesisOutcome(
        corpus=corpus, offline=offline, synthesis=synthesis, evaluation=evaluation
    )
