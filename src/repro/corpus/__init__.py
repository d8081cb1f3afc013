"""Synthetic shopping-corpus substrate.

The paper's evaluation uses the Bing Shopping catalog and offer feeds
(856,781 offers, 1,143 merchants, 498 categories), which are proprietary.
This package is the faithful substitute: a deterministic, seedable
generator that produces

* a catalog taxonomy with the same four top-level departments the paper
  reports on (Computing, Cameras, Home Furnishings, Kitchen & Housewares)
  and realistic leaf categories beneath them;
* per-category schemas with key attributes (MPN/UPC) and typed attributes;
* catalog products with structured specifications;
* merchants, each with its own *dialect* — attribute-name synonyms, value
  format rewrites, assortment bias and junk attributes;
* offer feeds whose rows carry only title/price/URL/feed-category (like
  paper Figure 3);
* merchant landing pages (HTML) embedding the offer specification in a
  table, plus noise tables and non-table layouts;
* historical offer-to-product matches for the products already present in
  the catalog;
* complete ground truth (true product behind every offer, true catalog
  attribute behind every merchant alias) so that evaluation does not need
  manual labelling.

The generator's knobs reproduce the structural properties the paper's
algorithms rely on rather than any particular absolute numbers.
"""

from repro._lazy import lazy_exports

# Resolved on first access: ``CorpusPreset`` must not load the generator.
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.corpus.config": ("CorpusConfig", "CorpusPreset"),
        "repro.corpus.generator": ("CorpusGenerator", "SyntheticCorpus"),
        "repro.corpus.ground_truth": ("GroundTruth",),
        "repro.corpus.landing_pages": ("LandingPageRenderer",),
        "repro.corpus.merchants": ("MerchantDialect", "MerchantDialectFactory"),
        "repro.corpus.webstore": ("WebStore",),
    },
)
