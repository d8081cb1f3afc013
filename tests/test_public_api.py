"""Tests for the top-level public API (`repro.synthesize_catalog`)."""

from conftest import run_in_fresh_interpreter

import repro
from repro.corpus.config import CorpusPreset


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_synthesize_catalog_end_to_end(self):
        outcome = repro.synthesize_catalog(preset=CorpusPreset.TINY, seed=77)
        assert outcome.corpus.summary()["offers"] > 0
        assert outcome.offline.num_accepted() > 0
        assert outcome.synthesis.num_products() > 0
        assert outcome.evaluation.attribute_precision > 0.6
        # Synthesized products only use catalog-schema attribute names.
        catalog = outcome.corpus.catalog
        for product in outcome.synthesis.products[:20]:
            schema = catalog.schema_for(product.category_id)
            assert all(schema.has_attribute(name) for name in product.attribute_names())

    def test_synthesize_catalog_deterministic(self):
        first = repro.synthesize_catalog(preset=CorpusPreset.TINY, seed=5)
        second = repro.synthesize_catalog(preset=CorpusPreset.TINY, seed=5)
        assert first.synthesis.num_products() == second.synthesis.num_products()
        assert first.evaluation.attribute_precision == second.evaluation.attribute_precision

    def test_importing_the_package_does_not_import_scipy(self):
        # scipy.optimize is ~50 MiB resident and only the DUMAS baseline's
        # exact matcher needs it; every CLI start, cluster node and serving
        # child imports these modules, so it must stay a call-time import.
        run_in_fresh_interpreter(
            "import sys; import repro.experiments.cli, repro.runtime, repro.serving; "
            "assert 'scipy' not in sys.modules, 'scipy imported at package import'"
        )
