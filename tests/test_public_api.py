"""Tests for the top-level public API (`repro.synthesize_catalog`) and the import surface."""

import importlib
import pathlib
import re

import pytest
from conftest import run_in_fresh_interpreter

import repro
from repro.corpus.config import CorpusPreset

#: Packages whose re-exports resolve on first attribute access.
LAZY_PACKAGES = (
    "repro",
    "repro.experiments",
    "repro.runtime",
    "repro.synthesis",
    "repro.matching",
    "repro.learning",
    "repro.corpus",
)

#: What a serving process must never load: numpy, the write path, the
#: learner, the corpus generator and the experiment harness.
NOT_ON_THE_SERVING_PATH = (
    "numpy",
    "repro.runtime.engine",
    "repro.runtime.cluster",
    "repro.runtime.procnode",
    "repro.matching.learner",
    "repro.corpus.generator",
    "repro.experiments.harness",
)


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_matches_pyproject(self):
        # A regex, not tomllib: tomllib is 3.11+ and the package supports 3.9.
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"$', pyproject.read_text("utf-8"), re.MULTILINE)
        assert match is not None
        assert repro.__version__ == match.group(1)

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

    def test_the_serving_path_imports_only_the_read_path(self):
        # What ``python -m repro.experiments.cli runtime-serve`` loads before
        # it opens a store: the query path, never the engine or the learner.
        run_in_fresh_interpreter(
            "import sys; import repro.experiments.cli, repro.serving; "
            f"loaded = [m for m in {NOT_ON_THE_SERVING_PATH!r} if m in sys.modules]; "
            "assert not loaded, loaded"
        )

    def test_importing_the_root_package_does_not_import_numpy(self):
        run_in_fresh_interpreter(
            "import sys; import repro; assert 'numpy' not in sys.modules, 'numpy imported'"
        )

    def test_stable_product_id_is_one_function(self):
        from repro.model.products import stable_product_id
        from repro.synthesis.pipeline import stable_product_id as reexported

        assert reexported is stable_product_id


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyPackages:
    def test_every_exported_name_resolves(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert getattr(package, name) is not None, name
        assert set(package.__all__) <= set(dir(package))

    def test_star_import(self, package_name):
        package = importlib.import_module(package_name)
        namespace = {}
        exec(f"from {package_name} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_unknown_name_is_an_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
