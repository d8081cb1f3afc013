"""Tests for the experiment drivers and the CLI (on the tiny corpus)."""

import pytest

from repro.corpus.config import CorpusPreset
from repro.experiments import figure6, figure7, table2, table3, table4
from repro.experiments.cli import EXPERIMENTS, main
from repro.experiments.figures_common import (
    FigureResult,
    FigureSeries,
    build_series,
    count_correct,
    filter_to_categories,
    reference_coverage_for,
)
from repro.experiments.harness import get_harness


class TestHarness:
    def test_memoised_harness(self):
        first = get_harness(CorpusPreset.TINY, seed=2011)
        second = get_harness(CorpusPreset.TINY, seed=2011)
        assert first is second

    def test_computing_category_ids(self, tiny_harness):
        ids = tiny_harness.computing_category_ids()
        assert ids
        assert all(category_id.startswith("computing") for category_id in ids)

    def test_artifacts_cached(self, tiny_harness):
        assert tiny_harness.corpus is tiny_harness.corpus
        assert tiny_harness.offline_result is tiny_harness.offline_result
        assert tiny_harness.synthesis_result is tiny_harness.synthesis_result


class TestTableExperiments:
    def test_table2_counts_consistent(self, tiny_harness):
        result = table2.run(tiny_harness)
        assert result.input_offers == len(tiny_harness.unmatched_offers)
        assert result.synthesized_products > 0
        assert result.synthesized_attributes >= result.synthesized_products
        assert 0.0 < result.attribute_precision <= 1.0
        assert 0.0 < result.product_precision <= 1.0
        assert result.attribute_precision >= result.product_precision
        assert "Table 2" in result.to_text()

    def test_table3_rows_cover_synthesized_categories(self, tiny_harness):
        result = table3.run(tiny_harness)
        assert result.rows
        top_levels = {row.top_level_id for row in result.rows}
        taxonomy = tiny_harness.corpus.catalog.taxonomy
        expected = {
            taxonomy.top_level_of(product.category_id).category_id
            for product in tiny_harness.synthesis_result.products
        }
        assert top_levels == expected
        assert "Table 3" in result.to_text()

    def test_table4_strata_partition_products(self, tiny_harness):
        result = table4.run(tiny_harness, offer_threshold=4)
        total = result.large_offer_sets.num_products + result.small_offer_sets.num_products
        assert total == tiny_harness.synthesis_result.num_products()
        assert "Table 4" in result.to_text()

    def test_table4_invalid_threshold(self, tiny_harness):
        with pytest.raises(ValueError):
            table4.run(tiny_harness, offer_threshold=1)


class TestFigureExperiments:
    def test_figure6_series_and_reference(self, tiny_harness):
        result = figure6.run(tiny_harness)
        assert set(result.series) == {
            figure6.SERIES_OUR_APPROACH,
            figure6.SERIES_JS_MC,
            figure6.SERIES_JACCARD_MC,
        }
        assert result.comparison_coverage() >= 20
        comparison = result.precision_comparison()
        assert all(0.0 <= value <= 1.0 for value in comparison.values())
        assert "Figure 6" in result.to_text()

    def test_figure7_restricted_to_computing(self, tiny_harness):
        result = figure7.run(tiny_harness)
        ours = result.get(figure7.SERIES_OUR_APPROACH)
        assert ours.num_candidates > 0
        baseline = result.get(figure7.SERIES_NO_MATCHING)
        assert baseline.num_candidates > 0

    def test_series_precision_and_coverage_helpers(self, tiny_harness, tiny_oracle):
        scored = tiny_harness.offline_result.scored_candidates
        series = build_series("ours", scored, tiny_oracle)
        assert series.max_coverage() == len(series.labels)
        assert series.precision_at(10) is not None
        assert series.coverage_at_precision(0.0) == series.max_coverage()
        empty = FigureSeries("empty", [], 0)
        assert empty.precision_at(5) is None
        assert empty.max_coverage() == 0

    def test_filter_to_categories(self, tiny_harness):
        scored = tiny_harness.offline_result.scored_candidates
        computing = tiny_harness.computing_category_ids()
        filtered = filter_to_categories(scored, computing)
        assert all(item.candidate.category_id in set(computing) for item in filtered)
        assert filter_to_categories(scored, []) == list(scored)

    def test_reference_coverage_positive(self, tiny_harness, tiny_oracle):
        scored = tiny_harness.offline_result.scored_candidates
        assert count_correct(scored, tiny_oracle) > 0
        assert reference_coverage_for(scored, tiny_oracle) >= 20
        with pytest.raises(ValueError):
            reference_coverage_for(scored, tiny_oracle, fraction=0.0)

    def test_figure_result_comparison_fallback(self):
        result = FigureResult(title="x")
        assert result.common_coverage() == 0
        assert result.precision_comparison() == {}


class TestCli:
    def test_registry_contains_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "table2",
            "table3",
            "table4",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
        }

    def test_cli_runs_single_table_experiment(self, capsys):
        exit_code = main(["--preset", "tiny", "--experiments", "table2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 2" in captured.out
        assert "corpus preset: tiny" in captured.out
