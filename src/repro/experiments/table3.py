"""Table 3 — Synthesis quality per top-level category.

Paper values (Cameras / Computing / Furnishing / Kitchen):

* average attributes per product: 4.34 / 5.11 / 1.12 / 1.4
* attribute precision:            0.91 / 0.91 / 0.99 / 0.97
* product precision:              0.72 / 0.79 / 0.99 / 0.95

The qualitative claims the reproduction must preserve: Computing/Cameras
products carry more synthesized attributes than Furnishings/Kitchen
products, attribute precision is uniformly high, and the *strict* product
precision is lower for the attribute-rich categories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.corpus.config import CorpusPreset
from repro.evaluation.oracle import SynthesisEvaluation
from repro.evaluation.report import format_table
from repro.experiments.harness import ExperimentHarness, get_harness

__all__ = ["Table3Row", "Table3Result", "run"]

#: Paper values for side-by-side comparison, keyed by top-level category id.
PAPER_VALUES: Dict[str, Dict[str, float]] = {
    "cameras": {"avg_attributes": 4.34, "attribute_precision": 0.91, "product_precision": 0.72},
    "computing": {"avg_attributes": 5.11, "attribute_precision": 0.91, "product_precision": 0.79},
    "furnishings": {"avg_attributes": 1.12, "attribute_precision": 0.99, "product_precision": 0.99},
    "kitchen": {"avg_attributes": 1.4, "attribute_precision": 0.97, "product_precision": 0.95},
}


@dataclass
class Table3Row:
    """One top-level category's aggregated synthesis quality."""

    top_level_id: str
    top_level_name: str
    num_products: int
    avg_attributes_per_product: float
    attribute_precision: float
    product_precision: float


@dataclass
class Table3Result:
    """Measured counterpart of paper Table 3."""

    rows: List[Table3Row]

    def to_text(self) -> str:
        """Human-readable rendering."""
        headers = [
            "Top-level category",
            "Products",
            "Avg Attrs / Product",
            "Attribute precision",
            "Product precision",
        ]
        table_rows = [
            [
                row.top_level_name,
                row.num_products,
                row.avg_attributes_per_product,
                row.attribute_precision,
                row.product_precision,
            ]
            for row in self.rows
        ]
        return format_table(
            headers, table_rows, title="Table 3 — Synthesis per top-level category"
        )


def run(harness: Optional[ExperimentHarness] = None) -> Table3Result:
    """Run the Table 3 experiment."""
    harness = harness or get_harness(CorpusPreset.SMALL)
    taxonomy = harness.corpus.catalog.taxonomy
    per_top_level: Dict[str, SynthesisEvaluation] = harness.oracle.evaluate_by_top_level(
        harness.synthesis_result.products
    )

    rows: List[Table3Row] = []
    for top_level_id in sorted(per_top_level):
        evaluation = per_top_level[top_level_id]
        rows.append(
            Table3Row(
                top_level_id=top_level_id,
                top_level_name=taxonomy.get(top_level_id).name,
                num_products=evaluation.num_products,
                avg_attributes_per_product=evaluation.average_attributes_per_product,
                attribute_precision=evaluation.attribute_precision,
                product_precision=evaluation.product_precision,
            )
        )
    return Table3Result(rows=rows)
