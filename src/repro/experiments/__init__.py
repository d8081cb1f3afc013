"""Experiment drivers: one module per table/figure of the paper's evaluation.

==========  ============================================================  ==================
Experiment  Paper result                                                  Module
==========  ============================================================  ==================
Table 2     End-to-end synthesis quality (counts + precisions)            ``table2``
Table 3     Synthesis quality per top-level category                      ``table3``
Table 4     Precision/recall by offer-set size (≥10 vs <10 offers)        ``table4``
Figure 6    Classifier vs single-feature JS-MC / Jaccard-MC               ``figure6``
Figure 7    Match-aware value bags vs no-matching baseline                ``figure7``
Figure 8    Our approach vs DUMAS / instance NB / COMA++ configurations   ``figure8``
Figure 9    COMA++ δ=0.01 vs δ=∞                                          ``figure9``
==========  ============================================================  ==================

Every driver exposes ``run(harness)`` returning a structured result with a
``to_text()`` rendering; the :mod:`repro.experiments.cli` entry point runs
them all and prints the tables, and ``benchmarks/`` wraps each driver in a
pytest-benchmark case that also asserts the qualitative claims.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the CLI's ``runtime-serve`` path must not load
# the harness (and the whole offline stack behind it).
__all__, __getattr__, __dir__ = lazy_exports(
    globals(), {"repro.experiments.harness": ("ExperimentHarness", "get_harness")}
)
