"""Maximum-weight bipartite matching.

The DUMAS baseline (paper Appendix C) averages per-duplicate similarity
matrices into one merchant-level matrix ``S_M`` and then solves a bipartite
weighted matching problem over it to obtain one-to-one attribute
correspondences.  This module provides an exact solver built on
``scipy.optimize.linear_sum_assignment`` with a deterministic greedy
fallback when scipy is unavailable.

scipy is imported by the solver call, not by this module: only the DUMAS
baseline needs it, and ``scipy.optimize`` would otherwise add ~50 MiB
and ~0.4 s to every process that imports :mod:`repro` (each CLI start,
cluster node and serving child).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["max_weight_bipartite_matching", "greedy_bipartite_matching"]


def _validate_matrix(weights: Sequence[Sequence[float]]) -> np.ndarray:
    if isinstance(weights, (list, tuple)) and len(weights) == 0:
        return np.zeros((0, 0))
    matrix = np.asarray(weights, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"weight matrix must be 2-dimensional, got shape {matrix.shape}")
    if matrix.size == 0:
        return matrix
    if np.isnan(matrix).any():
        raise ValueError("weight matrix contains NaN values")
    return matrix


def greedy_bipartite_matching(
    weights: Sequence[Sequence[float]], min_weight: float = 0.0
) -> List[Tuple[int, int, float]]:
    """Greedy one-to-one matching: repeatedly take the heaviest unused pair.

    Not optimal in general, but deterministic and within a factor two of
    the optimum; used as a fallback when scipy is not importable.
    """
    matrix = _validate_matrix(weights)
    if matrix.size == 0:
        return []
    candidates = [
        (float(matrix[row, column]), row, column)
        for row in range(matrix.shape[0])
        for column in range(matrix.shape[1])
        if matrix[row, column] > min_weight
    ]
    candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
    used_rows: set = set()
    used_columns: set = set()
    matching: List[Tuple[int, int, float]] = []
    for weight, row, column in candidates:
        if row in used_rows or column in used_columns:
            continue
        used_rows.add(row)
        used_columns.add(column)
        matching.append((row, column, weight))
    matching.sort(key=lambda item: (item[0], item[1]))
    return matching


def max_weight_bipartite_matching(
    weights: Sequence[Sequence[float]], min_weight: float = 0.0
) -> List[Tuple[int, int, float]]:
    """Maximum-weight one-to-one matching between rows and columns.

    Parameters
    ----------
    weights:
        Rectangular weight matrix; ``weights[i][j]`` is the benefit of
        matching row ``i`` with column ``j``.
    min_weight:
        Pairs whose weight is not strictly greater than this value are
        excluded from the returned matching (the assignment solver may
        still route through them internally).

    Returns
    -------
    list of (row, column, weight)
        Sorted by row index; each row and each column appears at most once.

    Examples
    --------
    >>> max_weight_bipartite_matching([[0.9, 0.1], [0.2, 0.8]])
    [(0, 0, 0.9), (1, 1, 0.8)]
    """
    matrix = _validate_matrix(weights)
    if matrix.size == 0:
        return []
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return greedy_bipartite_matching(matrix, min_weight=min_weight)

    row_indices, column_indices = linear_sum_assignment(-matrix)
    matching = [
        (int(row), int(column), float(matrix[row, column]))
        for row, column in zip(row_indices, column_indices)
        if matrix[row, column] > min_weight
    ]
    matching.sort(key=lambda item: (item[0], item[1]))
    return matching
