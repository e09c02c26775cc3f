"""Non-dominated sorting and elitist survival under constraint domination.

Every entry point takes the population's (n, n) constraint-dominance matrix
(``metrics.constraint_dominance_matrix``), and those that crowd also take its
(n, m) objective values, so a caller builds the matrix once per population
and shares it.
"""
from __future__ import annotations

import numpy as np

from ..metrics import crowding_distance


def fast_nondominated_sort(dom: np.ndarray) -> list[list[int]]:
    """Partition indices into fronts F1, F2, ... given the dominance matrix
    (``dom[i, j]``: i dominates j).  Front order and the index order inside
    each front are deterministic (ascending indices).
    """
    # dominators not yet peeled off; peeled points are parked at -1
    n_dominators = dom.sum(axis=0)
    fronts = []
    current = np.flatnonzero(n_dominators == 0)
    while current.size:
        fronts.append(current.tolist())
        n_dominators[current] = -1
        n_dominators -= dom[current].sum(axis=0)
        current = np.flatnonzero(n_dominators == 0)
    return fronts


def rank_and_crowd(values: np.ndarray, dom: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Per-individual within-front crowding distance, computed on the raw
    objective values, and the fronts from ``fast_nondominated_sort``."""
    fronts = fast_nondominated_sort(dom)
    crowd = np.zeros(len(values), dtype=float)
    for front in fronts:
        crowd[front] = crowding_distance(values[front])
    return crowd, fronts


def nsga_survival(values: np.ndarray, dom: np.ndarray, n_keep: int) -> list[int]:
    """Elitist environmental selection: fill front by front; the first front
    that overflows is truncated by descending crowding distance, breaking
    exact ties by ascending index.  Returns kept indices in that order."""
    if n_keep < 0:
        raise ValueError(f"n_keep must be >= 0, got {n_keep}")
    if n_keep >= len(values):
        return list(range(len(values)))
    crowd, fronts = rank_and_crowd(values, dom)
    kept: list[int] = []
    for front in fronts:
        if len(kept) + len(front) <= n_keep:
            kept.extend(front)
            if len(kept) == n_keep:
                break
        else:
            need = n_keep - len(kept)
            ordered = sorted(front, key=lambda i: (-crowd[i], i))
            kept.extend(ordered[:need])
            break
    return kept
