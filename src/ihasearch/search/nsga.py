"""Non-dominated sorting and elitist survival under constraint domination."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..metrics import (
    as_objective_vector,
    constraint_dominance_matrix,
    crowding_distance,
    objective_arrays,
)


def fast_nondominated_sort(items: Sequence) -> list[list[int]]:
    """Partition indices into fronts F1, F2, ... under constraint domination.

    Accepts ObjectiveVectors or plain value tuples (treated as feasible).  Front order and the index
    order inside each front are deterministic (ascending indices).
    """
    dom = constraint_dominance_matrix(*objective_arrays(items))
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


def rank_and_crowd(items: Sequence) -> tuple[np.ndarray, list[list[int]]]:
    """Per-individual within-front crowding distance, computed on the raw
    objective values, and the fronts from ``fast_nondominated_sort``."""
    vecs = [as_objective_vector(it) for it in items]
    fronts = fast_nondominated_sort(vecs)
    crowd = np.zeros(len(vecs), dtype=float)
    for front in fronts:
        vals = np.array([vecs[i].values for i in front], dtype=float)
        crowd[front] = crowding_distance(vals)
    return crowd, fronts


def nsga_survival(items: Sequence, n_keep: int) -> list[int]:
    """Elitist environmental selection: fill front by front; the first front
    that overflows is truncated by descending crowding distance, breaking
    exact ties by ascending index.  Returns kept indices in that order."""
    if n_keep < 0:
        raise ValueError(f"n_keep must be >= 0, got {n_keep}")
    if n_keep >= len(items):
        return list(range(len(items)))
    crowd, fronts = rank_and_crowd(items)
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
