"""Ranking quality and Pareto diagnostics.

All objectives are minimized.  Rank statistics treat lower values as better
on both axes, so sign conventions match plain Kendall/Spearman on the raw
vectors.

The Pareto helpers take plain arrays: ``constraint_dominance_matrix`` takes
values (n, m), feasibility (n,) and violation (n,) and implements constraint
domination (feasible beats infeasible, infeasible points are ordered by
violation); ``pareto_front`` takes an (n, m) array of feasible rows,
``crowding_distance`` the (n, m) values of one front and ``hypervolume_2d``
an (n, 2) array of points.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

TOP_FRACTIONS = {"k_at_1pct": 0.01, "k_at_5pct": 0.05, "mae_at_5pct": 0.05}


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise ValueError(f"pred and truth must be equal-length 1-D, got {p.shape} vs {t.shape}")
    if p.size < 2:
        raise ValueError("need at least 2 samples")
    return p, t


def kendall_tau(pred, truth) -> float:
    """Tie-corrected Kendall tau-b."""
    from scipy import stats  # imported on first use: search and pack never need it

    p, t = _check_pair(pred, truth)
    return float(stats.kendalltau(p, t).statistic)


def spearman_rho(pred, truth) -> float:
    """Spearman rank correlation (Pearson on mid-ranks)."""
    from scipy import stats

    p, t = _check_pair(pred, truth)
    return float(stats.spearmanr(p, t).statistic)


def _true_top(truth: np.ndarray, x: float) -> np.ndarray:
    n = truth.size
    m = math.ceil(x * n)
    order = np.argsort(truth, kind="stable")
    return order[:m]


def k_at_x(pred, truth, x: float) -> int:
    """Smallest k such that the predicted top-k contains the true top ceil(x*n).

    Lower is better on both vectors; prediction ties resolve by index order.
    """
    p, t = _check_pair(pred, truth)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must be in (0, 1], got {x}")
    top = set(_true_top(t, x).tolist())
    pred_order = np.argsort(p, kind="stable")
    rank_of = {int(idx): pos for pos, idx in enumerate(pred_order)}
    return max(rank_of[i] for i in top) + 1


def mae_at_top(pred, truth, x: float) -> float:
    """Mean absolute error restricted to the true top ceil(x*n) rows."""
    p, t = _check_pair(pred, truth)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must be in (0, 1], got {x}")
    sel = _true_top(t, x)
    return float(np.abs(p[sel] - t[sel]).mean())


def rank_report(pred, truth) -> dict[str, float]:
    """The standard block of ranking stats for one evaluation."""
    p, t = _check_pair(pred, truth)
    return {
        "tau": kendall_tau(p, t),
        "rho": spearman_rho(p, t),
        "mae": float(np.abs(p - t).mean()),
        "mae_at_5pct": mae_at_top(p, t, 0.05),
        "k_at_1pct": float(k_at_x(p, t, 0.01)),
        "k_at_5pct": float(k_at_x(p, t, 0.05)),
    }


# --- Pareto ------------------------------------------------------------------

def constraint_dominance_matrix(
    values: np.ndarray, feasible: np.ndarray, violation: np.ndarray
) -> np.ndarray:
    """(n, n) boolean matrix: entry [i, j] says point i constraint-dominates
    point j (Deb et al. 2002).

    A feasible point dominates every infeasible one; of two infeasible
    points, the one with strictly lower violation dominates; of two feasible
    points, i dominates j when its values are <= j's everywhere and < j's
    somewhere.

    ``le[i, j]`` (i's values are <= j's everywhere) is the AND of one (n, n)
    comparison per objective, and the strict part is ``~le.T``: where
    ``le[i, j]`` holds, "< somewhere" equals "not j <= i everywhere".  That
    holds for every input, NaN included: a NaN in either row fails its
    ``<=``, so ``le[i, j]`` is False there and the other factor does not
    matter.  With no objectives ``le`` is all True and ``~le.T`` all False,
    as "<= everywhere" and "< somewhere" are over an empty row.
    """
    le = np.ones((len(values), len(values)), dtype=bool)
    for col in values.T:
        le &= col[:, None] <= col[None, :]
    fi, fj = feasible[:, None], feasible[None, :]
    lower_violation = violation[:, None] < violation[None, :]
    return (fi & fj & le & ~le.T) | (fi & ~fj) | (~fi & ~fj & lower_violation)


def pareto_front(values: np.ndarray) -> list[int]:
    """Indices of the non-dominated rows of an (n, m) array of feasible
    objective vectors, in input order.

    Duplicated objective vectors are mutually non-dominating, so all copies
    are kept.
    """
    n = len(values)
    dom = constraint_dominance_matrix(values, np.ones(n, dtype=bool), np.zeros(n))
    return np.flatnonzero(~dom.any(axis=0)).tolist()


def crowding_distance(values) -> np.ndarray:
    """NSGA-II crowding distance for one front of objective vectors (n, m).

    Boundary points get +inf per objective; interior points accumulate the
    normalized gap between their neighbours.  Objectives with zero or
    non-finite range contribute nothing.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValueError("values must be a 2-D array of objective vectors")
    n, m = vals.shape
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for j in range(m):
        order = np.argsort(vals[:, j], kind="stable")
        col = vals[order, j]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        lo, hi = col[0], col[-1]
        if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
            continue
        interior = order[1:-1]
        gaps = (col[2:] - col[:-2]) / (hi - lo)
        dist[interior] = dist[interior] + gaps
    return dist


def hypervolume_2d(points: np.ndarray, ref) -> float:
    """Dominated area between an (n, 2) array of points and a reference
    point (minimization).

    Points that do not strictly dominate ref are excluded (a warning reports
    how many).  Duplicates and dominated members are harmless: the result is
    the area of the union of the boxes [f1, r1] x [f2, r2].
    """
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("hypervolume_2d needs an (n, 2) array of points")
    r1, r2 = float(ref[0]), float(ref[1])
    vals = []
    skipped = 0
    for v in points.tolist():
        if v[0] < r1 and v[1] < r2:
            vals.append(v)
        else:
            skipped += 1
    if skipped:
        warnings.warn(f"hypervolume_2d: excluded {skipped} point(s) not dominating ref", stacklevel=2)
    if not vals:
        return 0.0
    vals.sort()
    hv = 0.0
    best2 = r2
    for f1, f2 in vals:
        if f2 < best2:
            hv += (r1 - f1) * (best2 - f2)
            best2 = f2
    return hv
