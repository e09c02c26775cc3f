"""Contiguous layer-to-stage packing for the ring backend.

The greedy scan is the inner feasibility test: scan layers in order,
extending the open stage while the weight, KV and ops budgets all hold;
greedy_contiguous_partition returns its partition at one budget.
balanced_contiguous_pack finds the smallest feasible scalar per-stage ops
budget, which minimizes the longest-stage decode time (the token-pipeline
bottleneck).  The budgets it searches are the sums of contiguous layer
runs, added from the run's first layer as the scan adds them, so the search
is exact for non-integer ops too.

The greedy scan produces the minimum possible number of contiguous stages
for a given budget (all constraints are additive and monotone), so capping
the stage count at the ring's maximum depth keeps the search exact.  Both
functions run one scan, ``_greedy_starts``, which returns each stage's
first layer and stops once the stage count passes a cap.

The smallest candidate budget is the largest layer's ops, and once every
layer fits a stage alone, that budget opens at most one stage per layer.
So a model with at most as many layers as the cap packs with one scan at
that budget (the short-model rule); a longer one binary-searches the
candidates, in the manner of Pinar & Aykanat (2004), "Fast optimal load
balancing algorithms for 1D partitioning".  Either way the partition is
built from the stage starts of the last feasible probe, which ran at the
smallest feasible budget: no scan runs twice.

The candidate budgets depend only on the layers' decode ops, not on the
chip or the stage cap, and a ring grid search packs one genome onto every
chip back to back.  So ``_candidate_budgets`` keeps its last answer in a
one-entry ``functools.lru_cache``, keyed by the ops tuple and the type of
each element, so that 10 and 10.0 never share an entry.  The key is the
whole input by value and the entry is a tuple of at most L(L+1)/2 floats:
it cannot return a stale answer, and no run can observe another through it.
"""
import functools
import math
from dataclasses import dataclass
from itertools import accumulate

from .profiles import LayerProfile


@dataclass(frozen=True)
class StageLimits:
    """Per-stage capacity of one chip: weight memory, KV cache, scratchpad
    bytes, and the KV context length the cache must hold."""

    weight_cap: float
    kv_cap: float
    act_cap: float
    ctx_tokens: float


def _layer_terms(profiles: list[LayerProfile], limits: StageLimits):
    """Per-layer (weight bytes, KV bytes at the limits' context, decode ops)."""
    return [
        (p.weight_bytes, p.kv_bytes_per_token * limits.ctx_tokens, p.decode_ops)
        for p in profiles
    ]


def _greedy_starts(
    layers: list[tuple[float, float, float]],
    limits: StageLimits,
    ops_budget: float,
    n_stages_max: float,
) -> list[int] | None:
    """The greedy scan over per-layer (weight bytes, KV bytes at ctx, decode
    ops): the first layer index of each stage, or None when some layer alone
    exceeds the weight, KV or ops budget or the scan opens more than
    n_stages_max stages.  Activation bytes are not checked."""
    weight_cap, kv_cap = limits.weight_cap, limits.kv_cap
    starts = [0]
    # int 0, not 0.0: 0 + x == 0.0 + x for a float x, and int terms then
    # add exactly beyond 2**53, as the single-layer tests below compare them
    w = k = o = 0
    for i, (dw, dk, do) in enumerate(layers):
        if w + dw <= weight_cap and k + dk <= kv_cap and o + do <= ops_budget:
            w, k, o = w + dw, k + dk, o + do
            continue
        # a layer too big for any stage reaches this branch: every sum
        # above is at least the layer's own term
        if dw > weight_cap or dk > kv_cap or do > ops_budget or len(starts) >= n_stages_max:
            return None
        starts.append(i)
        w, k, o = dw, dk, do
    return starts


def greedy_contiguous_partition(
    profiles: list[LayerProfile],
    limits: StageLimits,
    ops_budget: float,
) -> list[list[int]] | None:
    """Contiguous partition with every stage within limits and ops_budget,
    or None if some single layer alone exceeds the chip."""
    if not profiles:
        raise ValueError("profiles must be non-empty")
    if any(p.act_bytes > limits.act_cap for p in profiles):
        return None
    starts = _greedy_starts(_layer_terms(profiles, limits), limits, ops_budget, math.inf)
    return None if starts is None else _stages(starts, len(profiles))


def _stages(starts: list[int], n_layers: int) -> list[list[int]]:
    """The layer indices of each stage, from each stage's first layer."""
    return [list(range(a, b)) for a, b in zip(starts, starts[1:] + [n_layers])]


@functools.lru_cache(maxsize=1)
def _candidate_budgets(ops: tuple[float, ...], types: tuple[type, ...]) -> tuple[float, ...]:
    """The distinct sums of contiguous runs of ops that are at least the
    largest element, each added from the run's first element, ascending.
    ``types`` is ``tuple(map(type, ops))``, which only keys the memo."""
    floor = max(ops)
    sums = set()
    for start in range(len(ops)):
        sums.update(accumulate(ops[start:]))
    return tuple(sorted(b for b in sums if b >= floor))


def balanced_contiguous_pack(
    profiles: list[LayerProfile],
    limits: StageLimits,
    n_chips_max: int,
) -> list[list[int]] | None:
    """Partition minimizing the bottleneck stage ops, or None if infeasible.

    The smallest feasible budget is the ops sum of some stage, so the
    candidates are the distinct sums of contiguous layer runs that are at
    least the largest layer's ops, each added from the run's first layer in
    scan order (the floats the greedy scan compares).  A budget is feasible
    when the greedy partition exists and fits in n_chips_max stages.
    Because the greedy scan minimizes the stage count, feasibility is
    monotone in the budget.  With at most n_chips_max layers the smallest
    candidate is feasible, since every layer fits a stage alone, and one
    scan packs at it; otherwise a binary search over the sorted candidates
    finds the smallest feasible one.  The partition comes from the stage
    starts of the last feasible probe.
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    if not n_chips_max >= 1:  # NaN fails this too
        raise ValueError(f"n_chips_max must be >= 1, got {n_chips_max!r}")
    layers = _layer_terms(profiles, limits)
    for prof, (w, k, _) in zip(profiles, layers):
        if w > limits.weight_cap or k > limits.kv_cap or prof.act_bytes > limits.act_cap:
            return None
    ops = tuple(o for _, _, o in layers)
    if len(layers) <= n_chips_max:
        # the short-model rule: the scan opens at most one stage per layer
        return _stages(_greedy_starts(layers, limits, max(ops), n_chips_max), len(layers))
    budgets = _candidate_budgets(ops, tuple(map(type, ops)))
    lo, hi = 0, len(budgets) - 1
    starts = None
    while lo <= hi:
        mid = (lo + hi) // 2
        probe = _greedy_starts(layers, limits, budgets[mid], n_chips_max)
        if probe is not None:
            starts, hi = probe, mid - 1
        else:
            lo = mid + 1
    return None if starts is None else _stages(starts, len(layers))


def stage_totals(profiles: list[LayerProfile], stage: list[int], ctx_tokens: float):
    """(weight bytes, KV bytes at ctx, decode ops, peak act bytes) of one stage."""
    w = sum(profiles[i].weight_bytes for i in stage)
    k = sum(profiles[i].kv_bytes_per_token for i in stage) * ctx_tokens
    o = sum(profiles[i].decode_ops for i in stage)
    a = max(profiles[i].act_bytes for i in stage)
    return w, k, o, a
