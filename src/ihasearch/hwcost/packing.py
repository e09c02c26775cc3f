"""Contiguous layer-to-stage packing for the ring backend.

greedy_contiguous_partition is the inner feasibility test: scan layers in
order, extending the open stage while the weight, KV and ops budgets all
hold.  balanced_contiguous_pack binary-searches the scalar per-stage ops
budget for the smallest feasible value, which minimizes the longest-stage
decode time (the token-pipeline bottleneck).  The budgets it searches are
the sums of contiguous layer runs, added from the run's first layer as the
scan adds them, so the search is exact for non-integer ops too.

The greedy scan produces the minimum possible number of contiguous stages
for a given budget (all constraints are additive and monotone), so capping
the stage count at the ring's maximum depth keeps the binary search exact.
The search's probes run the same scan but only count stages, stopping once
the count passes the cap; the partition itself is built once, by
greedy_contiguous_partition at the smallest feasible budget.
"""
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


def greedy_contiguous_partition(
    profiles: list[LayerProfile],
    limits: StageLimits,
    ops_budget: float,
) -> list[list[int]] | None:
    """Contiguous partition with every stage within limits and ops_budget,
    or None if some single layer alone exceeds the chip."""
    if not profiles:
        raise ValueError("profiles must be non-empty")
    stages: list[list[int]] = []
    current: list[int] = []
    w = k = o = 0.0
    for i, prof in enumerate(profiles):
        dk = prof.kv_bytes_per_token * limits.ctx_tokens
        if (
            prof.weight_bytes > limits.weight_cap
            or dk > limits.kv_cap
            or prof.decode_ops > ops_budget
            or prof.act_bytes > limits.act_cap
        ):
            return None
        if (
            w + prof.weight_bytes <= limits.weight_cap
            and k + dk <= limits.kv_cap
            and o + prof.decode_ops <= ops_budget
        ):
            current.append(i)
            w, k, o = w + prof.weight_bytes, k + dk, o + prof.decode_ops
        else:
            stages.append(current)
            current = [i]
            w, k, o = prof.weight_bytes, dk, prof.decode_ops
    if current:
        stages.append(current)
    return stages


def _fits_in_stages(
    layers: list[tuple[float, float, float]],
    limits: StageLimits,
    ops_budget: float,
    n_stages_max: int,
) -> bool:
    """Whether greedy_contiguous_partition, run on per-layer (weight bytes,
    KV bytes at ctx, decode ops), returns a partition of at most
    n_stages_max stages (activation bytes are not checked).  The same sums
    and comparisons, without building the stages; stops once the count
    passes n_stages_max."""
    weight_cap, kv_cap = limits.weight_cap, limits.kv_cap
    n = 1
    w = k = o = 0.0
    for dw, dk, do in layers:
        if w + dw <= weight_cap and k + dk <= kv_cap and o + do <= ops_budget:
            w, k, o = w + dw, k + dk, o + do
            continue
        # a layer too big for any stage reaches this branch: every sum
        # above is at least the layer's own term
        if dw > weight_cap or dk > kv_cap or do > ops_budget:
            return False
        n += 1
        if n > n_stages_max:
            return False
        w, k, o = dw, dk, do
    return True


def balanced_contiguous_pack(
    profiles: list[LayerProfile],
    limits: StageLimits,
    n_chips_max: int,
) -> list[list[int]] | None:
    """Partition minimizing the bottleneck stage ops, or None if infeasible.

    The smallest feasible budget is the ops sum of some stage, so the
    candidates are the distinct sums of contiguous layer runs that are at
    least the largest layer's ops, each added from the run's first layer in
    scan order (the floats the greedy scan compares).  Binary search over
    them, sorted; a budget is feasible when the greedy partition exists and
    fits in n_chips_max stages.  Because the greedy scan minimizes the stage
    count, feasibility is monotone in the budget and the search is exact.
    Each probe only counts the greedy scan's stages;
    greedy_contiguous_partition runs once, at the smallest feasible budget,
    to build the returned partition.
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    if n_chips_max < 1:
        raise ValueError("n_chips_max must be >= 1")
    layers = [
        (p.weight_bytes, p.kv_bytes_per_token * limits.ctx_tokens, p.decode_ops)
        for p in profiles
    ]
    for prof, (w, k, _) in zip(profiles, layers):
        if w > limits.weight_cap or k > limits.kv_cap or prof.act_bytes > limits.act_cap:
            return None
    ops = [o for _, _, o in layers]
    floor = max(ops)
    sums = set()
    for start in range(len(ops)):
        sums.update(accumulate(ops[start:]))
    budgets = sorted(b for b in sums if b >= floor)
    lo, hi = 0, len(budgets) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if _fits_in_stages(layers, limits, budgets[mid], n_chips_max):
            best = budgets[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        return None
    return greedy_contiguous_partition(profiles, limits, best)


def stage_totals(profiles: list[LayerProfile], stage: list[int], ctx_tokens: float):
    """(weight bytes, KV bytes at ctx, decode ops, peak act bytes) of one stage."""
    w = sum(profiles[i].weight_bytes for i in stage)
    k = sum(profiles[i].kv_bytes_per_token for i in stage) * ctx_tokens
    o = sum(profiles[i].decode_ops for i in stage)
    a = max(profiles[i].act_bytes for i in stage)
    return w, k, o, a
