"""Contiguous layer-to-stage packing for the ring backend.

The greedy scan is the inner feasibility test: scan layers in order,
extending the open stage while the weight, KV and ops budgets all hold;
greedy_contiguous_partition returns its partition at one budget.
balanced_contiguous_pack finds the smallest feasible scalar per-stage ops
budget, which minimizes the longest-stage decode time (the token-pipeline
bottleneck).

The greedy scan produces the minimum possible number of contiguous stages
for a given budget (all constraints are additive and monotone), so capping
the stage count at the ring's maximum depth keeps the search exact.  Both
functions run one scan, ``_greedy_starts``, which returns each stage's
first layer, or None once the stage count passes a cap, and a bid: the
smallest ops sum that a stage closed by the ops budget alone would have
reached with its next layer.  Every budget from the scanned one up to, not
including, the bid makes the same decision at every layer, so
balanced_contiguous_pack scans first at the largest layer's ops and then at
each infeasible scan's bid.  Each bid is the sum of a contiguous layer run,
added from the run's first layer as the scan adds them, so the budgets rise
strictly through those sums (at most L(L+1)/2 scans), the first feasible
scan runs at the smallest feasible one, for non-integer ops too, and its
stage starts give the partition.  No state outlives a call.
"""
import math
from dataclasses import dataclass

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
) -> tuple[list[int] | None, float]:
    """The greedy scan over per-layer (weight bytes, KV bytes at ctx, decode
    ops): the first layer index of each stage, or None when some layer alone
    exceeds the weight, KV or ops budget or the scan opens more than
    n_stages_max stages; and the bid, the smallest ``o + do`` of a stage
    closed by the ops budget alone (inf when none was).  Activation bytes
    are not checked.

    When every layer fits the weight and KV caps alone and ops_budget is at
    least every layer's ops, each budget from ops_budget up to the bid (not
    included) scans to the same result, and a finite bid is a sum of
    contiguous layers, added from the first, above ops_budget."""
    weight_cap, kv_cap = limits.weight_cap, limits.kv_cap
    starts = [0]
    bid = math.inf
    # int 0, not 0.0: 0 + x == 0.0 + x for a float x, and int terms then
    # add exactly beyond 2**53, as the single-layer tests below compare them
    w = k = o = 0
    for i, (dw, dk, do) in enumerate(layers):
        if w + dw <= weight_cap and k + dk <= kv_cap:
            if o + do <= ops_budget:
                w, k, o = w + dw, k + dk, o + do
                continue
            bid = min(bid, o + do)
        # a layer too big for any stage reaches this branch: every sum
        # above is at least the layer's own term
        if dw > weight_cap or dk > kv_cap or do > ops_budget or len(starts) >= n_stages_max:
            return None, bid
        starts.append(i)
        w, k, o = dw, dk, do
    return starts, bid


def greedy_contiguous_partition(
    profiles: list[LayerProfile],
    limits: StageLimits,
    ops_budget: float,
) -> list[list[int]] | None:
    """Contiguous partition with every stage within limits and ops_budget,
    or None if some single layer alone exceeds the chip."""
    if not profiles:
        raise ValueError("profiles must be non-empty")
    if ops_budget != ops_budget:  # NaN would open an empty first stage
        raise ValueError("ops_budget must not be NaN")
    if any(p.act_bytes > limits.act_cap for p in profiles):
        return None
    starts, _ = _greedy_starts(_layer_terms(profiles, limits), limits, ops_budget, math.inf)
    return None if starts is None else _stages(starts, len(profiles))


def _stages(starts: list[int], n_layers: int) -> list[list[int]]:
    """The layer indices of each stage, from each stage's first layer."""
    return [list(range(a, b)) for a, b in zip(starts, starts[1:] + [n_layers])]


def balanced_contiguous_pack(
    profiles: list[LayerProfile],
    limits: StageLimits,
    n_chips_max: int,
) -> list[list[int]] | None:
    """Partition minimizing the bottleneck stage ops, or None if infeasible.

    The smallest feasible budget is the ops sum of some stage, and a budget
    is feasible when the greedy partition exists and fits in n_chips_max
    stages.  Because the greedy scan minimizes the stage count, feasibility
    is monotone in the budget.  The walk scans at the largest layer's ops
    and then at each scan's bid: no budget below the bid changes the scan,
    so the first feasible scan runs at the smallest feasible budget, and
    its stage starts give the partition.  An infeasible scan with no bid
    stays infeasible at every budget.
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    if not n_chips_max >= 1:  # NaN fails this too
        raise ValueError(f"n_chips_max must be >= 1, got {n_chips_max!r}")
    layers = _layer_terms(profiles, limits)
    for prof, (w, k, _) in zip(profiles, layers):
        if w > limits.weight_cap or k > limits.kv_cap or prof.act_bytes > limits.act_cap:
            return None
    budget = max(o for _, _, o in layers)
    while budget < math.inf:
        starts, budget = _greedy_starts(layers, limits, budget, n_chips_max)
        if starts is not None:
            return _stages(starts, len(layers))
    return None


def stage_totals(profiles: list[LayerProfile], stage: list[int], ctx_tokens: float):
    """(weight bytes, KV bytes at ctx, decode ops, peak act bytes) of one stage."""
    w = sum(profiles[i].weight_bytes for i in stage)
    k = sum(profiles[i].kv_bytes_per_token for i in stage) * ctx_tokens
    o = sum(profiles[i].decode_ops for i in stage)
    a = max(profiles[i].act_bytes for i in stage)
    return w, k, o, a
