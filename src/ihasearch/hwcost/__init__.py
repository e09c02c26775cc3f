"""Hardware-cost backends: analytical substrate roofline and ring-dataflow co-search.

``substrate_cost(genome, spec, workload)`` returns an ``HWCost`` (energy per
token [J], TTFT [s], TPOT [s]).  ``ring_cost(genome, workload)`` returns the
chosen ``RingResult``, whose ``.cost`` is that ``HWCost``, or None when no
chip on the grid fits the model.  The search engine's ``make_backend`` adapts
both to one genome -> (cost, ring) callable.  Every element (weight, KV
entry, activation) is one byte.
"""
from .profiles import LayerProfile, Workload, profile_layer, profile_model
from .substrate import (
    SubstrateSpec,
    builtin_substrate_names,
    load_substrate,
    substrate_cost,
)
from .packing import (
    StageLimits,
    balanced_contiguous_pack,
    greedy_contiguous_partition,
)
from .ring import (
    DEFAULT_CHIP_GRID,
    GRID_AXES,
    ChipGrid,
    ChipTemplate,
    RingPlan,
    RingResult,
    best_ring_pick,
    build_chip,
    chip_grid_search,
    ring_cost,
    ring_simulate,
    write_plan_csv,
)

__all__ = [
    "LayerProfile",
    "Workload",
    "profile_layer",
    "profile_model",
    "SubstrateSpec",
    "builtin_substrate_names",
    "load_substrate",
    "substrate_cost",
    "StageLimits",
    "greedy_contiguous_partition",
    "balanced_contiguous_pack",
    "ChipGrid",
    "ChipTemplate",
    "RingPlan",
    "RingResult",
    "best_ring_pick",
    "build_chip",
    "DEFAULT_CHIP_GRID",
    "GRID_AXES",
    "chip_grid_search",
    "ring_cost",
    "ring_simulate",
    "write_plan_csv",
]
