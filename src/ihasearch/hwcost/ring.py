"""Multi-chip ring-dataflow backend: chip derivation, simulation, grid co-search.

A ring is a token-level pipeline of identical chips.  Layers are packed onto
contiguous stages (one chip each) with weights held stationary; tokens hop
around the ring once per decode step.  The co-search sweeps a chip grid (the
45-point ``DEFAULT_CHIP_GRID`` unless told otherwise), packs the model onto
each feasible template, simulates the ring, and returns the top
non-dominated (chip, plan) pairs on (TTFT, TPOT, energy/token, total area).
A grid is a frozen ``ChipGrid``: its constructor checks every value once
(an exact int in [1, 2**53]) and lists each memory size's caps, so a call
only reads it.  One call does only the per-genome work that can change its
answer.  A chip's stage limits do not depend on its MAC count or the chip
cap, and every chip of a call holds KV for ``workload.ctx_peak``, so:

- the fit rule: each memory size (``w_core_kb``) builds one chip and
  checks once whether its limits hold the genome's largest weight, KV and
  activation term, the check ``balanced_contiguous_pack`` makes first.  A
  memory size that does not fit packs nothing, and beyond those chips only
  a feasible grid point builds one;
- the cap rule: under fixed limits a budget is feasible for a cap when the
  greedy partition exists and fits the cap's stages, so feasibility only
  grows with the cap.  A memory size that fits is packed from its largest
  cap down; a larger cap's None settles every smaller cap, and so does its
  partition for a cap at least its stage count.  Only the other caps run
  ``balanced_contiguous_pack``;
- the simulation sums: a simulation's ops and energy sums depend only on
  the layers, the partition, the workload and the chip's energy constants,
  which ``build_chip`` leaves at their defaults.  A call sums the model's
  ops and the layers' energy once, and each distinct partition's stage ops
  once; each design then pays only for its throughput and hops.  The sums
  are the same float expressions, in the same order, as ``ring_simulate``'s.

For the default grid on ``ring_preset`` searches that is about 7 chips and
2 packs per genome, down from 15 and 15, and about 2.6 greedy scans per pack;
the picks, their order and every float are those of packing and
simulating every grid point.  A chip is a function of four exact ints,
``(n_mac, w_core_kb, core count, max_ctx)``, so ``build_chip`` constructs
each ``ChipTemplate`` once per key across genomes (a bounded memo): a
``ring_preset`` search makes about 1,100 ``build_chip`` calls and about 18
templates.
"""
import csv
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..genome import MAX_EXACT_INT, ArchGenome
from ..metrics import crowding_distance, pareto_front
from .packing import StageLimits, balanced_contiguous_pack, stage_totals
from .profiles import HWCost, LayerProfile, Workload, profile_model

N_MAC_CHOICES = (16, 32, 64)
W_CORE_KB_CHOICES = (24, 48, 96, 192, 384)
N_CHIPS_MAX_CHOICES = (8, 16, 32)

# area is linear in on-chip SRAM, normalized so the reference single-chip
# template (128 cores x (24+8) KB = 4 MiB) maps to exactly 1.0
REFERENCE_SRAM_BYTES = 4 * 1024 * 1024


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ChipTemplate:
    """One ring-stage chip: compute tiles, per-core memories, link model."""

    n_mac: int
    w_core_kb: int
    n_dxt: int
    n_vac: int
    max_ctx: int
    k_core_kb: int = 8
    scratch_bytes: int = 64 * 1024
    clock_hz: float = 1.0e9
    e_mac_j: float = 2.0e-13
    e_sram_j_per_byte: float = 1.0e-12
    hop_latency_s: float = 1.0e-6
    hop_energy_j_per_byte: float = 1.0e-11

    def __post_init__(self):
        # one expression of chained comparisons, which NaN also fails: a
        # default-grid search builds about 7 chips per genome
        inf = math.inf
        if not (0 < self.n_mac < inf and 0 < self.w_core_kb < inf
                and 0 < self.n_dxt < inf and 0 < self.n_vac < inf
                and 0 < self.max_ctx < inf and 0 < self.k_core_kb < inf
                and 0 < self.scratch_bytes < inf and 0 < self.clock_hz < inf
                and 0 < self.e_mac_j < inf and 0 < self.e_sram_j_per_byte < inf
                and 0 < self.hop_latency_s < inf and 0 < self.hop_energy_j_per_byte < inf):
            raise ValueError(f"every chip field must be finite and > 0: {self}")
        if not (_is_pow2(self.n_dxt) and _is_pow2(self.n_vac)):
            raise ValueError("tile and core counts must be powers of two")
        if self.n_vac < self.n_dxt:
            raise ValueError("n_vac must be >= n_dxt")

    @property
    def n_cores(self) -> int:
        return self.n_dxt * self.n_vac

    @property
    def weight_cap(self) -> int:
        return self.n_cores * self.w_core_kb * 1024

    @property
    def kv_cap(self) -> int:
        return self.n_cores * self.k_core_kb * 1024

    @property
    def throughput(self) -> float:
        """Decode MACs per second of the whole chip."""
        return self.n_cores * self.n_mac * self.clock_hz

    @property
    def area(self) -> float:
        """Silicon area proxy: total SRAM relative to the reference chip."""
        return self.n_cores * (self.w_core_kb + self.k_core_kb) * 1024 / REFERENCE_SRAM_BYTES


def build_chip(
    n_mac: int,
    w_core_kb: int,
    max_layer_weight_bytes: float,
    max_ctx: int,
) -> ChipTemplate:
    """Derive the core split for one grid point.

    Picks the smallest power-of-two core count whose combined weight memory
    holds the largest single layer, then factors it as n_dxt * n_vac with
    n_vac >= n_dxt.  ``n_mac``, ``w_core_kb`` and ``max_ctx`` are exact ints
    (the rule of ``genome.require_ints``), or ValueError names the argument;
    so does a ``max_layer_weight_bytes`` that is not finite and >= 0.
    """
    for name, value in (("n_mac", n_mac), ("w_core_kb", w_core_kb), ("max_ctx", max_ctx)):
        if type(value) is not int:
            raise ValueError(f"build_chip: {name} must be an int, got {value!r}")
    if w_core_kb <= 0:
        raise ValueError("chip dimensions must be positive")
    # inf would never end the doubling below, and NaN would end it at once
    if not 0 <= max_layer_weight_bytes < math.inf:
        raise ValueError(f"build_chip: max_layer_weight_bytes must be finite and >= 0, "
                         f"got {max_layer_weight_bytes!r}")
    per_core = w_core_kb * 1024
    n_cores = 1
    while n_cores * per_core < max_layer_weight_bytes:
        n_cores *= 2
    return _chip(n_mac, w_core_kb, n_cores, max_ctx)


@functools.lru_cache(maxsize=256)
def _chip(n_mac: int, w_core_kb: int, n_cores: int, max_ctx: int) -> ChipTemplate:
    """The chip of ``n_cores`` (a power of two) cores split as
    n_dxt * n_vac, memoised by value in a bounded cache: a chip depends only
    on these four ints, which repeat across the genomes of a search.  An
    error is raised again on every call, never cached."""
    k = n_cores.bit_length() - 1
    n_dxt = 1 << (k // 2)
    n_vac = 1 << (k - k // 2)
    return ChipTemplate(n_mac=n_mac, w_core_kb=w_core_kb, n_dxt=n_dxt,
                        n_vac=n_vac, max_ctx=max_ctx)


@dataclass(frozen=True)
class RingPlan:
    """A packed ring: contiguous stage ranges plus per-stage resource totals."""

    chip: ChipTemplate
    partition: tuple[tuple[int, ...], ...]
    profiles: tuple[LayerProfile, ...]
    hop_bytes: int

    def __post_init__(self):
        flat = [i for stage in self.partition for i in stage]
        if flat != list(range(len(self.profiles))):
            raise ValueError("partition must cover all layers contiguously in order")
        if not all(stage for stage in self.partition):
            raise ValueError("stages must be non-empty")

    @property
    def n_chips(self) -> int:
        return len(self.partition)


@dataclass(frozen=True)
class RingResult:
    """One feasible grid point: the chip, its plan, simulated cost and area."""

    chip: ChipTemplate
    plan: RingPlan
    cost: HWCost
    n_chips_max: int

    @property
    def total_area(self) -> float:
        return self.plan.n_chips * self.chip.area

    def objectives(self) -> tuple[float, float, float, float]:
        return (self.cost.ttft_s, self.cost.tpot_s, self.cost.e_tok_j, self.total_area)


def ring_simulate(plan: RingPlan, workload: Workload) -> HWCost:
    """Token-pipeline cost of one packed ring.

    TPOT is the slowest stage plus one inter-chip hop; TTFT is the prefill
    sweep through every stage plus the fill hops; energy charges each
    layer's MACs, its weight and KV reads from SRAM (weights stay resident,
    DRAM is idle during decode), and one ring traversal per token.
    """
    profiles = plan.profiles
    return _simulate(plan, workload, _stage_ops(profiles, plan.partition),
                     sum(p.decode_ops for p in profiles),
                     _layer_energy(profiles, workload, plan.chip))


def _stage_ops(profiles, partition) -> list:
    """Each stage's decode ops, summed in layer order."""
    return [sum(profiles[i].decode_ops for i in stage) for stage in partition]


def _layer_energy(profiles, workload: Workload, chip: ChipTemplate) -> float:
    """Per-token energy of every layer's MACs and its weight and KV reads
    at the workload's mean context: ``ring_simulate``'s energy before the
    ring traversal."""
    ctx, e_mac, e_sram = workload.ctx_mean, chip.e_mac_j, chip.e_sram_j_per_byte
    return sum(
        p.decode_ops * e_mac + (p.weight_bytes + p.kv_bytes_per_token * ctx) * e_sram
        for p in profiles
    )


def _simulate(plan: RingPlan, workload: Workload, stage_ops, total_ops, layer_energy) -> HWCost:
    """``ring_simulate`` from its terms that do not depend on the chip's
    throughput or hops: each stage's ops sum, the model's ops sum and
    ``_layer_energy``."""
    chip = plan.chip
    throughput = chip.throughput
    tau = [ops / throughput for ops in stage_ops]
    tpot = max(tau) + chip.hop_latency_s
    ttft = (
        workload.prefill_tokens * total_ops / throughput
        + (plan.n_chips - 1) * chip.hop_latency_s
    )
    e_tok = layer_energy + plan.n_chips * plan.hop_bytes * chip.hop_energy_j_per_byte
    return HWCost(e_tok, ttft, tpot)


GRID_AXES = ("n_mac", "w_core_kb", "n_chips_max")


@dataclass(frozen=True)
class ChipGrid:
    """The ``(n_mac, w_core_kb, n_chips_max)`` points a co-search sweeps, in
    order (a repeated point is swept and counted once per occurrence), and
    each memory size's distinct caps, largest first.

    The constructor is the one place a grid value is checked: an exact int
    (the rule of ``genome.require_ints``) in [1, 2**53], or ValueError
    naming its axis.
    """

    points: tuple[tuple[int, int, int], ...]
    caps: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = tuple((n_mac, w_core, cap) for n_mac, w_core, cap in self.points)
        caps: dict[int, set[int]] = {}
        for point in points:
            for axis, value in zip(GRID_AXES, point):
                if type(value) is not int or not 1 <= value <= MAX_EXACT_INT:
                    raise ValueError(f"{axis} must be an int >= 1 and <= 2**53, got {value!r}")
            caps.setdefault(point[1], set()).add(point[2])
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "caps", {w_core: tuple(sorted(c, reverse=True))
                                          for w_core, c in caps.items()})


DEFAULT_CHIP_GRID = ChipGrid(
    itertools.product(N_MAC_CHOICES, W_CORE_KB_CHOICES, N_CHIPS_MAX_CHOICES))


def _pack_by_cap(profiles, limits, caps, packs) -> None:
    """Fill ``packs[limits, cap]`` for every cap of ``caps``, which lists
    them largest first (``ChipGrid.caps``).

    A budget is feasible under a cap when the greedy partition exists and
    fits in the cap's stages, so whatever fits under a cap fits under every
    larger one.  The next larger cap's answer therefore settles a cap when
    it is None, or when it has at most that many stages (it is then the
    smallest feasible budget's partition under both); only the other caps
    are packed.
    """
    larger = None
    for cap in caps:
        if (limits, cap) not in packs:
            if larger is not None and (larger[1] is None or len(larger[1]) <= cap):
                packs[limits, cap] = larger[1]
            else:
                part = balanced_contiguous_pack(profiles, limits, cap)
                packs[limits, cap] = None if part is None else tuple(tuple(s) for s in part)
        larger = cap, packs[limits, cap]


def chip_grid_search(
    genome: ArchGenome,
    workload: Workload,
    grid: ChipGrid = DEFAULT_CHIP_GRID,
    top_k: int = 3,
) -> tuple[list[RingResult], int]:
    """Sweep the chip grid, pack and simulate each feasible point, and
    return the top_k mutually non-dominated results by descending crowding
    distance, plus the number of grid points the model packed onto.

    The result list is empty when no grid point fits the model (or the grid
    is empty); the caller treats that as infinite hardware metrics.  Only
    the work that can change the answer runs: each memory size
    (``w_core_kb``) builds one chip for its stage limits, and a memory size
    whose limits cannot hold the genome's largest per-layer weight, KV or
    activation term packs nothing (the fit rule).  A memory size that fits
    packs its caps from the largest down, reusing a larger cap's answer
    where it settles a smaller one (the cap rule, ``_pack_by_cap``).
    Beyond those chips, only a feasible point builds one, and each distinct
    (chip, plan) is simulated from sums taken once per call (the
    simulation sums).  The grid's values were checked when it was built
    (``ChipGrid``).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    profiles = profile_model(genome, workload)
    layer_profiles = tuple(profiles)
    ctx = workload.ctx_peak
    max_w = max(p.weight_bytes for p in profiles)
    # the single-layer terms balanced_contiguous_pack checks first; every
    # chip of one call holds KV for ctx_peak
    max_kv = max(p.kv_bytes_per_token * ctx for p in profiles)
    max_act = max(p.act_bytes for p in profiles)
    # the stage limits do not depend on n_mac or the cap, so each memory
    # size decides once whether they hold every layer (None if not)
    fits: dict = {}
    # a chip does not depend on the cap
    chips: dict = {}
    packs: dict = {}
    # the simulation's terms that depend on neither the chip's throughput
    # nor its hops: the model's ops, each distinct partition's stage ops,
    # and the layers' energy under each pair of energy constants (one pair:
    # build_chip keeps the defaults)
    total_ops = sum(p.decode_ops for p in profiles)
    stage_ops: dict = {}
    energy: dict = {}
    results: list[RingResult] = []
    seen: set = set()
    n_feasible = 0
    for n_mac, w_core, cap in grid.points:
        if w_core not in fits:
            chip = chips[n_mac, w_core] = build_chip(n_mac, w_core, max_w, ctx)
            limits = StageLimits(chip.weight_cap, chip.kv_cap, chip.scratch_bytes, chip.max_ctx)
            if (max_w <= limits.weight_cap and max_kv <= limits.kv_cap
                    and max_act <= limits.act_cap):
                fits[w_core] = limits
                _pack_by_cap(profiles, limits, grid.caps[w_core], packs)
            else:
                fits[w_core] = None
        limits = fits[w_core]
        partition = None if limits is None else packs[limits, cap]
        if partition is None:
            continue  # only a feasible point needs its chip
        if (n_mac, w_core) not in chips:
            chips[n_mac, w_core] = build_chip(n_mac, w_core, max_w, ctx)
        chip = chips[n_mac, w_core]
        n_feasible += 1
        # grid points whose cap was not binding realize the same (chip, plan)
        # design; keep the first occurrence only.  Within one call the chip
        # is a function of (n_mac, w_core_kb), so those two stand for it in
        # the key
        key = (n_mac, w_core, partition)
        if key in seen:
            continue
        seen.add(key)
        plan = RingPlan(
            chip=chip,
            partition=partition,
            profiles=layer_profiles,
            hop_bytes=genome.global_cfg.d_model,
        )
        if partition not in stage_ops:
            stage_ops[partition] = _stage_ops(profiles, partition)
        constants = chip.e_mac_j, chip.e_sram_j_per_byte
        if constants not in energy:
            energy[constants] = _layer_energy(profiles, workload, chip)
        cost = _simulate(plan, workload, stage_ops[partition], total_ops, energy[constants])
        results.append(RingResult(chip, plan, cost, cap))
    if not results:
        return [], n_feasible
    objs = np.array([r.objectives() for r in results], dtype=float)
    front = pareto_front(objs)
    crowd = crowding_distance(objs[front])
    ranked = sorted(range(len(front)), key=lambda j: (-crowd[j], j))
    return [results[front[j]] for j in ranked[:top_k]], n_feasible


def best_ring_pick(picks: list[RingResult]) -> RingResult:
    """The pick with the smallest energy x TTFT x TPOT product (the three
    search objectives shrink together).  Ties go to the earlier pick, which
    ranks higher by crowding distance."""
    return min(picks, key=lambda r: r.cost.e_tok_j * r.cost.ttft_s * r.cost.tpot_s)


def ring_cost(genome: ArchGenome, workload: Workload) -> RingResult | None:
    """Single-pick reduction of the grid search for use as a search backend:
    the ``best_ring_pick`` of the default grid's top 3 non-dominated
    (chip, plan) pairs, whose ``.cost`` is the cost; None when nothing fits.
    """
    picks, _ = chip_grid_search(genome, workload)
    return best_ring_pick(picks) if picks else None


def write_plan_csv(plan: RingPlan, workload: Workload, path: str) -> None:
    """Per-stage table: layer range, resource totals, decode latency."""
    chip = plan.chip
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "stage", "layer_start", "layer_end", "weight_bytes",
            "kv_bytes_at_max_ctx", "decode_ops", "act_bytes", "decode_latency_s",
        ])
        for s, stage in enumerate(plan.partition):
            w, k, o, a = stage_totals(list(plan.profiles), list(stage), chip.max_ctx)
            writer.writerow([
                s, stage[0], stage[-1], int(w), repr(float(k)), repr(float(o)),
                int(a), repr(o / chip.throughput),
            ])
