"""Multi-chip ring-dataflow backend: chip derivation, simulation, grid co-search.

A ring is a token-level pipeline of identical chips.  Layers are packed onto
contiguous stages (one chip each) with weights held stationary; tokens hop
around the ring once per decode step.  The co-search sweeps a 45-point chip
grid, packs the model onto each feasible template, simulates the ring, and
returns the top non-dominated (chip, plan) pairs on
(TTFT, TPOT, energy/token, total area).  A chip's stage limits do not depend
on its MAC count, so the model is packed once per distinct (stage limits,
chip cap) pair: 15 packs for the 45-point default grid.
"""
import csv
from dataclasses import dataclass

from ..genome import ArchGenome
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
        if not (_is_pow2(self.n_dxt) and _is_pow2(self.n_vac)):
            raise ValueError("tile and core counts must be powers of two")
        if self.n_vac < self.n_dxt:
            raise ValueError("n_vac must be >= n_dxt")
        if min(self.n_mac, self.w_core_kb, self.k_core_kb, self.max_ctx) <= 0:
            raise ValueError("chip dimensions must be positive")

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
    **overrides,
) -> ChipTemplate:
    """Derive the core split for one grid point.

    Picks the smallest power-of-two core count whose combined weight memory
    holds the largest single layer, then factors it as n_dxt * n_vac with
    n_vac >= n_dxt.
    """
    if w_core_kb <= 0:
        raise ValueError("chip dimensions must be positive")
    per_core = w_core_kb * 1024
    n_cores = 1
    while n_cores * per_core < max_layer_weight_bytes:
        n_cores *= 2
    k = n_cores.bit_length() - 1
    n_dxt = 1 << (k // 2)
    n_vac = 1 << (k - k // 2)
    return ChipTemplate(n_mac=n_mac, w_core_kb=w_core_kb, n_dxt=n_dxt,
                        n_vac=n_vac, max_ctx=max_ctx, **overrides)


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
    chip = plan.chip
    tau = [
        sum(plan.profiles[i].decode_ops for i in stage) / chip.throughput
        for stage in plan.partition
    ]
    tpot = max(tau) + chip.hop_latency_s
    total_ops = sum(p.decode_ops for p in plan.profiles)
    ttft = (
        workload.prefill_tokens * total_ops / chip.throughput
        + (plan.n_chips - 1) * chip.hop_latency_s
    )
    e_tok = sum(
        p.decode_ops * chip.e_mac_j
        + (p.weight_bytes + p.kv_bytes_per_token * workload.ctx_mean) * chip.e_sram_j_per_byte
        for p in plan.profiles
    )
    e_tok += plan.n_chips * plan.hop_bytes * chip.hop_energy_j_per_byte
    return HWCost(e_tok, ttft, tpot)


def default_chip_grid() -> list[tuple[int, int, int]]:
    """The swept (n_mac, w_core_kb, n_chips_max) grid, in deterministic order."""
    return [
        (n_mac, w_core, cap)
        for n_mac in N_MAC_CHOICES
        for w_core in W_CORE_KB_CHOICES
        for cap in N_CHIPS_MAX_CHOICES
    ]


def chip_grid_search(
    genome: ArchGenome,
    workload: Workload | None = None,
    grid: list[tuple[int, int, int]] | None = None,
    top_k: int = 3,
    bytes_per_elem: int = 1,
    **chip_overrides,
) -> tuple[list[RingResult], int]:
    """Sweep the chip grid, pack and simulate each feasible point, and return
    the top_k mutually non-dominated results by descending crowding distance,
    plus the number of grid points the model packed onto.

    The result list is empty when no grid point fits the model; the caller
    treats that as infinite hardware metrics.
    """
    wl = workload or Workload()
    profiles = profile_model(genome, wl, bytes_per_elem)
    layer_profiles = tuple(profiles)
    max_w = max(p.weight_bytes for p in profiles)
    results: list[RingResult] = []
    seen: set = set()
    # the stage limits do not depend on n_mac, so grid points that differ
    # only in n_mac share one pack
    packs: dict = {}
    n_feasible = 0
    for n_mac, w_core, cap in grid or default_chip_grid():
        chip = build_chip(n_mac, w_core, max_w, wl.ctx_peak, **chip_overrides)
        limits = StageLimits(chip.weight_cap, chip.kv_cap, chip.scratch_bytes, chip.max_ctx)
        if (limits, cap) not in packs:
            part = balanced_contiguous_pack(profiles, limits, cap)
            packs[limits, cap] = None if part is None else tuple(tuple(s) for s in part)
        partition = packs[limits, cap]
        if partition is None:
            continue
        n_feasible += 1
        # grid points whose cap was not binding realize the same (chip, plan)
        # design; keep the first occurrence only
        key = (chip, partition)
        if key in seen:
            continue
        seen.add(key)
        plan = RingPlan(
            chip=chip,
            partition=partition,
            profiles=layer_profiles,
            hop_bytes=genome.global_cfg.d_model * bytes_per_elem,
        )
        results.append(RingResult(chip, plan, ring_simulate(plan, wl), cap))
    if not results:
        return [], n_feasible
    front = pareto_front([r.objectives() for r in results])
    crowd = crowding_distance([results[i].objectives() for i in front])
    ranked = sorted(range(len(front)), key=lambda j: (-crowd[j], j))
    return [results[front[j]] for j in ranked[:top_k]], n_feasible


def best_ring_pick(picks: list[RingResult]) -> RingResult:
    """The pick with the smallest energy x TTFT x TPOT product (the three
    search objectives shrink together).  Ties go to the earlier pick, which
    ranks higher by crowding distance."""
    return min(picks, key=lambda r: r.cost.e_tok_j * r.cost.ttft_s * r.cost.tpot_s)


def ring_cost(
    genome: ArchGenome,
    workload: Workload | None = None,
    top_k: int = 3,
    bytes_per_elem: int = 1,
    **chip_overrides,
) -> tuple[HWCost, RingResult] | None:
    """Single-triple reduction of the grid search for use as a search backend.

    Among the top_k non-dominated (chip, plan) pairs, returns the
    ``best_ring_pick`` with its cost; None when nothing fits.
    """
    picks, _ = chip_grid_search(genome, workload, None, top_k, bytes_per_elem, **chip_overrides)
    if not picks:
        return None
    best = best_ring_pick(picks)
    return best.cost, best


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
