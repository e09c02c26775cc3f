"""Multi-chip ring co-search: profile a model, sweep chips, pack a pipeline.

A model too large for one accelerator is split into contiguous layer groups
placed around a ring of identical chips; weights stay resident, activations
hop stage to stage.  For a candidate chip (MAC count, per-core weight SRAM)
the packer finds the contiguous partition that minimizes the bottleneck
stage's decode work: a greedy packer scans at an ops budget, and the budget
rises to the smallest stage sum the scan turned away until the model fits.
Sweeping a 45-point chip grid and keeping the Pareto-best (chip, plan) pairs
turns one genome into hardware metrics: TTFT, TPOT, energy/token, area.

The subject here is shaped like SmolLM2-360M: 32 layers, width 960.

Run:  python demos/04_ring_packing.py
"""
from ihasearch.genome import ArchGenome, GlobalConfig, LayerGene, genome_id
from ihasearch.hwcost import (
    DEFAULT_CHIP_GRID,
    Workload,
    chip_grid_search,
    profile_model,
    ring_cost,
)


def main() -> None:
    gene = LayerGene(mask=1, attn=1, n_h=15, n_kv=5, d_qk=64, d_v=64, d_mlp=2560)
    genome = ArchGenome(GlobalConfig(d_model=960, block_size=1024, max_layers=32),
                        tuple(gene for _ in range(32)))
    workload = Workload(prefill_tokens=512, decode_tokens=256)
    print(f"subject genome {genome_id(genome)}: 32 layers, d_model=960, "
          f"15 heads on 5 KV groups")

    print("\n== step 1: per-layer resource profile ==")
    profiles = profile_model(genome, workload)
    p = profiles[0]
    print(f"each layer: weights {p.weight_bytes / 1e6:.2f} MB, "
          f"KV {p.kv_bytes_per_token} B/token, "
          f"decode {p.decode_ops / 1e6:.1f} M ops, "
          f"activations {p.act_bytes / 1e3:.1f} KB")
    total_w = sum(q.weight_bytes for q in profiles)
    print(f"whole model: {total_w / 1e6:.1f} MB of weights -> needs a ring")

    print(f"\n== step 2: sweep the {len(DEFAULT_CHIP_GRID.points)}-point chip grid ==")
    picks, _ = chip_grid_search(genome, workload)
    print(f"Pareto-best (chip, plan) pairs: {len(picks)}")
    print(f"{'n_mac':>6} {'w_core_kb':>10} {'n_cores':>8} {'n_chips':>8} "
          f"{'ttft_s':>10} {'tpot_s':>10} {'e_tok_j':>10} {'area':>7}")
    for r in picks:
        print(f"{r.chip.n_mac:>6} {r.chip.w_core_kb:>10} {r.chip.n_cores:>8} "
              f"{r.plan.n_chips:>8} {r.cost.ttft_s:>10.4g} {r.cost.tpot_s:>10.4g} "
              f"{r.cost.e_tok_j:>10.4g} {r.total_area:>7.4g}")

    print("\n== step 3: the single pick a search loop would consume ==")
    best = ring_cost(genome, workload)
    cost = best.cost
    print(f"chosen chip: {best.chip.n_mac} MACs x {best.chip.n_cores} cores, "
          f"{best.chip.w_core_kb} KB weight SRAM/core")
    print(f"ring: {best.plan.n_chips} chips, stage sizes "
          f"{[len(s) for s in best.plan.partition]}")
    print(f"metrics: TTFT {cost.ttft_s * 1e3:.3f} ms, "
          f"TPOT {cost.tpot_s * 1e6:.2f} us, "
          f"E_tok {cost.e_tok_j * 1e6:.1f} uJ")

    print("\n== and when nothing fits ==")
    huge = ArchGenome(GlobalConfig(d_model=768, block_size=8192, max_layers=40),
                      tuple(LayerGene(1, 1, 16, 16, 512, 512, 4096)
                            for _ in range(40)))
    result = ring_cost(huge, Workload(4096, 4096))
    print(f"40 maxed-out layers at 8k context: {result!r}")
    print("the search loop maps this to infinite hardware metrics and moves on.")


if __name__ == "__main__":
    main()
