"""Acceptance suite: ten end-to-end contracts with stated tolerances.

 1. configuration counting (27 GQA / 11,250 IHA, independent enumerator, <1s)
 2. encoder parameter count (exactly 203,713)
 3. gradient fidelity (analytic vs central differences, <1e-4, >=1000 coords)
 4. packing optimality (500 instances vs exhaustive oracle, exact, <30s)
 5. NSGA-II correctness (sorting + archive vs brute dominance, exact)
 6. decoupled-attention reduction (vs MHA / replicated-GQA oracles, 1e-10)
 7. ranking metric definitions (vs brute-force formulas, 1e-12 / exact)
 8. ablation direction (median hypervolume ordering over 5 seeds, <10min)
 9. determinism (identical manifests -> byte-identical archive CSVs)
10. chip-grid contract (45 configs; top-K mutually non-dominated)
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bottleneck_ops,
    brute_best_bottleneck,
    brute_dominates,
    brute_k_at_x,
    brute_kendall_tau_b,
    brute_mae_at_top,
    brute_nondominated_sort,
    brute_pareto_front,
    brute_spearman_rho,
)
from test_attention import gqa_replicated_oracle, mha_oracle
from test_gradients import fd_check
from test_search import feasible_arrays

from ihasearch import genome as gn
from ihasearch.attention import iha_forward, random_weights
from ihasearch.cli import main
from ihasearch.genome import (
    ArchGenome,
    GlobalConfig,
    LayerGene,
    count_attention_configs,
)
from ihasearch.hwcost import (
    DEFAULT_CHIP_GRID,
    ChipGrid,
    LayerProfile,
    RingPlan,
    RingResult,
    StageLimits,
    Workload,
    balanced_contiguous_pack,
    build_chip,
    chip_grid_search,
    profile_model,
    ring_simulate,
)
from ihasearch.hwcost.ring import W_CORE_KB_CHOICES
from ihasearch.metrics import (
    crowding_distance,
    k_at_x,
    kendall_tau,
    mae_at_top,
    pareto_front,
    spearman_rho,
)
from ihasearch.search import (
    Individual,
    ParetoArchive,
    SearchConfig,
    ablation_suite,
    fast_nondominated_sort,
    surrogate_preset,
)
from ihasearch.surrogate import EncoderSurrogate, FieldNormalizer
from ihasearch.surrogate.features import featurize_batch

QK_GRID = range(64, 513, 32)  # 15 values
HEAD_GRID = range(1, 17)


class TestCriterion1ConfigurationCounting:
    def test_counts_and_independent_enumerator(self):
        t0 = time.perf_counter()

        def enum_gqa(d_model):
            return sum(
                1
                for n_h in HEAD_GRID
                for n_kv in HEAD_GRID
                if d_model % n_h == 0 and n_h % n_kv == 0
            )

        def enum_iha():
            return sum(
                1
                for n_h in HEAD_GRID
                for n_kv in HEAD_GRID
                for _dqk in QK_GRID
                for _dv in QK_GRID
                if n_h % n_kv == 0
            )

        assert count_attention_configs("gqa", d_model=768) == 27
        assert count_attention_configs("iha", d_model=768) == 11250
        assert enum_gqa(768) == 27
        assert enum_iha() == 11250
        for d_model in (64, 512, 960):
            assert count_attention_configs("gqa", d_model=d_model) == enum_gqa(d_model)
            assert count_attention_configs("iha", d_model=d_model) == enum_iha()
        assert time.perf_counter() - t0 < 1.0


class TestCriterion2SurrogateParameterCount:
    def test_exact_count_at_defaults(self):
        assert EncoderSurrogate.init(seed=0).param_count() == 203_713


class TestCriterion3GradientFidelity:
    def test_analytic_matches_central_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        cfg = gn.GlobalConfig(max_layers=40)
        genomes = []
        for want in (1, 13, 27, 40):  # 4-sample batch spanning activity levels
            g = gn.random_genome(rng=rng, global_cfg=cfg)
            layers = [
                dataclasses.replace(l, mask=1 if i < want else 0)
                for i, l in enumerate(g.layers)
            ]
            genomes.append(gn.ArchGenome(g.global_cfg, tuple(layers)))
        toks, masks = featurize_batch(genomes, FieldNormalizer.fit(genomes))

        model = EncoderSurrogate.init(seed=6)  # default config, p_drop=0.2
        checked, worst = fd_check(model, toks, masks, coords_per_tensor=16,
                                  seed=2, rng_seed=17)
        assert checked >= 1000
        assert worst < 1e-4, f"worst rel err {worst:.3e} over {checked} coords"
        assert time.perf_counter() - t0 < 60.0


class TestCriterion4PackingOptimality:
    def test_500_instances_match_exhaustive_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(500):
            n = int(rng.integers(1, 11))
            raw = [tuple(int(rng.integers(1, 25)) for _ in range(4)) for _ in range(n)]
            layers = [LayerProfile(*r) for r in raw]
            w_cap, k_cap, a_cap = (int(rng.integers(20, 70)) for _ in range(3))
            cap = int(rng.integers(1, 6))
            got = balanced_contiguous_pack(layers, StageLimits(w_cap, k_cap, a_cap, 1.0), cap)
            want = brute_best_bottleneck(raw, w_cap, k_cap, a_cap, 1.0, cap)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert bottleneck_ops(layers, got) == want[0]
                solved += 1
        assert solved > 100  # the sweep must exercise non-trivial instances
        assert time.perf_counter() - t0 < 30.0


class TestCriterion5NsgaCorrectness:
    def test_sorting_matches_brute_force_on_200_populations(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(2, 5))
            # integer grid forces duplicates and ties
            pts = [tuple(float(v) for v in rng.integers(0, 6, size=m)) for _ in range(n)]
            got = fast_nondominated_sort(feasible_arrays(pts)[1])
            want = brute_nondominated_sort(pts)
            assert [sorted(f) for f in got] == [sorted(f) for f in want], trial

    def test_archive_matches_brute_force_front(self):
        rng = np.random.default_rng(6)
        g = gn.random_genome(rng=np.random.default_rng(0))
        for trial in range(200):
            n = int(rng.integers(2, 31))
            inds = [
                Individual(
                    genome=g,
                    gid=f"g{rng.integers(0, n)}" if rng.random() < 0.3 else f"u{i}",
                    val_loss=float(rng.integers(0, 6)),
                    e_tok_j=float(rng.integers(0, 6)),
                    ttft_s=float(rng.integers(0, 6)),
                    tpot_s=float(rng.integers(0, 6)),
                    feasible=bool(rng.random() < 0.8),
                    violation=0.0,
                    born_gen=0,
                )
                for i in range(n)
            ]
            archive = ParetoArchive()
            # feed in two arbitrary waves to exercise incremental updates
            cut = n // 2
            archive.update(inds[:cut])
            archive.update(inds[cut:])

            seen: dict[str, Individual] = {}
            for ind in inds:
                if ind.feasible and ind.gid not in seen:
                    seen[ind.gid] = ind
            pool = list(seen.values())
            keep = brute_pareto_front([ind.objectives for ind in pool])
            want = sorted((pool[i].gid, pool[i].objectives) for i in keep)
            got = sorted((ind.gid, ind.objectives) for ind in archive.members)
            assert got == want, trial


class TestCriterion6AttentionReduction:
    def test_matches_mha_oracle_100_draws(self):
        rng = np.random.default_rng(7)
        d_model = 64
        for _ in range(100):
            n_h = int(rng.choice([1, 2, 4, 8]))
            d_h = d_model // n_h
            gene = LayerGene(1, 1, n_h, n_h, d_h, d_h, 512)
            w = random_weights(gene, d_model, rng)
            x = rng.normal(size=(int(rng.integers(2, 10)), d_model))
            causal = bool(rng.random() < 0.5)
            got = iha_forward(x, gene, w, causal=causal)
            want = mha_oracle(x, w.wq, w.wk, w.wv, w.wo, n_h, causal)
            assert np.abs(got - want).max() < 1e-10

    def test_matches_replicated_gqa_oracle_100_draws(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n_h = int(rng.integers(1, 9))
            divisors = [d for d in range(1, n_h + 1) if n_h % d == 0]
            n_kv = int(divisors[rng.integers(len(divisors))])
            gene = LayerGene(1, 1, n_h, n_kv, int(rng.choice([8, 16, 32])),
                             int(rng.choice([8, 16, 32])), 512)
            d_model = int(rng.choice([48, 96]))
            w = random_weights(gene, d_model, rng)
            x = rng.normal(size=(int(rng.integers(2, 10)), d_model))
            causal = bool(rng.random() < 0.5)
            got = iha_forward(x, gene, w, causal=causal)
            want = gqa_replicated_oracle(x, gene, w, causal)
            assert np.abs(got - want).max() < 1e-10


class TestCriterion7MetricDefinitions:
    def test_100_random_vectors_against_brute_force(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            if trial % 2:  # alternate tie-rich integer vectors and smooth ones
                pred = rng.integers(0, 8, size=n).astype(float)
                truth = rng.integers(0, 8, size=n).astype(float)
            else:
                pred = rng.normal(size=n)
                truth = rng.normal(size=n)
            if len(set(pred)) > 1 and len(set(truth)) > 1:
                assert abs(kendall_tau(pred, truth)
                           - brute_kendall_tau_b(list(pred), list(truth))) < 1e-12
                assert abs(spearman_rho(pred, truth)
                           - brute_spearman_rho(list(pred), list(truth))) < 1e-12
            for x in (0.01, 0.05, 0.25):
                assert k_at_x(pred, truth, x) == brute_k_at_x(pred, truth, x)
                assert mae_at_top(pred, truth, x) == brute_mae_at_top(pred, truth, x)


class TestCriterion8AblationDirection:
    def test_median_final_hypervolume_ordering(self):
        t0 = time.perf_counter()
        base = dataclasses.replace(
            surrogate_preset("gemmini", seed=0),
            generations=15,
            refine_every_generations=0,
            evaluator="oracle",
        )
        suite = ablation_suite(base, seeds=(0, 1, 2, 3, 4))
        med = suite.median_final()
        assert med["nsga_iha"] > med["random_iha"], med
        assert med["nsga_iha"] >= med["nsga_gqa"], med
        assert time.perf_counter() - t0 < 600.0


class TestCriterion9Determinism:
    def test_identical_manifests_byte_identical_archives(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population_size": 12,
            "offspring_size": 12,
            "generations": 6,
            "refine_every_generations": 0,
            "evaluator": "oracle",
            "backend": "analytic:gemmini",
            "seed": 17,
        }))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["search", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["search", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        assert (out1 / "archive.csv").read_bytes() == (out2 / "archive.csv").read_bytes()
        assert (out1 / "generations.csv").read_bytes() == (out2 / "generations.csv").read_bytes()


@st.composite
def grid_search_cases(draw):
    """A random genome, some cut to 1-3 active layers, one of three
    workloads, and a grid: the default, a one-w_core_kb sub-grid, a
    CLI-style product of axis lists (``ihasearch pack --grid``) in which one
    axis repeats a value, so that some grid points repeat, or a shuffled
    subset of the default grid's points, so that a chip has 1-3 caps in any
    order, with some points repeated."""
    genome = gn.random_genome(rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    keep = draw(st.sampled_from([None, None, 1, 2, 3]))
    if keep is not None:
        genome = ArchGenome(genome.global_cfg, tuple(
            dataclasses.replace(l, mask=int(j < keep)) for j, l in enumerate(genome.layers)))
    workload = draw(st.sampled_from([Workload(512, 256), Workload(100, 33), Workload(1, 1)]))
    kind = draw(st.sampled_from(["default", "one_w_core", "custom", "subset"]))
    if kind == "default":
        grid = DEFAULT_CHIP_GRID
    elif kind == "one_w_core":
        w_core = draw(st.sampled_from(W_CORE_KB_CHOICES))
        grid = ChipGrid(t for t in DEFAULT_CHIP_GRID.points if t[1] == w_core)
    elif kind == "subset":
        points = draw(st.lists(st.sampled_from(DEFAULT_CHIP_GRID.points), min_size=1,
                               max_size=30, unique=True))
        points += draw(st.lists(st.sampled_from(points), max_size=4))
        grid = ChipGrid(draw(st.permutations(points)))
    else:
        axes = [draw(st.lists(st.sampled_from(values), min_size=1, max_size=3)) for values in (
            (8, 16, 32, 64, 128), (12, 24, 48, 96, 192, 384, 768), (1, 2, 4, 8, 16, 32))]
        axis = draw(st.integers(0, 2))
        axes[axis].append(axes[axis][0])
        grid = ChipGrid(itertools.product(*axes))
    return genome, workload, grid


class TestCriterion10ChipGridContract:
    def test_grid_cardinality_and_axes(self):
        grid = DEFAULT_CHIP_GRID.points
        assert len(grid) == 45
        n_mac, w_core, caps = (sorted({t[i] for t in grid}) for i in range(3))
        assert n_mac == [16, 32, 64]
        assert w_core == [24, 48, 96, 192, 384]
        assert caps == [8, 16, 32]
        assert len(set(grid)) == 45  # full cross product, no repeats

    @staticmethod
    def _all_grid_candidates(genome, workload, grid=DEFAULT_CHIP_GRID):
        """Mirror the sweep with public APIs, packing at every grid point:
        every feasible (chip, plan) as a RingResult, and how many grid
        points packed."""
        profiles = profile_model(genome, workload)
        max_w = max(p.weight_bytes for p in profiles)
        seen, out, n_feasible = set(), [], 0
        for n_mac, w_core, cap in grid.points:
            chip = build_chip(n_mac, w_core, max_w, workload.ctx_peak)
            limits = StageLimits(chip.weight_cap, chip.kv_cap,
                                 chip.scratch_bytes, chip.max_ctx)
            part = balanced_contiguous_pack(profiles, limits, cap)
            if part is None:
                continue
            n_feasible += 1
            key = (chip, tuple(tuple(s) for s in part))
            if key in seen:
                continue
            seen.add(key)
            plan = RingPlan(chip=chip, partition=tuple(tuple(s) for s in part),
                            profiles=tuple(profiles),
                            hop_bytes=genome.global_cfg.d_model)
            out.append(RingResult(chip, plan, ring_simulate(plan, workload), cap))
        return out, n_feasible

    @staticmethod
    def _ranked_picks(results, top_k):
        """chip_grid_search's pick rule applied to a candidate list: the
        Pareto front by descending crowding distance, ties to the earlier."""
        if not results:
            return []
        objs = np.array([r.objectives() for r in results])
        front = pareto_front(objs)
        crowd = crowding_distance(objs[front])
        ranked = sorted(range(len(front)), key=lambda j: (-crowd[j], j))
        return [results[front[j]] for j in ranked[:top_k]]

    @pytest.mark.parametrize("workload", [Workload(512, 256), Workload(100, 33), Workload(1, 1)],
                             ids=["512-256", "100-33", "1-1"])
    def test_grid_search_equals_per_point_sweep(self, workload):
        """Packing only the memory sizes whose stage limits hold every layer,
        and only under the caps a larger cap does not settle, changes no
        pick, no pick order and no feasible count.  Sub-grids of one w_core_kb
        each put plans on the front that larger grids dominate."""
        grids = [DEFAULT_CHIP_GRID] + [ChipGrid(t for t in DEFAULT_CHIP_GRID.points if t[1] == w)
                                       for w in (24, 96, 384)]
        rng = np.random.default_rng(23)
        genomes = [gn.random_genome(rng=rng) for _ in range(6)]
        for i, g in enumerate(genomes[:3]):  # shallower stacks too
            keep = i + 1
            genomes.append(ArchGenome(g.global_cfg, tuple(
                dataclasses.replace(l, mask=int(j < keep)) for j, l in enumerate(g.layers))))
        for genome, grid in itertools.product(genomes, grids):
            candidates, n_packed = self._all_grid_candidates(genome, workload, grid)
            for top_k in (3, 45):
                picks, n_feasible = chip_grid_search(genome, workload, grid, top_k)
                assert n_feasible == n_packed
                assert picks == self._ranked_picks(candidates, top_k)

    @given(grid_search_cases(), st.sampled_from([1, 3, 45]))
    @settings(max_examples=120, deadline=None)
    def test_grid_search_equals_literal_sweep(self, case, top_k):
        """Building only the chips a feasible point needs, and packing only
        the memory sizes that fit under the caps a larger cap does not
        settle, gives the picks (chip types included), pick order and
        feasible count of packing and simulating every grid point."""
        genome, workload, grid = case
        candidates, n_packed = self._all_grid_candidates(genome, workload, grid)
        picks, n_feasible = chip_grid_search(genome, workload, grid, top_k)
        assert n_feasible == n_packed
        assert picks == self._ranked_picks(candidates, top_k)
        assert repr(picks) == repr(self._ranked_picks(candidates, top_k))

    def test_top_k_mutually_nondominated_and_on_front(self):
        rng = np.random.default_rng(11)
        workload = Workload(512, 256)
        smol = ArchGenome(
            GlobalConfig(d_model=960, block_size=1024, max_layers=32),
            tuple(LayerGene(1, 1, 15, 5, 64, 64, 2560) for _ in range(32)),
        )
        genomes = [smol] + [gn.random_genome(rng=rng) for _ in range(5)]
        checked = 0
        for genome in genomes:
            picks, n_feasible = chip_grid_search(genome, workload)
            objs = [r.objectives() for r in picks]
            for a, b in itertools.permutations(objs, 2):
                assert not brute_dominates(a, b)
            results, n_packed = self._all_grid_candidates(genome, workload)
            candidates = [r.objectives() for r in results]
            assert n_feasible == n_packed
            front_idx = brute_pareto_front(candidates)
            assert len(picks) == min(3, len(front_idx))
            front = {candidates[i] for i in front_idx}
            for o in objs:
                assert o in front
            checked += len(objs)
        assert checked > 0
