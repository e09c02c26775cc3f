"""Search-module tests: config codec, variation operators, NSGA ranking and
survival against brute-force oracles, the generation loop, and the ablation
suite."""
import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_constrained_dominates,
    brute_constrained_sort,
    brute_nondominated_sort,
    brute_pareto_front,
    brute_survival,
)
from ihasearch.genome import (
    ArchGenome,
    GlobalConfig,
    LayerGene,
    SpaceRanges,
    genome_id,
    random_genome,
    repair,
    validate,
)
from ihasearch.metrics import constraint_dominance_matrix, crowding_distance, pareto_front
from ihasearch.search import (
    MutationRates,
    SearchConfig,
    ablation_suite,
    crossover,
    fast_nondominated_sort,
    gqa_repair,
    mutate,
    nsga_survival,
    ring_preset,
    run_search,
    surrogate_preset,
    tournament_select,
)
from ihasearch.search.engine import (
    acquisition_indices,
    acquisition_select,
    default_hv_ref,
)
from ihasearch.search.operators import gqa_allowed_heads
from ihasearch.surrogate import EncoderConfig, make_synthetic_corpus, split_corpus, train


RANGES = SpaceRanges()


def gene(mask=1, attn=1, n_h=8, n_kv=2, d_qk=64, d_v=64, d_mlp=1024):
    return LayerGene(mask, attn, n_h, n_kv, d_qk, d_v, d_mlp)


def stack(genes, d_model=768, block_size=1024):
    return ArchGenome(GlobalConfig(d_model, block_size, len(genes)), tuple(genes))


def constrained_arrays(points):
    """Values (n, m) and constraint-dominance matrix of (values, feasible,
    violation) triples, the form the NSGA entry points take."""
    m = len(points[0][0]) if points else 0
    values = np.array([v for v, _, _ in points], dtype=float).reshape(len(points), m)
    feasible = np.array([f for _, f, _ in points], dtype=bool)
    violation = np.array([viol for _, _, viol in points], dtype=float)
    return values, constraint_dominance_matrix(values, feasible, violation)


def feasible_arrays(pts):
    """``constrained_arrays`` of plain objective tuples, all feasible."""
    return constrained_arrays([(p, True, 0.0) for p in pts])


class ScriptedRng:
    """Stand-in for numpy Generator with a fixed script of draws."""

    def __init__(self, ints=(), rands=()):
        self._ints = list(ints)
        self._rands = list(rands)

    def integers(self, a, b=None):
        return self._ints.pop(0)

    def random(self):
        return self._rands.pop(0)


@pytest.fixture(scope="module")
def tiny_surrogate():
    genomes, labels = make_synthetic_corpus(24, seed=3)
    corpus = split_corpus(genomes, labels, test_frac=0.25, seed=0)
    cfg = EncoderConfig(d_enc=16, n_blocks=2, n_heads=2, ffn_mult=2, p_drop=0.2, max_layers=40)
    model, _ = train(corpus, config=cfg, epochs=3, seed=100)
    return model, corpus


class TestSearchConfig:
    def test_surrogate_preset_values(self):
        c = surrogate_preset("flat", seed=7)
        assert (c.population_size, c.offspring_size, c.generations) == (24, 48, 40)
        assert (c.crossover_rate, c.mutation_rate) == (0.6, 0.3)
        assert (c.refine_every_generations, c.refine_batch_size) == (5, 8)
        assert (c.mc_dropout_passes, c.replay_ratio) == (10, 5.0)
        assert c.val_loss_max == 3.8
        assert (c.prefill_tokens, c.decode_tokens) == (256, 256)
        assert c.backend == "analytic:flat" and c.evaluator == "surrogate"
        assert c.seed == 7

    def test_ring_preset_values(self):
        c = ring_preset()
        assert (c.population_size, c.offspring_size, c.generations) == (24, 12, 20)
        assert c.refine_every_generations == 0
        assert c.val_loss_max == 3.5
        assert (c.prefill_tokens, c.decode_tokens) == (512, 256)
        assert c.backend == "ring" and c.evaluator == "oracle"

    def test_json_round_trip(self):
        for preset in (surrogate_preset("eyeriss", seed=5), ring_preset(seed=2)):
            text = preset.to_json()
            assert SearchConfig.from_json(text) == preset
            assert preset.to_json() == text

    def test_from_dict_nested_rates(self):
        d = surrogate_preset().to_dict()
        d["mutation_rates"]["perturbation"] = 0.2
        c = SearchConfig.from_dict(d)
        assert c.mutation_rates.perturbation == 0.2

    def test_rejections(self):
        with pytest.raises(ValueError):
            SearchConfig(evaluator="psychic")
        with pytest.raises(ValueError):
            SearchConfig(backend="analytic:unobtainium")
        with pytest.raises(ValueError):
            SearchConfig(backend="quantum")
        with pytest.raises(ValueError):
            SearchConfig(evaluator="oracle", refine_every_generations=5)
        with pytest.raises(ValueError):
            SearchConfig(population_size=0)
        with pytest.raises(ValueError):
            SearchConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            SearchConfig.from_dict({"popsize": 3})
        with pytest.raises(ValueError, match="nested too deeply"):
            SearchConfig.from_json("[" * 100_000)
        with pytest.raises(ValueError):
            MutationRates(deletion=-0.1)
        with pytest.raises(ValueError):
            SearchConfig(variation="annealing")


class TestTournament:
    def test_dominator_wins_head_to_head(self):
        _, dom = feasible_arrays([(1.0, 1.0), (2.0, 2.0)])
        assert tournament_select(dom, [0.0, 0.0], ScriptedRng(ints=[0, 1]), 1) == [0]
        assert tournament_select(dom, [0.0, 0.0], ScriptedRng(ints=[1, 0]), 1) == [0]
        # sampling is with replacement, so the dominated one only ever wins
        # a self-match
        rng = np.random.default_rng(0)
        winners = tournament_select(dom, [0.0, 0.0], rng, 400)
        assert winners.count(0) > winners.count(1) * 2

    def test_feasible_beats_infeasible(self):
        _, dom = constrained_arrays([((9.0, 9.0), True, 0.0), ((1.0, 1.0), False, 0.5)])
        assert tournament_select(dom, [0.0, 0.0], ScriptedRng(ints=[0, 1]), 1) == [0]
        assert tournament_select(dom, [0.0, 0.0], ScriptedRng(ints=[1, 0]), 1) == [0]

    def test_crowding_breaks_ties(self):
        _, dom = feasible_arrays([(1.0, 2.0), (2.0, 1.0)])
        assert tournament_select(dom, [0.0, 5.0], ScriptedRng(ints=[0, 1]), 1) == [1]
        assert tournament_select(dom, [0.0, 5.0], ScriptedRng(ints=[1, 0]), 1) == [1]

    def test_exact_tie_goes_to_first_drawn(self):
        _, dom = feasible_arrays([(1.0, 2.0), (2.0, 1.0)])
        assert tournament_select(dom, [1.0, 1.0], ScriptedRng(ints=[0, 1]), 1) == [0]
        assert tournament_select(dom, [1.0, 1.0], ScriptedRng(ints=[1, 0]), 1) == [1]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tournament_select(feasible_arrays([])[1], [], np.random.default_rng(0), 1)
        with pytest.raises(ValueError):
            tournament_select(feasible_arrays([(1.0,)])[1], [], np.random.default_rng(0), 1)


class TestCrossover:
    def test_single_point_structure(self):
        n = 6
        p1 = stack([gene(d_qk=64) for _ in range(n)])
        p2 = stack([gene(d_qk=512) for _ in range(n)])
        cuts_seen = set()
        for seed in range(60):
            child = crossover(p1, p2, np.random.default_rng(seed), repair)
            widths = [l.d_qk for l in child.layers]
            u = widths.index(512)
            cuts_seen.add(u)
            assert widths == [64] * u + [512] * (n - u)
            assert 1 <= u <= n - 1
        assert cuts_seen == set(range(1, n))

    def test_scripted_cut(self):
        p1 = stack([gene(d_mlp=512)] * 4)
        p2 = stack([gene(d_mlp=4096)] * 4)
        child = crossover(p1, p2, ScriptedRng(ints=[2]), repair)
        assert [l.d_mlp for l in child.layers] == [512, 512, 4096, 4096]

    def test_global_config_from_first_parent(self):
        p1 = stack([gene()] * 4, block_size=1024)
        p2 = stack([gene()] * 4, block_size=2048)
        child = crossover(p1, p2, np.random.default_rng(0), repair)
        assert child.global_cfg == p1.global_cfg

    def test_mismatched_parents_rejected(self):
        with pytest.raises(ValueError):
            crossover(stack([gene()] * 4), stack([gene()] * 5), np.random.default_rng(0), repair)

    def test_custom_repair_hook(self):
        p1 = stack([gene(n_h=5, n_kv=5, d_qk=96, d_v=96)] * 4)
        p2 = stack([gene(n_h=7, n_kv=7, d_qk=64, d_v=64)] * 4)
        child = crossover(p1, p2, np.random.default_rng(3), repair_fn=gqa_repair)
        for l in child.active_layers():
            assert l.d_qk == l.d_v == 768 // l.n_h


class TestMutate:
    def test_zero_rates_identity(self):
        g = stack([gene(), gene(mask=0), gene(n_h=4, n_kv=4)])
        rates = MutationRates(0.0, 0.0, 0.0, 0.0)
        assert mutate(g, np.random.default_rng(0), rates, RANGES, repair) == g

    def test_deletion_flips_gate_both_ways(self):
        g = stack([gene(mask=1), gene(mask=0), gene(mask=1)])
        rates = MutationRates(1.0, 0.0, 0.0, 0.0)
        off = mutate(g, ScriptedRng(ints=[1], rands=[0.0, 1.0, 1.0, 1.0]), rates, RANGES, repair)
        assert [l.mask for l in off.layers] == [1, 1, 1]
        off = mutate(g, ScriptedRng(ints=[0], rands=[0.0, 1.0, 1.0, 1.0]), rates, RANGES, repair)
        assert [l.mask for l in off.layers] == [0, 0, 1]

    def test_deleting_last_active_layer_reactivates_slot_zero(self):
        g = stack([gene(mask=0), gene(mask=0), gene(mask=1, d_mlp=2048)])
        rates = MutationRates(1.0, 0.0, 0.0, 0.0)
        off = mutate(g, ScriptedRng(ints=[2], rands=[0.0, 1.0, 1.0, 1.0]), rates, RANGES, repair)
        assert [l.mask for l in off.layers] == [1, 0, 0]
        assert not validate(off)

    def test_duplication_copies_earlier_onto_later(self):
        g = stack([gene(d_mlp=512), gene(d_mlp=1024), gene(d_mlp=4096)])
        rates = MutationRates(0.0, 1.0, 0.0, 0.0)
        off = mutate(g, ScriptedRng(ints=[2, 0], rands=[1.0, 0.0, 1.0, 1.0]),
                     rates, RANGES, repair)
        assert [l.d_mlp for l in off.layers] == [512, 1024, 512]
        same = mutate(g, ScriptedRng(ints=[1, 1], rands=[1.0, 0.0, 1.0, 1.0]),
                      rates, RANGES, repair)
        assert same == g

    def test_rotation_shifts_active_subsequence(self):
        g = stack([gene(d_mlp=512), gene(mask=0, d_mlp=768), gene(d_mlp=1024), gene(d_mlp=4096)])
        rates = MutationRates(0.0, 0.0, 1.0, 0.0)
        off = mutate(g, ScriptedRng(ints=[1], rands=[1.0, 1.0, 0.0, 0.3, 1.0]),
                     rates, RANGES, repair)
        assert [l.d_mlp for l in off.layers] == [1024, 768, 4096, 512]
        assert [l.mask for l in off.layers] == [1, 0, 1, 1]

    def test_reflection_is_an_involution(self):
        g = stack([gene(d_mlp=512), gene(mask=0, d_mlp=768), gene(d_mlp=1024), gene(d_mlp=4096)])
        rates = MutationRates(0.0, 0.0, 1.0, 0.0)
        script = dict(ints=[], rands=[1.0, 1.0, 0.0, 0.9, 1.0])
        once = mutate(g, ScriptedRng(**script), rates, RANGES, repair)
        assert [l.d_mlp for l in once.layers] == [4096, 768, 1024, 512]
        assert [l.mask for l in once.layers] == [1, 0, 1, 1]
        twice = mutate(once, ScriptedRng(**script), rates, RANGES, repair)
        assert twice == g

    def test_single_active_layer_rotation_is_noop(self):
        g = stack([gene(), gene(mask=0)])
        rates = MutationRates(0.0, 0.0, 1.0, 0.0)
        assert mutate(g, ScriptedRng(rands=[1.0, 1.0, 0.0, 1.0]), rates, RANGES, repair) == g

    def test_perturbation_single_grid_step(self):
        g = stack([gene(d_qk=256)])
        rates = MutationRates(0.0, 0.0, 0.0, 1.0)
        up = mutate(g, ScriptedRng(ints=[0, 2], rands=[1.0, 1.0, 1.0, 0.0, 0.0]),
                    rates, RANGES, repair)
        assert up.layers[0].d_qk == 288
        down = mutate(g, ScriptedRng(ints=[0, 2], rands=[1.0, 1.0, 1.0, 0.0, 0.9]),
                      rates, RANGES, repair)
        assert down.layers[0].d_qk == 224

    def test_perturbation_clamps_at_grid_edge(self):
        g = stack([gene(d_qk=512)])
        rates = MutationRates(0.0, 0.0, 0.0, 1.0)
        off = mutate(g, ScriptedRng(ints=[0, 2], rands=[1.0, 1.0, 1.0, 0.0, 0.0]),
                     rates, RANGES, repair)
        assert off.layers[0].d_qk == 512

    def test_perturbed_head_counts_keep_divisor_rule(self):
        g = stack([gene(n_h=8, n_kv=8)])
        rates = MutationRates(0.0, 0.0, 0.0, 1.0)
        off = mutate(g, ScriptedRng(ints=[0, 0], rands=[1.0, 1.0, 1.0, 0.0, 0.9]),
                     rates, RANGES, repair)
        assert off.layers[0].n_h == 7 and off.layers[0].n_kv == 7
        assert not validate(off)

    def test_fuzz_outputs_always_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            g = random_genome(rng=rng)
            off = mutate(g, rng, MutationRates(), RANGES, repair)
            assert not validate(off)

    def test_deterministic_given_seed(self):
        g = random_genome(rng=np.random.default_rng(4))
        a = mutate(g, np.random.default_rng(55), MutationRates(), RANGES, repair)
        b = mutate(g, np.random.default_rng(55), MutationRates(), RANGES, repair)
        assert a == b


class TestGqaRepair:
    def test_allowed_heads_default_space(self):
        assert gqa_allowed_heads(768) == [2, 3, 4, 6, 8, 12]

    def test_projection_and_idempotence(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            g = random_genome(rng=rng)
            p = gqa_repair(g)
            assert not validate(p)
            for l in p.layers:
                assert l.d_qk == l.d_v == 768 // l.n_h
                assert 768 % l.n_h == 0 and l.n_h % l.n_kv == 0
            assert gqa_repair(p) == p

    def test_nearest_tie_prefers_fewer_heads(self):
        g = stack([gene(n_h=5, n_kv=1, d_qk=64, d_v=64)])
        assert gqa_repair(g).layers[0].n_h == 4  # ties between 4 and 6 go down
        g = stack([gene(n_h=16, n_kv=1, d_qk=64, d_v=64)])
        assert gqa_repair(g).layers[0].n_h == 12
        g = stack([gene(n_h=1, n_kv=1, d_qk=512, d_v=512)])
        assert gqa_repair(g).layers[0].n_h == 2

    def test_impossible_width_raises(self):
        g = stack([gene()], d_model=7)
        with pytest.raises(ValueError):
            gqa_repair(g)


class TestNondominatedSort:
    def test_matches_brute_force_on_random_populations(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            pts = rng.integers(0, 6, size=(n, 4)).astype(float)
            mine = fast_nondominated_sort(feasible_arrays([tuple(p) for p in pts])[1])
            brute = brute_nondominated_sort([tuple(p) for p in pts])
            assert mine == brute

    def test_constrained_layering(self):
        _, dom = constrained_arrays([
            ((1.0, 1.0), True, 0.0),
            ((2.0, 2.0), True, 0.0),
            ((0.0, 0.0), False, 0.7),
            ((0.0, 0.0), False, 0.2),
            ((9.0, 9.0), False, 0.2),
        ])
        assert fast_nondominated_sort(dom) == [[0], [1], [3, 4], [2]]

    def test_duplicates_share_a_front(self):
        _, dom = feasible_arrays([(1.0, 2.0), (1.0, 2.0), (2.0, 3.0)])
        assert fast_nondominated_sort(dom) == [[0, 1], [2]]


@st.composite
def constrained_points(draw):
    """Feasible and infeasible (values, feasible, violation) triples with
    duplicate vectors, tied violations and infinite violations."""
    m = draw(st.integers(1, 3))
    value = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf])
    point = st.one_of(
        st.tuples(st.tuples(*[value] * m), st.just(True), st.just(0.0)),
        st.tuples(st.tuples(*[value] * m), st.just(False),
                  st.sampled_from([0.0, 0.5, 2.0, math.inf])),
    )
    return draw(st.lists(point, max_size=14))


class TestConstrainedSortOracle:
    @given(constrained_points())
    @settings(max_examples=300, deadline=None)
    def test_fronts_match_literal_peel(self, points):
        values, dom = constrained_arrays(points)
        brute = brute_constrained_sort(points)
        assert fast_nondominated_sort(dom) == brute
        # pareto_front takes feasible rows; when there are any, they are the
        # whole first front
        feasible = [i for i, (_, f, _) in enumerate(points) if f]
        front = [feasible[i] for i in pareto_front(values[feasible])]
        assert front == (brute[0] if feasible else [])

    @given(constrained_points())
    @settings(max_examples=300, deadline=None)
    def test_dominance_matrix_matches_literal_rule(self, points):
        _, dom = constrained_arrays(points)
        assert dom.shape == (len(points), len(points))
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                assert dom[i, j] == brute_constrained_dominates(a, b)

    @given(constrained_points().filter(bool), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tournament_matches_literal_rule(self, points, data):
        _, dom = constrained_arrays(points)
        n = len(points)
        crowd = data.draw(st.lists(st.sampled_from([0.0, 1.0, math.inf]), min_size=n, max_size=n))
        winners = tournament_select(dom, crowd, np.random.default_rng(n), 2 * n)
        draws = np.random.default_rng(n)
        for w in winners:
            i, j = int(draws.integers(n)), int(draws.integers(n))
            if brute_constrained_dominates(points[i], points[j]):
                assert w == i
            elif brute_constrained_dominates(points[j], points[i]):
                assert w == j
            else:
                assert w == (j if crowd[j] > crowd[i] else i)

    @given(constrained_points(), st.integers(0, 14))
    @settings(max_examples=300, deadline=None)
    def test_survival_matches_literal_fill(self, points, n_keep):
        values, dom = constrained_arrays(points)
        assert nsga_survival(values, dom, n_keep) == brute_survival(points, n_keep)


class TestSurvival:
    def test_single_front_keeps_most_spread(self):
        pts = [(0.0, 100.0), (1.0, 60.0), (2.0, 59.0), (3.0, 58.0), (100.0, 0.0)]
        keep = nsga_survival(*feasible_arrays(pts), 3)
        assert sorted(keep) == [0, 3, 4]

    def test_elitism_first_front_never_dropped(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(6, 24))
            pts = [tuple(map(float, rng.integers(0, 8, size=3))) for _ in range(n)]
            first = set(brute_pareto_front(pts))
            n_keep = max(len(first), n // 2)
            kept = set(nsga_survival(*feasible_arrays(pts), n_keep))
            assert first <= kept

    def test_infeasible_survive_only_when_feasible_scarce(self):
        values, dom = constrained_arrays([
            ((1.0, 5.0), True, 0.0),
            ((5.0, 1.0), True, 0.0),
            ((3.0, 3.0), True, 0.0),
            ((0.0, 0.0), False, 2.0),
            ((0.0, 0.0), False, 1.0),
        ])
        assert sorted(nsga_survival(values, dom, 3)) == [0, 1, 2]
        assert sorted(nsga_survival(values, dom, 4)) == [0, 1, 2, 4]

    def test_keep_all_when_budget_covers(self):
        pts = [(1.0, 2.0), (2.0, 1.0)]
        assert nsga_survival(*feasible_arrays(pts), 5) == [0, 1]

    def test_truncation_order_matches_crowding(self):
        rng = np.random.default_rng(8)
        pts = [tuple(map(float, rng.random(2))) for _ in range(12)]
        values, dom = feasible_arrays(pts)
        fronts = fast_nondominated_sort(dom)
        first = fronts[0]
        if len(first) > 2:
            vals = np.array([pts[i] for i in first])
            crowd = crowding_distance(vals)
            n_keep = len(first) - 1
            expect = sorted(
                sorted(first, key=lambda i: (-crowd[first.index(i)], i))[:n_keep]
            )
            got = nsga_survival(values, dom, n_keep)
            assert all(i in first for i in got)
            assert sorted(got) == expect


class TestAcquisition:
    def test_wide_front_split_half_and_half(self):
        mu = np.arange(14, dtype=float)
        sigma = np.arange(14, dtype=float)[::-1].copy()
        exploit, explore = acquisition_indices(14, list(range(10)), mu, sigma, 8)
        assert exploit == [0, 1, 2, 3]
        assert explore == [10, 11, 12, 13]

    def test_small_front_tops_up_exploration(self):
        mu = np.arange(14, dtype=float)
        sigma = np.linspace(1.0, 0.0, 14)
        exploit, explore = acquisition_indices(14, [3, 7], mu, sigma, 8)
        assert exploit == [3, 7]
        assert explore == [0, 1, 2, 4, 5, 6]

    def test_sigma_ties_fall_back_to_index_order(self):
        mu = np.zeros(6)
        sigma = np.zeros(6)
        exploit, explore = acquisition_indices(6, [5], mu, sigma, 4)
        assert exploit == [5]
        assert explore == [0, 1, 2]

    def test_end_to_end_with_deterministic_passes(self, tiny_surrogate):
        model, _ = tiny_surrogate
        cfg = SearchConfig(
            population_size=6, offspring_size=6, generations=1,
            refine_every_generations=0, evaluator="oracle",
            backend="analytic:gemmini", seed=12,
        )
        res = run_search(cfg)
        exploit, explore = acquisition_select(res.population, model, b=4, n_mc=1,
                                              rng=np.random.default_rng(0))
        assert 1 <= len(exploit) + len(explore) <= 4
        assert len(exploit) <= 2
        assert not set(exploit) & set(explore)
        assert all(0 <= i < len(res.population) for i in exploit + explore)


class TestRunSearch:
    CFG = dict(
        population_size=8, offspring_size=8, generations=4,
        refine_every_generations=0, evaluator="oracle",
        backend="analytic:gemmini", seed=3,
    )

    def test_reproducible_bitwise(self):
        a = run_search(SearchConfig(**self.CFG))
        b = run_search(SearchConfig(**self.CFG))
        assert a.stats == b.stats
        assert [i.gid for i in a.archive.members] == [i.gid for i in b.archive.members]
        assert [i.gid for i in a.population] == [i.gid for i in b.population]
        assert [i.objectives for i in a.evaluated] == [i.objectives for i in b.evaluated]

    def test_evaluation_budget(self):
        res = run_search(SearchConfig(**self.CFG))
        cfg = res.config
        expect = cfg.population_size + cfg.generations * cfg.offspring_size
        assert res.n_evaluations == expect == len(res.evaluated)

    def test_every_evaluated_genome_is_valid(self):
        res = run_search(SearchConfig(**self.CFG))
        for ind in res.evaluated:
            assert not validate(ind.genome)

    def test_archive_matches_brute_force_front(self):
        res = run_search(SearchConfig(**self.CFG))
        seen: dict[str, object] = {}
        for ind in res.evaluated:
            if ind.feasible and ind.gid not in seen:
                seen[ind.gid] = ind
        pool = list(seen.values())
        keep = brute_pareto_front([ind.objectives for ind in pool])
        expect = sorted(pool[i].gid for i in keep)
        assert sorted(ind.gid for ind in res.archive.members) == expect

    def test_stats_shape_and_monotonicity(self):
        res = run_search(SearchConfig(**self.CFG))
        assert len(res.stats) == res.config.generations
        hv = [row["hypervolume"] for row in res.stats]
        best = [row["best_val_loss"] for row in res.stats]
        arch = [row["archive_size"] for row in res.stats]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))
        assert all(h2 >= h1 - 1e-9 for h1, h2 in zip(hv, hv[1:]))
        assert all(isinstance(a, int) for a in arch)
        assert res.stats[0]["generation"] == 0
        assert res.stats[-1]["generation"] == res.config.generations - 1

    def test_population_size_constant(self):
        res = run_search(SearchConfig(**self.CFG))
        assert len(res.population) == res.config.population_size

    def test_zero_cadence_means_zero_events(self):
        res = run_search(SearchConfig(**self.CFG))
        assert res.events == []

    def test_refinement_cadence(self, tiny_surrogate):
        model, corpus = tiny_surrogate
        cfg = SearchConfig(
            population_size=6, offspring_size=6, generations=12,
            refine_every_generations=5, refine_batch_size=4,
            mc_dropout_passes=2, evaluator="surrogate",
            backend="analytic:gemmini", seed=1,
        )
        res = run_search(cfg, surrogate=model, corpus=corpus)
        assert [e["t"] for e in res.events] == [5, 10]
        for e in res.events:
            assert len(e["exploit_ids"]) + len(e["explore_ids"]) <= cfg.refine_batch_size
            assert all(np.isfinite(v) for v in e["labels"])
        sizes = [e["buffer_size"] for e in res.events]
        assert sizes == sorted(sizes)

    def test_refinement_leaves_baseline_untouched(self, tiny_surrogate):
        model, corpus = tiny_surrogate
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = SearchConfig(
            population_size=6, offspring_size=6, generations=7,
            refine_every_generations=3, refine_batch_size=4,
            mc_dropout_passes=2, evaluator="surrogate",
            backend="analytic:gemmini", seed=2,
        )
        res = run_search(cfg, surrogate=model, corpus=corpus)
        assert len(res.events) == 2
        for k, v in before.items():
            assert np.array_equal(v, model.params[k])

    def test_surrogate_evaluator_requires_model(self):
        cfg = SearchConfig(
            population_size=4, offspring_size=4, generations=1,
            refine_every_generations=0, evaluator="surrogate",
            backend="analytic:gemmini",
        )
        with pytest.raises(ValueError):
            run_search(cfg)

    def test_refinement_requires_corpus(self, tiny_surrogate):
        model, _ = tiny_surrogate
        cfg = SearchConfig(
            population_size=4, offspring_size=4, generations=2,
            refine_every_generations=1, refine_batch_size=2,
            evaluator="surrogate", backend="analytic:gemmini",
        )
        with pytest.raises(ValueError):
            run_search(cfg, surrogate=model)

    def test_backend_failure_yields_infinite_metrics_and_continues(self):
        cfg = SearchConfig(
            population_size=8, offspring_size=6, generations=3,
            refine_every_generations=0, evaluator="oracle",
            backend="ring", val_loss_max=3.8,
            # a long prefill leaves some genomes with no ring plan
            prefill_tokens=1024, decode_tokens=256, seed=0,
        )
        res = run_search(cfg)
        failed = [ind for ind in res.evaluated if not np.isfinite(ind.e_tok_j)]
        worked = [ind for ind in res.evaluated if np.isfinite(ind.e_tok_j)]
        assert failed and worked
        for ind in failed:
            assert not ind.feasible
            assert ind.violation == float("inf")
            assert ind.ttft_s == ind.tpot_s == float("inf")
        assert len(res.stats) == cfg.generations

    def test_ring_individuals_carry_plan(self):
        cfg = SearchConfig(
            population_size=6, offspring_size=4, generations=2,
            refine_every_generations=0, evaluator="oracle",
            backend="ring", val_loss_max=3.5,
            prefill_tokens=512, decode_tokens=256, seed=2,
        )
        res = run_search(cfg)
        assert len(res.archive) > 0
        for ind in res.archive.members:
            assert ind.ring is not None
            assert ind.ring.plan.n_chips >= 1


class TestEvaluationMemo:
    """Each distinct genome is scored once per run; every request still
    yields its own Individual."""

    @staticmethod
    def _count(monkeypatch, name, module="ihasearch.search.engine"):
        import importlib

        owner = importlib.import_module(module)
        calls = collections.Counter()
        original = getattr(owner, name)

        def counted(genome, *args, **kwargs):
            calls[genome] += 1
            return original(genome, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @staticmethod
    def _count_per_gene_object(monkeypatch):
        """Counters of the uncached per-gene work: profile_layer calls per
        (gene object, d_model, context), raw grid checks per (gene object,
        grids object), layer_param_count calls per (gene object, typed
        d_model), roofline terms per (gene object, spec object, profile
        object) and JSON rows per gene object.  The counted genes, specs
        and profiles are kept alive, so no id is reused."""
        import ihasearch.genome
        import ihasearch.hwcost.profiles
        import ihasearch.hwcost.substrate

        profiles, grid_checks, seen = collections.Counter(), collections.Counter(), []
        param_counts, rooflines, rows = (collections.Counter() for _ in range(3))
        profile_layer = ihasearch.hwcost.profiles.profile_layer
        gene_on_grids = ihasearch.genome._gene_on_grids
        layer_param_count = ihasearch.genome.layer_param_count
        layer_roofline = ihasearch.hwcost.substrate._layer_roofline
        layer_json = ihasearch.genome._layer_json

        def counted_profile(g, global_cfg, ctx_tokens):
            seen.append(g)
            profiles[id(g), global_cfg.d_model, ctx_tokens] += 1
            return profile_layer(g, global_cfg, ctx_tokens)

        def counted_grid_check(g, grids):
            seen.append(g)
            grid_checks[id(g), id(grids)] += 1
            return gene_on_grids(g, grids)

        def counted_param_count(g, d_model):
            seen.append(g)
            param_counts[id(g), d_model] += 1
            return layer_param_count(g, d_model)

        def counted_roofline(g, prof, spec, ctx_mean):
            seen.append((g, prof, spec))
            rooflines[id(g), id(spec), id(prof)] += 1
            return layer_roofline(g, prof, spec, ctx_mean)

        def counted_row(g):
            seen.append(g)
            rows[id(g)] += 1
            return layer_json(g)

        monkeypatch.setattr(ihasearch.hwcost.profiles, "profile_layer", counted_profile)
        monkeypatch.setattr(ihasearch.genome, "_gene_on_grids", counted_grid_check)
        monkeypatch.setattr(ihasearch.genome, "layer_param_count", counted_param_count)
        monkeypatch.setattr(ihasearch.hwcost.substrate, "_layer_roofline", counted_roofline)
        monkeypatch.setattr(ihasearch.genome, "_layer_json", counted_row)
        return profiles, grid_checks, param_counts, rooflines, rows

    @staticmethod
    def _check_once_per_gene_object(res, profiles, grid_checks, param_counts, rooflines, rows,
                                    analytic):
        assert set(profiles.values()) == {1} and set(grid_checks.values()) == {1}
        # the oracle's parameter count and the hardware profile share one
        # count per gene
        assert set(param_counts.values()) == {1}
        evaluated_active = {id(g) for ind in res.evaluated for g in ind.genome.active_layers()}
        assert {key[0] for key in profiles} <= evaluated_active
        assert {key[0] for key in param_counts} == {key[0] for key in profiles}
        # one spec and one workload per run: one set of roofline terms per
        # profiled gene under the analytic backend, none under the ring
        if analytic:
            assert set(rooflines.values()) == {1}
            assert {key[0] for key in rooflines} == {key[0] for key in profiles}
            assert len({key[1] for key in rooflines}) == 1
        else:
            assert not rooflines
        # one JSON row per gene object, inactive genes included
        assert set(rows.values()) == {1}
        assert set(rows) <= {id(g) for ind in res.evaluated for g in ind.genome.layers}
        # children share gene objects with their parents, so fewer genes are
        # profiled than the distinct genomes have active layers, and fewer
        # rows are written than the distinct genomes have genes
        distinct = {ind.genome for ind in res.evaluated}
        assert 0 < len(profiles) < sum(len(g.active_layers()) for g in distinct)
        assert 0 < len(rows) < sum(len(g.layers) for g in distinct)

    @staticmethod
    def _check_once_per_distinct(res, *counters):
        cfg = res.config
        requested = cfg.population_size + cfg.generations * cfg.offspring_size
        assert res.n_evaluations == len(res.evaluated) == requested
        distinct = {ind.genome for ind in res.evaluated}
        assert len(distinct) < requested  # the run did repeat genomes
        for calls in counters:
            assert set(calls) == distinct
            assert set(calls.values()) == {1}

    @pytest.mark.parametrize("space", ["iha", "gqa"])
    def test_analytic_oracle(self, monkeypatch, space):
        oracle = self._count(monkeypatch, "synth_oracle")
        backend = self._count(monkeypatch, "substrate_cost")
        ids = self._count(monkeypatch, "genome_id")
        checks = self._count(monkeypatch, "validate")
        # the id and the oracle's noise seed share one canonical JSON
        dumps = self._count(monkeypatch, "to_json", module="ihasearch.genome")
        per_gene = self._count_per_gene_object(monkeypatch)
        cfg = SearchConfig(
            population_size=10, offspring_size=12, generations=6,
            refine_every_generations=0, evaluator="oracle",
            backend="analytic:gemmini", space=space, seed=4,
        )
        res = run_search(cfg)
        self._check_once_per_distinct(res, oracle, backend, ids, checks, dumps)
        self._check_once_per_gene_object(res, *per_gene, analytic=True)
        born = collections.Counter(ind.born_gen for ind in res.evaluated)
        assert born == {0: 10, **{t: 12 for t in range(1, 7)}}

    def test_ring_oracle(self, monkeypatch):
        backend = self._count(monkeypatch, "ring_cost")
        checks = self._count(monkeypatch, "validate")
        per_gene = self._count_per_gene_object(monkeypatch)
        cfg = SearchConfig(
            population_size=6, offspring_size=6, generations=3,
            refine_every_generations=0, evaluator="oracle",
            backend="ring", val_loss_max=3.5,
            prefill_tokens=512, decode_tokens=256, seed=2,
        )
        res = run_search(cfg)
        self._check_once_per_distinct(res, backend, checks)
        self._check_once_per_gene_object(res, *per_gene, analytic=False)

    def test_invalid_genome_raises_and_is_not_memoised(self):
        from ihasearch.search.engine import _SearchEngine

        cfg = SearchConfig(
            population_size=4, offspring_size=4, generations=1,
            refine_every_generations=0, evaluator="oracle",
            backend="analytic:gemmini", seed=0,
        )
        engine = _SearchEngine(cfg, None, None)
        bad = stack([gene(n_h=8, n_kv=3)])
        for _ in range(2):
            with pytest.raises(AssertionError, match="invalid genome"):
                engine.evaluate([bad], gen=0)
            assert bad not in engine._scored
        assert engine.evaluated == []

    @pytest.mark.parametrize("space", ["iha", "gqa"])
    def test_finished_engine_is_freed_without_a_collection(self, space):
        # a self-referencing engine kept its memo alive until the next full
        # garbage collection, so back-to-back searches in one process grew
        import gc
        import weakref

        from ihasearch.search.engine import _SearchEngine

        cfg = SearchConfig(
            population_size=4, offspring_size=4, generations=1,
            refine_every_generations=0, evaluator="oracle",
            backend="analytic:gemmini", space=space, seed=0,
        )
        engine = _SearchEngine(cfg, None, None)
        engine.run()
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_surrogate_predicts_every_request(self, monkeypatch, tiny_surrogate):
        from ihasearch.surrogate import EncoderSurrogate

        model, corpus = tiny_surrogate
        seen = []
        original = EncoderSurrogate.predict_genomes

        def recording(self, genomes):
            seen.extend(genomes)
            return original(self, genomes)

        monkeypatch.setattr(EncoderSurrogate, "predict_genomes", recording)
        backend = self._count(monkeypatch, "substrate_cost")
        cfg = SearchConfig(
            population_size=6, offspring_size=6, generations=4,
            refine_every_generations=2, refine_batch_size=4,
            mc_dropout_passes=2, evaluator="surrogate",
            backend="analytic:gemmini", seed=1,
        )
        res = run_search(cfg, surrogate=model, corpus=corpus)
        assert seen == [ind.genome for ind in res.evaluated]
        assert set(backend.values()) == {1}
        assert set(backend) == {ind.genome for ind in res.evaluated}


class TestDominanceMatrixBuilds:
    """Each selection step builds its population's dominance matrix once:
    breeding (shared by ranking and tournaments), survival and the archive
    update, plus the first-front sort of each refinement event."""

    @staticmethod
    def _count(monkeypatch):
        """Builds per module that looks ``constraint_dominance_matrix`` up."""
        import importlib

        calls = collections.Counter()
        for module in ("ihasearch.metrics", "ihasearch.search.engine",
                       "ihasearch.search.nsga", "ihasearch.search.operators"):
            owner = importlib.import_module(module)
            original = getattr(owner, "constraint_dominance_matrix", None)
            if original is None:
                continue

            def counted(*args, _module=module, _original=original):
                calls[_module] += 1
                return _original(*args)

            monkeypatch.setattr(owner, "constraint_dominance_matrix", counted)
        return calls

    @staticmethod
    def _config(**kw):
        base = dict(population_size=6, offspring_size=6, generations=4,
                    refine_every_generations=0, evaluator="oracle",
                    backend="analytic:gemmini", val_loss_max=100.0, seed=4)
        return SearchConfig(**{**base, **kw})

    @staticmethod
    def _check_archive_filters_every_generation(res):
        """The archive builds a matrix only when it has fresh feasible
        members: here every evaluation is feasible and every generation
        breeds a genome not seen before."""
        assert all(ind.feasible for ind in res.evaluated)
        first_born = {}
        for ind in res.evaluated:
            first_born.setdefault(ind.gid, ind.born_gen)
        assert set(first_born.values()) == set(range(res.config.generations + 1))

    @pytest.mark.parametrize("variation, per_generation", [("nsga", 3), ("random", 2)])
    def test_oracle(self, monkeypatch, variation, per_generation):
        calls = self._count(monkeypatch)
        res = run_search(self._config(variation=variation))
        self._check_archive_filters_every_generation(res)
        g = res.config.generations
        assert calls == {"ihasearch.search.engine": (per_generation - 1) * g,
                         "ihasearch.metrics": g}

    def test_refinement_events(self, monkeypatch, tiny_surrogate):
        model, corpus = tiny_surrogate
        calls = self._count(monkeypatch)
        cfg = self._config(generations=5, refine_every_generations=2, refine_batch_size=4,
                           mc_dropout_passes=2, evaluator="surrogate")
        res = run_search(cfg, surrogate=model, corpus=corpus)
        self._check_archive_filters_every_generation(res)
        assert len(res.events) == 2
        assert calls == {"ihasearch.search.engine": 2 * 5 + 2, "ihasearch.metrics": 5}


@pytest.fixture(scope="module")
def mini():
    base = SearchConfig(
        population_size=8, offspring_size=8, generations=5,
        refine_every_generations=0, evaluator="oracle",
        backend="analytic:gemmini", seed=0,
    )
    return ablation_suite(base, seeds=(0, 1))


class TestAblation:

    def test_curve_shapes(self, mini):
        for name in ("nsga_iha", "random_iha", "nsga_gqa"):
            assert mini.curves[name].shape == (2, 5)

    def test_curves_non_decreasing_per_seed(self, mini):
        for arr in mini.curves.values():
            assert (np.diff(arr, axis=1) >= -1e-9).all()

    def test_shared_reference_dominates_every_point(self, mini):
        r1, r2 = mini.ref
        for runs in mini.results.values():
            for res in runs:
                for snap in res.archive_snapshots:
                    if len(snap):
                        assert (snap[:, 0] < r1).all() and (snap[:, 1] < r2).all()

    def test_gqa_recipe_constrains_every_evaluated_genome(self, mini):
        for res in mini.results["nsga_gqa"]:
            for ind in res.evaluated:
                d = ind.genome.global_cfg.d_model
                for l in ind.genome.active_layers():
                    assert d % l.n_h == 0 and l.d_qk == l.d_v == d // l.n_h

    def test_summary_and_median(self, mini):
        summary = mini.summary()
        for name, cur in summary.items():
            assert cur["mean"].shape == (5,) and cur["std"].shape == (5,)
        finals = mini.median_final()
        assert set(finals) == {"nsga_iha", "random_iha", "nsga_gqa"}

    def test_needs_two_seeds(self):
        base = SearchConfig(evaluator="oracle", refine_every_generations=0)
        with pytest.raises(ValueError):
            ablation_suite(base, seeds=(0,))

    def test_requires_oracle_evaluator(self):
        with pytest.raises(ValueError):
            ablation_suite(surrogate_preset(), seeds=(0, 1))


class TestHvRef:
    def test_positive_worst_scales_by_1p1(self):
        snaps = [np.array([[2.0, 10.0], [4.0, 5.0]])]
        assert default_hv_ref([snaps]) == (4.0 * 1.1, 10.0 * 1.1)

    def test_nonpositive_worst_pads_additively(self):
        snaps = [np.array([[-2.0, 10.0]])]
        r1, r2 = default_hv_ref([snaps])
        assert r1 > -2.0 and r2 == 11.0

    def test_empty_fallback(self):
        assert default_hv_ref([[]]) == (1.0, 1.0)
