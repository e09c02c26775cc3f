"""Layer profiling, substrate roofline, packing (vs exhaustive oracle), ring."""
import contextlib
import dataclasses
import json
import math
import pickle
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ihasearch import genome as gn
from ihasearch.hwcost import packing, ring
from ihasearch.hwcost import (
    DEFAULT_CHIP_GRID,
    GRID_AXES,
    ChipGrid,
    ChipTemplate,
    RingPlan,
    SubstrateSpec,
    Workload,
    balanced_contiguous_pack,
    best_ring_pick,
    build_chip,
    builtin_substrate_names,
    chip_grid_search,
    greedy_contiguous_partition,
    load_substrate,
    profile_layer,
    profile_model,
    ring_cost,
    ring_simulate,
    substrate_cost,
    write_plan_csv,
)
from ihasearch.hwcost.packing import StageLimits
from ihasearch.hwcost.profiles import HWCost, LayerProfile
from ihasearch.search import ring_preset, run_search

from test_acceptance import grid_search_cases

from oracles import (
    bottleneck_ops,
    brute_best_bottleneck,
    brute_dominates,
    reference_balanced_pack,
    reference_candidate_budgets,
    reference_greedy_partition,
    reference_substrate_cost,
)

GLOBAL = gn.GlobalConfig()
REF_GENE = gn.LayerGene(mask=1, attn=1, n_h=9, n_kv=3, d_qk=64, d_v=96, d_mlp=1536)


SUBSTRATE_NUMBERS = [f.name for f in dataclasses.fields(SubstrateSpec)
                     if f.name not in ("name", "dataflow", "weights_resident")]
BAD_SUBSTRATE_NUMBERS = [True, False, float("nan"), float("inf"), float("-inf"), 0, 0.0, -1, -2.5,
                         pytest.param(10**400, id="int_beyond_float")]


def genome_of(genes):
    pad = gn.LayerGene(0, 1, 8, 2, 64, 64, 1024)
    layers = tuple(list(genes) + [pad] * (GLOBAL.max_layers - len(genes)))
    return gn.ArchGenome(GLOBAL, layers)


class TestWorkload:
    def test_defaults_and_context(self):
        wl = Workload()
        assert (wl.prefill_tokens, wl.decode_tokens) == (256, 256)
        assert wl.ctx_mean == 384.0
        assert wl.ctx_peak == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(0, 256)
        with pytest.raises(ValueError):
            Workload(256, 0)


class TestLayerProfile:
    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_every_entry_must_be_finite_and_non_negative(self, index, bad):
        entries = [0, 0, 0.0, 0]
        LayerProfile(*entries)
        entries[index] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            LayerProfile(*entries)


class TestProfileLayer:
    def test_reference_kv_bytes(self):
        prof = profile_layer(REF_GENE, GLOBAL, 384.0)
        assert prof.kv_bytes_per_token == 3 * (64 + 96) == 480

    def test_reference_weights_and_ops(self):
        prof = profile_layer(REF_GENE, GLOBAL, 384.0)
        assert prof.weight_bytes == 3_833_856  # layer term of the param count
        assert prof.decode_ops == 3_833_856 + 9 * (64 + 96) * 384
        assert prof.act_bytes == 2 * 1536  # d_mlp is the widest intermediate

    def test_identity_attention(self):
        gene = dataclasses.replace(REF_GENE, attn=0)
        prof = profile_layer(gene, GLOBAL, 384.0)
        assert prof.kv_bytes_per_token == 0
        assert prof.weight_bytes == prof.decode_ops == 2 * 768 * 1536

    def test_mlp_contribution_is_linear(self):
        a = profile_layer(REF_GENE, GLOBAL, 384.0)
        b = profile_layer(dataclasses.replace(REF_GENE, d_mlp=2 * 1536), GLOBAL, 384.0)
        mlp_w = 2 * 768 * 1536
        assert b.weight_bytes - a.weight_bytes == mlp_w
        assert b.decode_ops - a.decode_ops == mlp_w

    def test_inactive_layer_rejected(self):
        with pytest.raises(ValueError):
            profile_layer(dataclasses.replace(REF_GENE, mask=0), GLOBAL)

    def test_profile_model_covers_active_layers(self):
        g = genome_of([REF_GENE, dataclasses.replace(REF_GENE, attn=0)])
        profs = profile_model(g, Workload())
        assert len(profs) == 2
        assert profs[1].kv_bytes_per_token == 0


class TestSubstrate:
    def test_presets_load(self):
        names = builtin_substrate_names()
        assert names == ["dxe", "eyeriss", "flat", "gemmini"]
        for name in names:
            spec = load_substrate(name)
            assert spec.name == name
        assert load_substrate("gemmini").mac_count == 256
        assert load_substrate("eyeriss").mac_count == 168
        assert load_substrate("flat").mac_count == 1024
        assert load_substrate("dxe").sram_bytes == 4 * 1024 * 1024

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            load_substrate("tpu")

    def test_spec_file_round_trip(self, tmp_path):
        spec = load_substrate("flat")
        path = tmp_path / "custom.json"
        payload = dataclasses.asdict(spec)
        path.write_text(json.dumps(payload))
        again = load_substrate(str(path))
        assert again == spec

    def test_bad_spec_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "broken"}')
        with pytest.raises(ValueError):
            load_substrate(str(path))

    @pytest.mark.parametrize("field", SUBSTRATE_NUMBERS)
    @pytest.mark.parametrize("value", BAD_SUBSTRATE_NUMBERS)
    def test_bad_number_rejected_by_loader_and_spec(self, tmp_path, field, value):
        # json.dumps writes NaN and Infinity, which the loader parses
        spec = load_substrate("gemmini")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(dataclasses.asdict(spec), **{field: value})))
        with pytest.raises(ValueError, match=f"'{field}' must be a finite number > 0"):
            load_substrate(str(path))
        with pytest.raises(ValueError, match=f"'{field}' must be a finite number > 0"):
            dataclasses.replace(spec, **{field: value})

    def test_compute_bound_macs_halve_tpot(self):
        g = genome_of([REF_GENE] * 3)
        spec = load_substrate("gemmini")
        fast_mem = dataclasses.replace(spec, dram_bw_bytes_per_s=1e18)
        doubled = dataclasses.replace(fast_mem, mac_count=2 * fast_mem.mac_count)
        wl = Workload()
        c1, c2 = substrate_cost(g, fast_mem, wl), substrate_cost(g, doubled, wl)
        assert c2.tpot_s == pytest.approx(c1.tpot_s / 2, rel=1e-12)

    def test_memory_bound_macs_do_not_help(self):
        g = genome_of([REF_GENE] * 3)
        spec = dataclasses.replace(load_substrate("gemmini"), dram_bw_bytes_per_s=1.0)
        doubled = dataclasses.replace(spec, mac_count=2 * spec.mac_count)
        wl = Workload()
        c1, c2 = substrate_cost(g, spec, wl), substrate_cost(g, doubled, wl)
        assert c2.tpot_s == c1.tpot_s

    def test_adding_a_layer_increases_everything(self):
        rng = np.random.default_rng(3)
        wl = Workload()
        for _ in range(10):
            g = gn.random_genome(rng=rng)
            active = list(g.active_layers())
            bigger = genome_of(active + [REF_GENE]) if len(active) < 40 else g
            for name in builtin_substrate_names():
                spec = load_substrate(name)
                small, big = substrate_cost(g, spec, wl), substrate_cost(bigger, spec, wl)
                if bigger is not g:
                    assert big.e_tok_j > small.e_tok_j
                    assert big.ttft_s > small.ttft_s
                    assert big.tpot_s > small.tpot_s

    def test_outputs_positive_and_deterministic(self):
        g = genome_of([REF_GENE])
        spec = load_substrate("dxe")
        a, b = substrate_cost(g, spec, Workload()), substrate_cost(g, spec, Workload())
        assert a == b
        assert min(a) > 0


SPECS = [load_substrate(name) for name in builtin_substrate_names()]
_SPACE = gn.SpaceRanges()
# genes of any shape a profile accepts, active or not, with or without attention
_SHAPE_GENE = st.builds(
    gn.LayerGene,
    st.sampled_from([0, 1]),
    st.sampled_from([0, 1]),
    st.integers(1, 16),
    st.integers(1, 16),
    st.sampled_from(_SPACE.d_qk.values()),
    st.sampled_from(_SPACE.d_v.values()),
    st.sampled_from(_SPACE.d_mlp.values()),
)
_WORKLOADS = st.builds(Workload, st.sampled_from([1, 7, 256, 512]), st.sampled_from([1, 255, 256]))


class TestRooflineCache:
    """substrate_cost keeps each gene's roofline terms with the spec and
    profile objects they came from.  The same gene objects, shared by two
    genomes with different d_model and costed in alternation on every
    builtin substrate under two workloads, give what the uncached literal
    loop gives, bit for bit."""

    @given(
        genes=st.lists(_SHAPE_GENE, min_size=1, max_size=8),
        workloads=st.lists(_WORKLOADS, min_size=2, max_size=2),
        d_models=st.lists(st.sampled_from([768, 960]), min_size=2, max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_literal_loop(self, genes, workloads, d_models):
        genomes = [
            gn.ArchGenome(gn.GlobalConfig(d_models[0], 1024, len(genes)), tuple(genes)),
            gn.ArchGenome(gn.GlobalConfig(d_models[1], 1024, len(genes)), tuple(reversed(genes))),
        ]
        # consecutive calls differ in genome, spec or workload, so terms
        # kept under a stale key would show; the second round reads the
        # caches the first one filled
        for _ in range(2):
            for wl in workloads:
                for spec in SPECS:
                    for g in genomes:
                        got = substrate_cost(g, spec, wl)
                        assert repr(tuple(got)) == repr(reference_substrate_cost(g, spec, wl))


def prof(w, kappa, o, a):
    return LayerProfile(w, kappa, o, a)


ROOMY = StageLimits(100, 100, 100, 1.0)


class TestGreedyPartition:
    def test_reference_scan(self):
        layers = [prof(40, 10, 30, 10)] * 3
        assert greedy_contiguous_partition(layers, ROOMY, 60) == [[0, 1], [2]]

    def test_ops_budget_forces_splits(self):
        layers = [prof(40, 10, 30, 10)] * 3
        assert greedy_contiguous_partition(layers, ROOMY, 30) == [[0], [1], [2]]

    def test_single_layer_violation(self):
        assert greedy_contiguous_partition([prof(150, 0, 10, 10)], ROOMY, 60) is None
        assert greedy_contiguous_partition([prof(10, 150, 10, 10)], ROOMY, 60) is None
        assert greedy_contiguous_partition([prof(10, 0, 10, 150)], ROOMY, 60) is None
        assert greedy_contiguous_partition([prof(10, 0, 70, 10)], ROOMY, 60) is None

    def test_nan_budget_raises(self):
        # it used to open an empty first stage: [[], [0], [1], [2]]
        with pytest.raises(ValueError, match="ops_budget must not be NaN"):
            greedy_contiguous_partition([prof(1, 1, 5, 1)] * 3, ROOMY, math.nan)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            layers = [
                prof(*(int(rng.integers(1, 30)) for _ in range(4))) for _ in range(n)
            ]
            limits = StageLimits(60, 60, 40, 1.0)
            prev = None
            for budget in range(30, 200, 7):
                part = greedy_contiguous_partition(layers, limits, budget)
                if part is None:
                    continue
                if prev is not None:
                    assert len(part) <= prev
                prev = len(part)


class TestBalancedPack:
    def test_reference_cases(self):
        layers = [prof(10, 1, 30, 1)] * 3
        roomy = StageLimits(1000, 1000, 1000, 1.0)
        part = balanced_contiguous_pack(layers, roomy, 8)
        assert part == [[0], [1], [2]]
        assert bottleneck_ops(layers, part) == 30
        part2 = balanced_contiguous_pack(layers, roomy, 2)
        assert part2 == [[0, 1], [2]]
        assert bottleneck_ops(layers, part2) == 60

    def test_single_layer_violation(self):
        assert balanced_contiguous_pack([prof(150, 0, 10, 10)], ROOMY, 8) is None

    @pytest.mark.parametrize("cap", [0, 0.5, -math.inf, math.nan])
    def test_cap_below_one_raises(self, cap):
        # NaN used to pass as no cap at all
        with pytest.raises(ValueError, match="n_chips_max"):
            balanced_contiguous_pack([prof(10, 1, 30, 1)] * 11, ROOMY, cap)

    def test_matches_exhaustive_oracle(self):
        # criterion-style sweep at unit test scale; the acceptance test
        # runs the full 500-instance version
        rng = np.random.default_rng(9)
        agree = 0
        for _ in range(120):
            n = int(rng.integers(1, 11))
            raw = [tuple(int(rng.integers(1, 25)) for _ in range(4)) for _ in range(n)]
            layers = [prof(*r) for r in raw]
            w_cap, k_cap, a_cap = (int(rng.integers(20, 70)) for _ in range(3))
            cap = int(rng.integers(1, 6))
            limits = StageLimits(w_cap, k_cap, a_cap, 1.0)
            got = balanced_contiguous_pack(layers, limits, cap)
            want = brute_best_bottleneck(raw, w_cap, k_cap, a_cap, 1.0, cap)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert bottleneck_ops(layers, got) == want[0]
                agree += 1
        assert agree > 10  # sanity: the sweep hit non-trivial cases


def _segment_sums(values):
    return [sum(values[i:j]) for i in range(len(values)) for j in range(i + 1, len(values) + 1)]


@st.composite
def probe_cases(draw):
    """Layers, caps, a budget and a stage cap for the count-only probe.  Caps
    and budgets are often exact sums of consecutive layers, so stages fill a
    cap exactly; budgets are often just below one layer's ops, where the
    greedy scan fails on that layer alone.  Ops are half-integers and the KV
    context may be fractional, so sums are not integers."""
    n = draw(st.integers(1, 8))
    ints = st.lists(st.integers(0, 20), min_size=n, max_size=n)
    weights, kappas = draw(ints), draw(ints)
    ops = [o / 2 for o in draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))]
    ctx = draw(st.sampled_from([1.0, 0.5, 2.5]))

    def cap_of(values):
        return draw(st.one_of(st.sampled_from(_segment_sums(values)), st.integers(0, 100)))

    weight_cap, kv_cap = cap_of(weights), cap_of([k * ctx for k in kappas])
    budget = draw(st.one_of(
        st.sampled_from(_segment_sums(ops)),
        st.sampled_from([o - d for o in ops for d in (0.5, 1.0)]),
        st.integers(0, 200).map(float),
    ))
    profiles = [LayerProfile(w, k, o, 0) for w, k, o in zip(weights, kappas, ops)]
    return profiles, StageLimits(weight_cap, kv_cap, 0, ctx), budget, draw(st.integers(1, n + 1))


def exhaustive_balanced_pack(profiles, limits, n_chips_max):
    """The smallest bottleneck over every contiguous partition (brute force),
    then the greedy scan at that bottleneck."""
    raw = [(p.weight_bytes, p.kv_bytes_per_token, p.decode_ops, p.act_bytes) for p in profiles]
    best = brute_best_bottleneck(raw, limits.weight_cap, limits.kv_cap, limits.act_cap,
                                 limits.ctx_tokens, n_chips_max)
    if best is None:
        return None
    return greedy_contiguous_partition(profiles, limits, best[0])


class TestCountOnlyPack:
    @given(probe_cases())
    @settings(max_examples=400, deadline=None)
    def test_probe_accepts_exactly_when_greedy_fits(self, case):
        profiles, limits, budget, n_max = case
        part = greedy_contiguous_partition(profiles, limits, budget)
        assert part == reference_greedy_partition(profiles, limits, budget)
        layers = [(p.weight_bytes, p.kv_bytes_per_token * limits.ctx_tokens, p.decode_ops)
                  for p in profiles]
        got, bid = packing._greedy_starts(layers, limits, budget, n_max)
        assert bid > budget  # a stage closed by the ops budget alone bids
        if part is None or len(part) > n_max:
            assert got is None
        else:
            assert got == [stage[0] for stage in part]

    @given(probe_cases())
    @settings(max_examples=300, deadline=None)
    def test_pack_matches_exhaustive_search(self, case):
        profiles, limits, _, n_max = case
        assert balanced_contiguous_pack(profiles, limits, n_max) == exhaustive_balanced_pack(
            profiles, limits, n_max)

    def test_budget_below_a_half_integer_layer(self):
        # one stage of 11.0 or two of 10.5 and 0.5: the largest layer's
        # 10.5 is the bottleneck when two stages are allowed
        layers = [prof(1, 0, 10.5, 0), prof(1, 0, 0.5, 0)]
        for cap, want in ((1, [[0, 1]]), (2, [[0], [1]])):
            assert balanced_contiguous_pack(layers, ROOMY, cap) == want
            assert exhaustive_balanced_pack(layers, ROOMY, cap) == want

    def test_non_integer_bottleneck_between_integers(self):
        # the one stage holds 11.5 ops; an integer-only budget search probes
        # 11.0 alone, finds it infeasible, and returns None
        layers = [prof(1, 0, 10.5, 0), prof(1, 0, 1.0, 0)]
        assert balanced_contiguous_pack(layers, ROOMY, 1) == [[0, 1]]
        assert exhaustive_balanced_pack(layers, ROOMY, 1) == [[0, 1]]

    def test_int_ops_beyond_2_53_add_exactly(self):
        # the scan's sums start at the int 0: from 0.0 they would round,
        # and the first case would open an empty stage while the second
        # would reject the one stage that fits
        big = [prof(1, 1, o, 1) for o in (2**53 + 3, 1, 5, 5)]
        assert balanced_contiguous_pack(big, ROOMY, 3) == [[0], [1, 2, 3]]
        big = [prof(1, 1, o, 1) for o in (2, 2**52 + 1, 2**54 + 7, 5)]
        assert balanced_contiguous_pack(big, ROOMY, 1) == [[0, 1, 2, 3]]

    @given(probe_cases())
    @settings(max_examples=300, deadline=None)
    def test_probes_per_pack(self, case):
        """A pack whose layers all fit a stage alone probes strictly
        increasing candidate budgets, from the largest layer's ops, and only
        the last probe can fit; with at most the cap's layers that first
        probe fits.  No pack runs greedy_contiguous_partition: the partition
        comes from the last probe."""
        profiles, limits, _, n_max = case
        probes, scan = [], packing._greedy_starts

        def recording(layers, limits, budget, n_max):
            starts, bid = scan(layers, limits, budget, n_max)
            probes.append((budget, starts is not None))
            return starts, bid

        with mock.patch.object(packing, "_greedy_starts", recording), \
                mock.patch.object(packing, "greedy_contiguous_partition") as partition:
            got = balanced_contiguous_pack(profiles, limits, n_max)
        assert got == exhaustive_balanced_pack(profiles, limits, n_max)
        assert partition.call_count == 0
        ops = tuple(p.decode_ops for p in profiles)
        if any(p.weight_bytes > limits.weight_cap
               or p.kv_bytes_per_token * limits.ctx_tokens > limits.kv_cap
               or p.act_bytes > limits.act_cap for p in profiles):
            assert got is None and probes == []
            return
        budgets, fits = zip(*probes)
        assert budgets[0] == max(ops)
        assert all(x < y for x, y in zip(budgets, budgets[1:]))
        assert set(budgets) <= set(reference_candidate_budgets(ops))
        assert not any(fits[:-1]) and fits[-1] == (got is not None)
        if len(profiles) <= n_max:
            assert budgets == (max(ops),)

    def test_probes_of_a_three_layer_model(self):
        layers = [prof(10, 1, 30, 1), prof(10, 1, 20, 1), prof(10, 1, 40, 1)]
        roomy = StageLimits(1000, 1000, 1000, 1.0)
        with mock.patch.object(packing, "_greedy_starts", wraps=packing._greedy_starts) as scan:
            # three stages allowed: one scan at the largest layer's 40 ops
            assert balanced_contiguous_pack(layers, roomy, 3) == [[0], [1], [2]]
            assert [c.args[2] for c in scan.call_args_list] == [40]
            # two: the scan at 40 opens a third stage, and its ops-closed
            # stages bid 30 + 20 and 20 + 40, so the walk moves to 50
            scan.reset_mock()
            assert balanced_contiguous_pack(layers, roomy, 2) == [[0, 1], [2]]
            assert [c.args[2] for c in scan.call_args_list] == [40, 50]
            # a 15-byte stage holds one layer: the weight cap closes every
            # stage, so the scan bids nothing and no budget fits two stages
            scan.reset_mock()
            assert balanced_contiguous_pack(layers, StageLimits(15, 1000, 1000, 1.0), 2) is None
            assert [c.args[2] for c in scan.call_args_list] == [40]


OP_FAMILIES = ("equal", "geometric", "two_valued", "random_float", "random_int")


@st.composite
def long_pack_cases(draw):
    """Up to 160 layers under the stage limits of one default-grid chip,
    and a stage cap.  Ops come from one of five families (equal, geometric,
    two-valued, random floats, random ints up to 2**60, past 2**53 where
    float sums round), and some layers have no ops.  Weights and KV vary
    below the chip's caps, so the weight, KV and ops budgets all close
    stages; a KV term can also exceed the cap, or an activation the
    scratchpad, so that nothing fits."""
    n = draw(st.integers(1, 160))
    family = draw(st.sampled_from(OP_FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "equal":
        ops = [draw(st.sampled_from([1.0, 2.5e7, 3, 2**53 + 1]))] * n
    elif family == "geometric":
        base = draw(st.sampled_from([1.0, 3e6]))
        ratio = draw(st.sampled_from([0.5, 0.9, 1.1, 2.0]))
        ops = [base * ratio**i for i in range(n)]
    elif family == "two_valued":
        pair = draw(st.sampled_from([(1.0, 3.0), (0.1, 0.7), (5, 2**54 + 3)]))
        ops = [pair[int(b)] for b in rng.integers(0, 2, n)]
    elif family == "random_float":
        ops = [float(x) for x in rng.uniform(0, 1e7, n)]
    else:
        ops = [int(x) for x in rng.integers(0, 2**60, n)]
    zero_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    ops = [0 * o if z < zero_share else o for o, z in zip(ops, rng.random(n))]
    n_mac, w_core_kb, grid_cap = draw(st.sampled_from(DEFAULT_CHIP_GRID.points))
    max_ctx = draw(st.sampled_from([2, 133, 512, 768]))
    w_max = draw(st.sampled_from([0, 1_000, 40_000, 400_000, 4_000_000]))
    weights = [int(x) for x in rng.integers(0, w_max + 1, n)]
    chip = build_chip(n_mac, w_core_kb, max(weights), max_ctx)
    kv_max = int(chip.kv_cap / max_ctx * draw(st.sampled_from([0.0, 0.05, 0.3, 1.0, 1.2])))
    kappas = [int(x) for x in rng.integers(0, kv_max + 1, n)]
    act = draw(st.sampled_from([0, 0, 0, chip.scratch_bytes + 1]))
    profiles = [LayerProfile(w, k, o, act if i == n // 2 else 0)
                for i, (w, k, o) in enumerate(zip(weights, kappas, ops))]
    limits = StageLimits(chip.weight_cap, chip.kv_cap, chip.scratch_bytes, chip.max_ctx)
    cap = draw(st.one_of(st.just(grid_cap), st.integers(1, 3), st.integers(1, n + 1),
                         st.just(math.inf)))
    return profiles, limits, cap


class TestBidWalk:
    """The pack raises its budget from the largest layer's ops to each
    scan's bid: the same partitions as a bisection over every candidate
    budget (the sums of contiguous layer runs)."""

    @given(long_pack_cases())
    @settings(max_examples=300, deadline=None)
    def test_pack_equals_the_candidate_bisection(self, case):
        profiles, limits, n_max = case
        assert balanced_contiguous_pack(profiles, limits, n_max) == reference_balanced_pack(
            profiles, limits, n_max)

    @given(long_pack_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_budgets_below_the_bid_scan_alike(self, case, data):
        """Under no stage cap, every candidate from the budget up to the bid
        scans to the budget's stage starts; a finite bid is a candidate above
        the budget, and its own scan starts other stages."""
        profiles, limits, _ = case
        layers = packing._layer_terms(profiles, limits)
        assume(all(w <= limits.weight_cap and k <= limits.kv_cap for w, k, _ in layers))
        candidates = reference_candidate_budgets(tuple(o for _, _, o in layers))
        i = data.draw(st.integers(0, len(candidates) - 1))
        budget = candidates[i]
        if i + 1 < len(candidates) and data.draw(st.booleans()):
            between = budget + (candidates[i + 1] - budget) / 2
            if budget < between < candidates[i + 1]:  # ints past 2**53 may round
                budget = between
        starts, bid = packing._greedy_starts(layers, limits, budget, math.inf)
        assert starts is not None
        alike = [c for c in candidates if budget <= c < bid]
        for c in alike if len(alike) <= 32 else alike[:16] + alike[-16:]:
            assert packing._greedy_starts(layers, limits, c, math.inf)[0] == starts
        if bid < math.inf:
            assert bid > budget and bid in set(candidates)
            assert packing._greedy_starts(layers, limits, bid, math.inf)[0] != starts


class TestBudgetMemo:
    """No pack's answer depends on an earlier pack: every pack below equals
    the exhaustive search, whatever was packed before it."""

    @given(probe_cases(), probe_cases())
    @settings(max_examples=150, deadline=None)
    def test_alternating_inputs(self, a, b):
        for profiles, limits, _, n_max in (a, b, a):
            assert balanced_contiguous_pack(profiles, limits, n_max) == exhaustive_balanced_pack(
                profiles, limits, n_max)

    @pytest.mark.parametrize("ops", [(10, 1), (5, 2**54 + 4, 3)], ids=["small", "beyond_2_53"])
    @pytest.mark.parametrize("ints_first", [False, True], ids=["float_then_int", "int_then_float"])
    def test_int_and_float_ops_never_share_budgets(self, ops, ints_first):
        # every op is a float exactly, so the int and float tuples are
        # equal; but the budget sums differ (5 + 2**54 + 4 rounds to
        # 2.0**54 + 8.0 as a float), and with the float budgets the int
        # layers would pack as [[0, 1], [2]] where the exhaustive answer at
        # two stages is [[0], [1, 2]]
        as_int = [prof(1, 0, o, 0) for o in ops]
        as_float = [prof(1, 0, float(o), 0) for o in ops]
        order = (as_int, as_float) if ints_first else (as_float, as_int)
        for profiles in order:
            for cap in (1, 2):
                got = balanced_contiguous_pack(profiles, ROOMY, cap)
                assert got is not None
                assert got == exhaustive_balanced_pack(profiles, ROOMY, cap)

    def test_after_an_infeasible_pack(self):
        layers = [prof(10, 1, 30, 1), prof(10, 1, 20, 1), prof(10, 1, 40, 1)]
        roomy = StageLimits(1000, 1000, 1000, 1.0)
        # no stage cap fits (weight), then no budget fits (one stage of 10)
        assert balanced_contiguous_pack(layers, StageLimits(5, 1000, 1000, 1.0), 3) is None
        assert balanced_contiguous_pack(layers, StageLimits(15, 1000, 1000, 1.0), 2) is None
        for cap in (1, 2, 3):
            assert balanced_contiguous_pack(layers, roomy, cap) == exhaustive_balanced_pack(
                layers, roomy, cap)


class TestChipTemplate:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ChipTemplate(n_mac=16, w_core_kb=24, n_dxt=4, n_vac=2, max_ctx=512)
        with pytest.raises(ValueError):
            ChipTemplate(n_mac=16, w_core_kb=24, n_dxt=3, n_vac=4, max_ctx=512)
        chip = ChipTemplate(n_mac=16, w_core_kb=24, n_dxt=8, n_vac=16, max_ctx=512)
        assert chip.n_cores == 128
        assert chip.weight_cap == 128 * 24 * 1024
        assert chip.kv_cap == 128 * 8 * 1024

    def test_reference_area_is_one(self):
        chip = ChipTemplate(n_mac=16, w_core_kb=24, n_dxt=8, n_vac=16, max_ctx=512)
        assert chip.area == 1.0

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ChipTemplate)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0])
    def test_every_field_must_be_finite_and_positive(self, name, bad):
        # n_mac=nan gave a NaN throughput and clock_hz=-1.0 a negative one
        base = dict(n_mac=16, w_core_kb=24, n_dxt=8, n_vac=16, max_ctx=512)
        with pytest.raises(ValueError, match=f"must be finite and > 0: .*{name}={bad!r}"):
            ChipTemplate(**dict(base, **{name: bad}))

    def test_build_chip_rejects_non_positive_core_memory(self):
        # the core-count doubling loop would never end
        for w_core_kb in (0, -24):
            with pytest.raises(ValueError):
                build_chip(16, w_core_kb, 1, 512)

    @pytest.mark.parametrize("name", ["n_mac", "w_core_kb", "max_ctx"])
    @pytest.mark.parametrize("bad", [16.0, True, np.int64(16), math.nan, "16"])
    def test_build_chip_takes_exact_ints(self, name, bad):
        # the chip memo's key carries no types: 16.0 would hit a chip of 16
        args = dict(n_mac=16, w_core_kb=24, max_ctx=512)
        args[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            build_chip(args["n_mac"], args["w_core_kb"], 1, args["max_ctx"])

    def test_build_chip_errors_are_never_cached(self):
        ring._chip.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="positive"):
                build_chip(16, 0, 1, 512)
            with pytest.raises(ValueError, match="finite and > 0"):
                build_chip(0, 24, 1, 512)
        assert ring._chip.cache_info().currsize == 0

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_build_chip_rejects_a_weight_size_not_finite_and_non_negative(self, bad):
        # inf never left the core-count doubling loop, and NaN gave one core
        ring._chip.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="max_layer_weight_bytes must be finite and >= 0"):
                build_chip(16, 24, bad, 512)
        assert ring._chip.cache_info().currsize == 0

    def test_build_chip_core_growth_and_split(self):
        chip = build_chip(16, 24, max_layer_weight_bytes=1, max_ctx=512)
        assert (chip.n_dxt, chip.n_vac) == (1, 1)
        chip = build_chip(16, 24, max_layer_weight_bytes=24 * 1024 + 1, max_ctx=512)
        assert (chip.n_dxt, chip.n_vac) == (1, 2)
        chip = build_chip(16, 24, max_layer_weight_bytes=128 * 24 * 1024, max_ctx=512)
        assert (chip.n_dxt, chip.n_vac) == (8, 16)
        assert chip.n_vac >= chip.n_dxt


class TestRingSimulate:
    def chip(self, **kw):
        base = dict(n_mac=16, w_core_kb=24, n_dxt=2, n_vac=2, max_ctx=512)
        base.update(kw)
        return ChipTemplate(**base)

    def plan_of(self, chip, partition, profiles):
        return RingPlan(chip=chip, partition=partition, profiles=tuple(profiles),
                        hop_bytes=768)

    def test_single_chip_prefill_has_no_hops(self):
        chip = self.chip()
        profiles = [prof(100, 2, 500, 8), prof(100, 2, 700, 8)]
        plan = self.plan_of(chip, ((0, 1),), profiles)
        wl = Workload(128, 64)
        cost = ring_simulate(plan, wl)
        assert cost.ttft_s == pytest.approx(128 * 1200 / chip.throughput, rel=1e-12)
        assert cost.tpot_s == pytest.approx(1200 / chip.throughput + chip.hop_latency_s)

    def test_two_stage_split_halves_compute_term(self):
        chip = self.chip()
        profiles = [prof(100, 2, 600, 8), prof(100, 2, 600, 8)]
        merged = self.plan_of(chip, ((0, 1),), profiles)
        split = self.plan_of(chip, ((0,), (1,)), profiles)
        wl = Workload(128, 64)
        c_m, c_s = ring_simulate(merged, wl), ring_simulate(split, wl)
        assert c_m.tpot_s - chip.hop_latency_s == pytest.approx(
            2 * (c_s.tpot_s - chip.hop_latency_s), rel=1e-12
        )

    def test_doubling_e_mac_doubles_op_energy(self):
        profiles = [prof(100, 2, 600, 8)]
        wl = Workload(128, 64)
        c1 = ring_simulate(self.plan_of(self.chip(), ((0,),), profiles), wl)
        c2 = ring_simulate(self.plan_of(self.chip(e_mac_j=4.0e-13), ((0,),), profiles), wl)
        op_energy = 600 * 2.0e-13
        assert c2.e_tok_j - c1.e_tok_j == pytest.approx(op_energy, rel=1e-12)

    def test_plan_validation(self):
        chip = self.chip()
        profiles = [prof(1, 1, 1, 1), prof(1, 1, 1, 1)]
        with pytest.raises(ValueError):
            self.plan_of(chip, ((0,),), profiles)  # layer 1 unassigned
        with pytest.raises(ValueError):
            self.plan_of(chip, ((1,), (0,)), profiles)  # out of order


class TestChipGridSearch:
    def test_grid_size(self):
        assert len(DEFAULT_CHIP_GRID.points) == 45
        assert DEFAULT_CHIP_GRID.caps == {w: (32, 16, 8) for w in (24, 48, 96, 192, 384)}

    def test_results_mutually_nondominated(self):
        rng = np.random.default_rng(1)
        g = gn.random_genome(rng=rng)
        res, n_feasible = chip_grid_search(g, Workload(512, 256))
        assert 0 < len(res) <= min(3, n_feasible)
        objs = [r.objectives() for r in res]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not brute_dominates(a, b)

    def test_infeasible_everywhere_returns_empty(self):
        # tiny weights keep every derived chip small, while the KV demand of
        # one wide-attention layer exceeds any small chip's cache
        gene = gn.LayerGene(1, 1, 16, 16, 512, 512, 512)
        tiny = gn.GlobalConfig(d_model=64, block_size=1024, max_layers=4)
        pad = gn.LayerGene(0, 1, 1, 1, 64, 64, 512)
        g = gn.ArchGenome(tiny, (gene, pad, pad, pad))
        assert chip_grid_search(g, Workload(512, 256)) == ([], 0)
        assert ring_cost(g, Workload(512, 256)) is None

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        g = gn.random_genome(rng=rng)
        a, _ = chip_grid_search(g, Workload(512, 256))
        b, _ = chip_grid_search(g, Workload(512, 256))
        assert [r.objectives() for r in a] == [r.objectives() for r in b]
        assert [r.plan.partition for r in a] == [r.plan.partition for r in b]

    def test_empty_grid_sweeps_nothing(self):
        g = gn.random_genome(rng=np.random.default_rng(1))
        assert chip_grid_search(g, Workload(512, 256), grid=ChipGrid(())) == ([], 0)
        assert chip_grid_search(g, Workload(512, 256))[1] > 0

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        g = gn.random_genome(rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="top_k"):
            chip_grid_search(g, Workload(512, 256), top_k=top_k)

    def test_ring_cost_picks_member_of_topk(self):
        rng = np.random.default_rng(4)
        g = gn.random_genome(rng=rng)
        picks, _ = chip_grid_search(g, Workload(512, 256))
        chosen = ring_cost(g, Workload(512, 256))
        cost = chosen.cost
        assert chosen.objectives() in [r.objectives() for r in picks]
        products = [r.cost.e_tok_j * r.cost.ttft_s * r.cost.tpot_s for r in picks]
        assert cost.e_tok_j * cost.ttft_s * cost.tpot_s == pytest.approx(min(products))
        assert chosen == best_ring_pick(picks)

    @staticmethod
    def _expected_work(genome, workload, grid):
        """The chips, packs and simulations of a grid search, by a literal
        per-memory-size rule: ((n_mac, w_core_kb) of the chips built, pack
        calls, feasible pack calls, feasible points, distinct (chip, plan)
        designs).

        The first point of each w_core_kb builds a chip for the memory
        size's stage limits, and each other distinct (n_mac, w_core_kb)
        builds one when one of its points packs.  Limits that
        cannot hold some single layer (a pack under an unbounded cap is
        None) pack nothing.  Limits that hold every layer pack the distinct
        caps of the memory size from the largest down, except a cap
        whose next larger cap packed to None or to at most that many stages.
        Each distinct (chip, plan) of the per-point sweep is simulated once."""
        profiles = profile_model(genome, workload)
        max_w = max(p.weight_bytes for p in profiles)

        def limits_of(n_mac, w_core):
            chip = build_chip(n_mac, w_core, max_w, workload.ctx_peak)
            return StageLimits(chip.weight_cap, chip.kv_cap, chip.scratch_bytes, chip.max_ctx)

        first, caps_of = {}, {}
        for n_mac, w_core, cap in grid:
            first.setdefault(w_core, (n_mac, w_core))
            caps_of.setdefault(w_core, set()).add(cap)
        fits = {w: balanced_contiguous_pack(profiles, limits_of(*first[w]), math.inf) is not None
                for w in first}
        chips = set(first.values())
        n_packs = n_fit_packs = 0
        for w_core, caps in caps_of.items():
            if not fits[w_core]:
                continue
            limits = limits_of(*first[w_core])
            larger = None
            for cap in sorted(caps, reverse=True):
                part = balanced_contiguous_pack(profiles, limits, cap)
                if larger is None or (larger[1] is not None and len(larger[1]) > cap):
                    n_packs += 1
                    n_fit_packs += part is not None
                larger = cap, part
        n_feasible, designs = 0, set()
        for n_mac, w_core, cap in grid:
            chip = build_chip(n_mac, w_core, max_w, workload.ctx_peak)
            part = balanced_contiguous_pack(profiles, limits_of(n_mac, w_core), cap)
            if part is not None:
                n_feasible += 1
                designs.add((chip, tuple(tuple(s) for s in part)))
                chips.add((n_mac, w_core))
        return chips, n_packs, n_fit_packs, n_feasible, designs

    @staticmethod
    @contextlib.contextmanager
    def _counted():
        """Record build_chip's (n_mac, w_core_kb), each pack's
        feasibility, cap and greedy scans, greedy_contiguous_partition calls
        and simulated (chip, plan) pairs, at the module attributes the
        search calls."""
        log = SimpleNamespace(chips=[], packs=[], caps=[], scans=[], greedy=[], sims=[])
        pack, greedy = ring.balanced_contiguous_pack, packing.greedy_contiguous_partition
        chip_of, simulate, scan = ring.build_chip, ring._simulate, packing._greedy_starts

        def counting_pack(profiles, limits, cap):
            log.scans.append(0)
            out = pack(profiles, limits, cap)
            log.packs.append(out is not None)
            log.caps.append(cap)
            return out

        def counting_scan(*args):
            log.scans[-1] += 1
            return scan(*args)

        def counting_chip(n_mac, w_core, *rest):
            log.chips.append((n_mac, w_core))
            return chip_of(n_mac, w_core, *rest)

        patches = {
            (ring, "balanced_contiguous_pack"): counting_pack,
            (packing, "greedy_contiguous_partition"):
                lambda *a: log.greedy.append(1) or greedy(*a),
            (ring, "build_chip"): counting_chip,
            (packing, "_greedy_starts"): counting_scan,
            (ring, "_simulate"):
                lambda plan, wl, *terms: log.sims.append((plan.chip, plan.partition))
                or simulate(plan, wl, *terms),
        }
        originals = {key: getattr(*key) for key in patches}
        for (module, name), fn in patches.items():
            setattr(module, name, fn)
        try:
            yield log
        finally:
            for (module, name), fn in originals.items():
                setattr(module, name, fn)

    def _assert_work_matches(self, genome, workload, grid, top_k=3):
        chips, n_packs, n_fit_packs, n_packed, designs = self._expected_work(
            genome, workload, grid.points)
        with self._counted() as log:
            picks, n_feasible = chip_grid_search(genome, workload, grid, top_k)
        assert n_feasible == n_packed
        # one chip per memory size, plus one per other (n_mac, w_core_kb)
        # that packs
        assert len(log.chips) == len(set(log.chips)) == len(chips)
        assert set(log.chips) == chips
        # one pack per cap that a larger cap does not settle
        assert len(log.packs) == n_packs
        assert sum(log.packs) == n_fit_packs
        # each pack builds its partition from its last probe
        assert log.greedy == []
        # a pack scans at least once, and exactly once when the cap is at
        # least the layer count: the largest layer's ops then fit
        n_layers = len(profile_model(genome, workload))
        assert all(n >= 1 and (cap < n_layers or n == 1) for cap, n in zip(log.caps, log.scans))
        # one simulation per distinct (chip, plan) of the literal sweep
        assert len(log.sims) == len(set(log.sims)) == len(designs)
        assert set(log.sims) == designs
        return picks, log

    def test_chips_built_once_per_key_across_genomes(self, monkeypatch):
        """A chip depends only on (n_mac, w_core_kb, core count, max_ctx):
        over a small ring_preset search each distinct key constructs one
        ChipTemplate, and a warm memo leaves every per-call count of
        ``_expected_work`` as it was."""
        built, keys = [], []
        template, chip_of = ring.ChipTemplate, ring.build_chip

        def counting_template(**fields):
            built.append(fields)
            return template(**fields)

        def recording_chip(n_mac, w_core, max_w, max_ctx):
            chip = chip_of(n_mac, w_core, max_w, max_ctx)
            keys.append((n_mac, w_core, chip.n_cores, max_ctx))
            return chip

        monkeypatch.setattr(ring, "ChipTemplate", counting_template)
        monkeypatch.setattr(ring, "build_chip", recording_chip)
        ring._chip.cache_clear()
        cfg = dataclasses.replace(ring_preset(seed=3), population_size=4, offspring_size=4,
                                  generations=2)
        res = run_search(cfg)
        assert len(set(keys)) < len(keys)  # keys repeat across genomes
        assert len(built) == len(set(keys))
        info = ring._chip.cache_info()
        assert (info.misses, info.hits) == (len(set(keys)), len(keys) - len(set(keys)))
        monkeypatch.undo()
        workload = Workload(cfg.prefill_tokens, cfg.decode_tokens)
        for ind in res.evaluated[:4]:
            self._assert_work_matches(ind.genome, workload, DEFAULT_CHIP_GRID)

    def test_packs_only_what_can_change_the_answer(self):
        g = gn.random_genome(rng=np.random.default_rng(1))
        picks, log = self._assert_work_matches(g, Workload(512, 256), DEFAULT_CHIP_GRID)
        assert picks
        # only the 24 KB memory size holds this genome's layers: one chip per
        # memory size plus its other two MAC counts, and two packs, since
        # cap 32's ring has at most 16 stages and so settles cap 16, and cap
        # 8 does not fit (the default grid used to cost 15 chips and 15 packs)
        assert (len(log.chips), len(log.packs), sum(log.packs)) == (7, 2, 1)

    @given(grid_search_cases())
    @settings(max_examples=150, deadline=None)
    def test_chip_pack_and_simulation_counts(self, case):
        self._assert_work_matches(*case)

    @given(grid_search_cases())
    @settings(max_examples=150, deadline=None)
    def test_costs_equal_literal_ring_simulate(self, case):
        """The search simulates from terms it computes once per call (the
        model's ops, each partition's stage ops, the layers' energy); every
        cost it computes, and every cost it returns, has the repr of
        ring_simulate on the same plan."""
        genome, workload, grid = case
        simulated = []
        simulate = ring._simulate

        def recording(plan, wl, *terms):
            simulated.append((plan, simulate(plan, wl, *terms)))
            return simulated[-1][1]

        with mock.patch.object(ring, "_simulate", recording):
            picks, _ = chip_grid_search(genome, workload, grid, top_k=max(1, len(grid.points)))
        assert len(picks) <= len(simulated)
        for plan, cost in simulated:
            assert repr(cost) == repr(ring_simulate(plan, workload))
        for pick in picks:
            assert repr(pick.cost) == repr(ring_simulate(pick.plan, workload))

    # (axis, value): a bad n_mac, w_core_kb or cap; each axis also gets a
    # value that is not an exact int (NaN, 16.0, True, np.int64(16))
    BAD_VALUES = [
        *[(0, n_mac) for n_mac in (0, -16, 0.0, math.inf, -math.inf)],
        *[(1, w_core) for w_core in (0, -24, 0.0, math.inf, -math.inf)],
        *[(2, cap) for cap in (0, -8, 0.5, 0.0, -math.inf)],
        *[(axis, value) for axis in range(3) for value in (math.nan, 16.0, True, np.int64(16))],
    ]

    @given(grid_search_cases(), st.sampled_from(BAD_VALUES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_bad_grid_point_raises(self, case, bad, data):
        """A bad n_mac, w_core_kb or cap makes the grid's constructor raise
        ValueError naming its axis, wherever it sits: also at a memory size
        that holds no layer or under a cap that a larger cap settles; a NaN
        cap is not taken for no cap."""
        _, _, grid = case
        points = list(grid.points)
        axis, value = bad
        point = list(data.draw(st.sampled_from(points)))
        point[axis] = value
        at = data.draw(st.integers(0, len(points)))
        points = points[:at] + [tuple(point)] + points[at:]
        with pytest.raises(ValueError, match=GRID_AXES[axis]):
            ChipGrid(points)

    @pytest.mark.parametrize("axis", range(3))
    def test_grid_values_up_to_2_pow_53(self, axis):
        """Every int up to 2**53 is exact as a float: it is the largest
        grid value, and a search on it runs."""
        point = [16, 24, 8]
        point[axis] = 2**53
        grid = ChipGrid([tuple(point)])
        g = gn.random_genome(rng=np.random.default_rng(1))
        assert chip_grid_search(g, Workload(512, 256), grid)[1] in (0, 1)
        point[axis] = 2**53 + 1
        with pytest.raises(ValueError, match=GRID_AXES[axis]):
            ChipGrid([tuple(point)])

    def test_grid_keeps_point_order_and_repeats_and_sorts_caps(self):
        points = [(32, 96, 8), (16, 24, 16), (32, 96, 8), (16, 96, 32), (64, 96, 16)]
        grid = ChipGrid(iter(points))
        assert grid.points == tuple(points)
        assert grid.caps == {96: (32, 16, 8), 24: (16,)}
        assert grid == ChipGrid(points) and hash(grid) == hash(ChipGrid(points))
        assert pickle.loads(pickle.dumps(grid)).caps == grid.caps
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.points = ()

    def test_ring_search_checks_no_grid_value(self, monkeypatch):
        """The default grid is checked once, at import: a ring_preset
        search builds no ChipGrid, so it checks no grid value."""
        counts = {"grids": 0, "searches": 0}
        check, search = ChipGrid.__post_init__, ring.chip_grid_search

        def counting_check(grid):
            counts["grids"] += 1
            check(grid)

        def counting_search(*args, **kwargs):
            counts["searches"] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(ChipGrid, "__post_init__", counting_check)
        monkeypatch.setattr(ring, "chip_grid_search", counting_search)
        ChipGrid([(16, 24, 8)])
        assert counts["grids"] == 1  # the count sees a constructor call
        cfg = dataclasses.replace(ring_preset(seed=3), population_size=4, offspring_size=4,
                                  generations=2)
        run_search(cfg)
        assert counts["searches"] > 0 and counts["grids"] == 1

    def test_best_ring_pick_ties_go_to_the_earlier_pick(self):
        a, b, c = (
            SimpleNamespace(cost=HWCost(*abc))
            for abc in [(2.0, 3.0, 1.0), (1.0, 6.0, 1.0), (1.0, 1.0, 1.0)]
        )
        assert best_ring_pick([a, b]) is a
        assert best_ring_pick([b, a]) is b
        assert best_ring_pick([a, b, c]) is c


class TestPlanExport:
    def test_csv_round_trip_and_stability(self, tmp_path):
        rng = np.random.default_rng(6)
        g = gn.random_genome(rng=rng)
        wl = Workload(512, 256)
        result = ring_cost(g, wl)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_plan_csv(result.plan, wl, p1)
        write_plan_csv(result.plan, wl, p2)
        b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
        assert b1 == b2
        lines = b1.decode().strip().splitlines()
        assert lines[0].startswith("stage,layer_start,layer_end")
        assert len(lines) == 1 + result.plan.n_chips
