"""Genome validation, repair, counting and serialization."""
import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihasearch import genome as gn
from ihasearch.hwcost import (
    GRID_AXES,
    ChipGrid,
    Workload,
    load_substrate,
    profile_model,
    substrate_cost,
)
from oracles import (
    brute_repair,
    reference_count_params,
    reference_gene_on_space,
    reference_profile_model,
    reference_random_genome,
    reference_to_json,
    reference_validate,
)


def make_genome(layers, d_model=768, block_size=1024, max_layers=None):
    max_layers = max_layers if max_layers is not None else len(layers)
    return gn.ArchGenome(gn.GlobalConfig(d_model, block_size, max_layers), tuple(layers))


ACTIVE = gn.LayerGene(mask=1, attn=1, n_h=8, n_kv=2, d_qk=64, d_v=64, d_mlp=1024)
INACTIVE = gn.LayerGene(mask=0, attn=1, n_h=1, n_kv=1, d_qk=64, d_v=64, d_mlp=512)
_CACHE_SLOTS = [slot for slot in gn.LayerGene.__slots__ if slot.startswith("_")]
_GEMMINI = load_substrate("gemmini")


# --- counting oracles -------------------------------------------------------

def brute_count_configs(variant, d_model, ranges=None):
    """Enumerate the raw field cross product and count admissible shapes."""
    r = ranges or gn.SpaceRanges()
    n = 0
    if variant == gn.GQA:
        for n_h in r.n_h.values():
            for n_kv in r.n_kv.values():
                if d_model % n_h == 0 and n_kv <= n_h and n_h % n_kv == 0:
                    n += 1
        return n
    for n_h in r.n_h.values():
        for n_kv in r.n_kv.values():
            if not (n_kv <= n_h and n_h % n_kv == 0):
                continue
            n += len(r.d_qk.values()) * len(r.d_v.values())
    return n


def brute_count_params(g, vocab):
    d = g.global_cfg.d_model
    total = vocab * d
    for gene in g.layers:
        if gene.mask != 1:
            continue
        if gene.attn == 1:
            # q, k, v, o projections written out one by one
            total += d * gene.n_h * gene.d_qk
            total += d * gene.n_kv * gene.d_qk
            total += d * gene.n_kv * gene.d_v
            total += gene.n_h * gene.d_v * d
        total += d * gene.d_mlp + gene.d_mlp * d
    return total


class TestCounting:
    def test_gqa_default_space(self):
        assert gn.count_attention_configs(gn.GQA, 768) == 27

    def test_iha_default_space(self):
        assert gn.count_attention_configs(gn.IHA, 768) == 11250

    def test_small_custom_space(self):
        r = gn.SpaceRanges(n_h=gn.FieldRange(1, 1, 2))
        assert gn.count_attention_configs(gn.GQA, 64, r) == 3

    @pytest.mark.parametrize("variant", [gn.GQA, gn.IHA])
    @pytest.mark.parametrize("d_model", [64, 256, 768, 960])
    def test_matches_brute_force(self, variant, d_model):
        assert gn.count_attention_configs(variant, d_model) == brute_count_configs(variant, d_model)

    def test_gqa_never_exceeds_iha(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d_model = int(rng.integers(1, 2049))
            hi = int(rng.integers(1, 33))
            r = gn.SpaceRanges(n_h=gn.FieldRange(1, 1, hi), n_kv=gn.FieldRange(1, 1, hi))
            assert gn.count_attention_configs(gn.GQA, d_model, r) <= gn.count_attention_configs(gn.IHA, d_model, r)

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            gn.count_attention_configs("mha", 768)


class TestCountParams:
    def test_single_layer_example(self):
        g = make_genome([gn.LayerGene(1, 1, 9, 3, 64, 96, 1536)])
        assert gn.count_params(g, vocab_size=0) == 3_833_856

    def test_attn_gated_off_drops_projections(self):
        g = make_genome([gn.LayerGene(1, 0, 9, 3, 64, 96, 1536)])
        assert gn.count_params(g, vocab_size=0) == 2_359_296

    def test_masked_layer_contributes_nothing(self):
        base = make_genome([ACTIVE])
        padded = make_genome([ACTIVE, INACTIVE], max_layers=2)
        assert gn.count_params(base, 0) == gn.count_params(padded, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = gn.random_genome(rng=rng)
            vocab = int(rng.integers(0, 60000))
            assert gn.count_params(g, vocab) == brute_count_params(g, vocab)

    def test_default_vocab_embedding_term(self):
        g = make_genome([ACTIVE])
        assert gn.count_params(g) == gn.count_params(g, 0) + 50257 * 768


class TestGroupMap:
    def test_eight_heads_two_groups(self):
        groups = [gn.group_map(h, 8, 2) for h in range(1, 9)]
        assert groups == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_mha_is_identity(self):
        assert [gn.group_map(h, 6, 6) for h in range(1, 7)] == [1, 2, 3, 4, 5, 6]

    def test_mqa_single_group(self):
        assert {gn.group_map(h, 12, 1) for h in range(1, 13)} == {1}

    def test_non_divisor_raises(self):
        with pytest.raises(ValueError):
            gn.group_map(1, 8, 3)

    def test_head_out_of_range_raises(self):
        with pytest.raises(ValueError):
            gn.group_map(9, 8, 2)

    def test_group_sizes_equal(self):
        for n_h in range(1, 17):
            for n_kv in range(1, n_h + 1):
                if n_h % n_kv:
                    continue
                counts = {}
                for h in range(1, n_h + 1):
                    g = gn.group_map(h, n_h, n_kv)
                    counts[g] = counts.get(g, 0) + 1
                assert sorted(counts) == list(range(1, n_kv + 1))
                assert set(counts.values()) == {n_h // n_kv}


class TestValidateRepair:
    def test_valid_genome_has_no_violations(self):
        assert gn.validate(make_genome([ACTIVE])) == []

    def test_detects_bad_divisor_and_off_grid(self):
        bad = gn.LayerGene(1, 1, 8, 3, 70, 64, 1024)
        v = gn.validate(make_genome([bad]))
        assert {(x.layer, x.field) for x in v} == {(0, "n_kv"), (0, "d_qk")}

    def test_inactive_layers_not_field_checked(self):
        sloppy = gn.LayerGene(0, 1, 8, 3, 70, 9999, -5)
        assert gn.validate(make_genome([sloppy, ACTIVE], max_layers=2)) == []

    def test_detects_no_active_layer(self):
        v = gn.validate(make_genome([INACTIVE]))
        assert any(x.layer is None and x.field == "mask" for x in v)

    def test_repair_divisor_projection(self):
        g = gn.repair(make_genome([gn.LayerGene(1, 1, 8, 3, 64, 64, 1024)]))
        assert g.layers[0].n_kv == 2

    def test_repair_snaps_to_grid(self):
        g = gn.repair(make_genome([gn.LayerGene(1, 1, 8, 2, 70, 64, 1024)]))
        assert g.layers[0].d_qk == 64

    def test_repair_midpoint_ties_go_down(self):
        g = gn.repair(make_genome([gn.LayerGene(1, 1, 8, 2, 80, 64, 1024)]))
        assert g.layers[0].d_qk == 64  # 80 sits exactly between 64 and 96

    def test_repair_clamps_to_span(self):
        g = gn.repair(make_genome([gn.LayerGene(1, 1, 99, 1, 1024, 8, 10_000)]))
        gene = g.layers[0]
        assert (gene.n_h, gene.d_qk, gene.d_v, gene.d_mlp) == (16, 512, 64, 4096)

    def test_repair_reactivates_empty_genome(self):
        g = gn.repair(make_genome([INACTIVE, INACTIVE], max_layers=2))
        assert len(g.active_layers()) >= 1
        assert gn.validate(g) == []

    def test_repair_pads_short_gene_list(self):
        g = gn.repair(make_genome([ACTIVE], max_layers=5))
        assert len(g.layers) == 5
        assert gn.validate(g) == []

    @given(
        st.lists(
            st.tuples(
                st.integers(-2, 3), st.integers(-2, 3),
                st.integers(-8, 40), st.integers(-8, 40),
                st.integers(0, 1024), st.integers(0, 1024),
                st.integers(-100, 9000),
            ),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_repair_idempotent_and_valid(self, raw):
        layers = [gn.LayerGene(*t) for t in raw]
        g = make_genome(layers)
        once = gn.repair(g)
        assert gn.validate(once) == []
        assert gn.repair(once) == once


# Field values that reach both repair paths: on-grid ints (fast path), and
# off-grid and negative ints (full projection).  The valid-gene strategies
# put whole genes on the grids of each space.
_FIELD = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 6, 8, 12, 16, 64, 96, 512, 768, 1024, 4096]),
    st.integers(-600, 5000),
)
_VALID_GENE = st.builds(
    gn.LayerGene,
    mask=st.sampled_from([0, 1]),
    attn=st.sampled_from([0, 1]),
    n_h=st.just(12),
    n_kv=st.sampled_from([1, 2, 3, 4, 6, 12]),
    d_qk=st.sampled_from([64, 96, 512]),
    d_v=st.sampled_from([64, 128]),
    d_mlp=st.sampled_from([512, 768, 4096]),
)
_ANY_GENE = st.builds(gn.LayerGene, *([_FIELD] * 7))
# a second space whose grids start at or below zero and whose n_kv grid lacks
# some divisors of the n_h values (8 has 1 and 4 on it, 6 only 1)
_ODD_RANGES = gn.SpaceRanges(
    n_h=gn.FieldRange(0, 2, 9),
    n_kv=gn.FieldRange(1, 3, 10),
    d_qk=gn.FieldRange(-64, 32, 64),
    d_v=gn.FieldRange(8, 8, 40),
    d_mlp=gn.FieldRange(-5, 5, 30),
)
_ODD_GRID_GENE = st.builds(
    gn.LayerGene,
    *[st.sampled_from([0, 1])] * 2,
    *[st.sampled_from(_ODD_RANGES.field(name).values()) for name in gn.NUMERIC_FIELDS],
)


def _brute_json(genome, ranges):
    glob, layers = brute_repair(genome, ranges)
    return gn.to_json(
        gn.ArchGenome(gn.GlobalConfig(*glob), tuple(gn.LayerGene(*l) for l in layers))
    )


# global fields repair sees: ints below, at and above 1
_GLOBAL_FIELD = st.one_of(st.integers(-2, 2048), st.sampled_from([1, 768, 1024]))
_MAX_LAYERS = st.integers(-1, 6)


# the ways a genome on the space can still need rebuilding: a global field
# that is 0 or negative, a gene tuple of the wrong length, or no active layer
_REPAIR_DEFECTS = [
    *[(field, value) for field in ("d_model", "block_size") for value in (0, -3)],
    *[("max_layers", value) for value in (0, -1)],
    ("layers", "short"), ("layers", "long"), ("mask", 0),
]


@st.composite
def repair_inputs(draw):
    """A genome and a space.  Two times in three: exact-int globals over
    max_layers genes on the space's grids, one of them active, which repair
    leaves alone, with at most one of ``_REPAIR_DEFECTS``.  Otherwise any
    mix of global values, gene values and list lengths."""
    # sampled_from, not integers or booleans: hypothesis favours their
    # smallest values
    ranges = draw(st.sampled_from([gn.SpaceRanges(), gn.SpaceRanges(), _ODD_RANGES]))
    on_grid = _VALID_GENE if ranges == gn.SpaceRanges() else _ODD_GRID_GENE
    if draw(st.sampled_from([True, True, False])):
        defect = draw(st.sampled_from([None] * 4 + _REPAIR_DEFECTS))
        n = 1 if defect and defect[0] == "max_layers" else draw(st.sampled_from([1, 2, 3, 6]))
        glob = {"d_model": 768, "block_size": 1024, "max_layers": n}
        genes = draw(st.lists(on_grid, min_size=n, max_size=n))
        genes[0] = dataclasses.replace(genes[0], mask=1)
        if defect is None:
            pass
        elif defect[0] in glob:
            glob[defect[0]] = defect[1]
        elif defect[0] == "layers":
            genes = genes[1:] if defect[1] == "short" else genes + genes[:1]
        else:
            genes = [dataclasses.replace(gene, mask=0) for gene in genes]
        return gn.ArchGenome(gn.GlobalConfig(**glob), tuple(genes)), ranges
    glob = (draw(_GLOBAL_FIELD), draw(_GLOBAL_FIELD), draw(_MAX_LAYERS))
    genes = draw(st.lists(st.one_of(on_grid, _ANY_GENE), max_size=8))
    return gn.ArchGenome(gn.GlobalConfig(*glob), tuple(genes)), ranges


def _gene_fields(gene):
    return tuple(getattr(gene, name) for name in ("mask", "attn") + gn.NUMERIC_FIELDS)


class TestRepairFastPath:
    @given(
        genes=st.lists(st.one_of(_VALID_GENE, _ODD_GRID_GENE, _ANY_GENE), max_size=9),
        max_layers=st.integers(-1, 7),
        ranges=st.sampled_from([gn.SpaceRanges(), _ODD_RANGES]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_projection_and_is_idempotent(self, genes, max_layers, ranges):
        g = gn.ArchGenome(gn.GlobalConfig(768, 1024, max_layers), tuple(genes))
        once = gn.repair(g, ranges)
        assert gn.to_json(once) == _brute_json(g, ranges)
        assert gn.to_json(gn.repair(once, ranges)) == gn.to_json(once)
        assert gn.validate(once, ranges) == []

    @given(repair_inputs())
    @settings(max_examples=400, deadline=None)
    def test_noop_returns_the_input_and_types_match_literal_projection(self, case):
        """repair gives brute_repair's values with its field types, and
        returns the input object exactly when that projection changes
        nothing: globals >= 1, max_layers genes already projected, one of
        them active.  A gene
        with n_h = 0 (on a grid that holds 0) is its own projection too, but
        the per-gene grid check asks for 1 <= n_kv <= n_h, so such a genome
        is rebuilt, equal to the input."""
        g, ranges = case
        glob, layers = brute_repair(g, ranges)
        out = gn.repair(g, ranges)
        cfg = out.global_cfg
        got = (cfg.d_model, cfg.block_size, cfg.max_layers)
        assert got == glob and list(map(type, got)) == list(map(type, glob))
        assert type(out.layers) is tuple
        assert tuple(map(_gene_fields, out.layers)) == layers
        assert all(type(v) is int for gene in out.layers for v in _gene_fields(gene))
        g_cfg = g.global_cfg
        noop = (
            all(v >= 1 for v in (g_cfg.d_model, g_cfg.block_size, g_cfg.max_layers))
            and tuple(map(_gene_fields, g.layers)) == layers
            and all(1 <= gene.n_kv <= gene.n_h for gene in g.layers)
        )
        assert (out is g) == noop

    def test_valid_gene_is_returned_as_is(self):
        g = gn.repair(make_genome([ACTIVE, INACTIVE]))
        assert g.layers[0] is ACTIVE and g.layers[1] is INACTIVE

    def test_n_kv_stays_on_its_grid(self):
        # n_h snaps to 8 and n_kv to 10; 8 is a divisor of 8 but off the n_kv
        # grid {1, 4, 7, 10}, so the largest on-grid divisor is 4
        g = make_genome([gn.LayerGene(1, 1, 12, 12, 64, 8, 30)])
        once = gn.repair(g, _ODD_RANGES)
        assert once.layers[0].n_h == 8 and once.layers[0].n_kv == 4
        assert gn.repair(once, _ODD_RANGES) == once
        assert gn.validate(once, _ODD_RANGES) == []

    def test_n_kv_falls_back_to_smallest_on_grid_divisor(self):
        # 15's divisors on the grid 2..16 are 3, 5 and 15, all above the
        # snapped n_kv of 2
        ranges = gn.SpaceRanges(n_kv=gn.FieldRange(2, 1, 16))
        g = make_genome([gn.LayerGene(1, 1, 15, 2, 64, 64, 512)])
        assert gn.repair(g, ranges).layers[0].n_kv == 3

    def test_n_kv_grid_without_a_divisor_raises(self):
        ranges = gn.SpaceRanges(n_kv=gn.FieldRange(2, 2, 8))
        g = make_genome([gn.LayerGene(1, 1, 7, 1, 64, 64, 512)])
        with pytest.raises(ValueError, match="no divisor of n_h=7"):
            gn.repair(g, ranges)

    def test_all_inactive_and_wrong_lengths(self):
        for genes, max_layers in [([INACTIVE] * 3, 3), ([ACTIVE], 4), ([ACTIVE] * 6, 2)]:
            g = make_genome(genes, max_layers=max_layers)
            assert gn.to_json(gn.repair(g)) == _brute_json(g, gn.SpaceRanges())


@st.composite
def fast_path_genes(draw, ranges):
    """A gene for ``repair``'s per-field fast path under ``ranges``: every
    field on its grid but n_kv not dividing n_h (what ``random_genome``
    mostly draws), or such a gene with one field moved off its grid: inside
    the span, beyond it, or onto another field's grid."""
    grid_of = {name: ranges.field(name).values() for name in gn.NUMERIC_FIELDS}
    fields = {bit: draw(st.sampled_from([0, 1])) for bit in ("mask", "attn")}
    fields.update({name: draw(st.sampled_from(grid_of[name])) for name in gn.NUMERIC_FIELDS})
    n_h = fields["n_h"]
    fields["n_kv"] = draw(st.sampled_from(
        [d for d in grid_of["n_kv"] if not (1 <= d <= n_h and n_h % d == 0)] or grid_of["n_kv"]))
    name = draw(st.sampled_from([None, None, *gn.NUMERIC_FIELDS]))
    if name is not None:
        r = ranges.field(name)
        others = sorted({x for values in grid_of.values() for x in values if not r.contains(x)})
        fields[name] = draw(st.one_of(
            st.integers(r.lo - 3 * r.step, r.hi + 3 * r.step).filter(lambda x: not r.contains(x)),
            st.sampled_from([r.lo - 10**6, r.hi + 10**6, *others])))
    return gn.LayerGene(**fields)


class TestRepairPerField:
    """``repair`` snaps only the fields that are off their grid, and
    ``snap_n_kv`` is memoised: the projection is still the literal one."""

    @given(st.sampled_from([gn.SpaceRanges(), _ODD_RANGES]).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(fast_path_genes(r), min_size=1, max_size=8))))
    @settings(max_examples=400, deadline=None)
    def test_matches_literal_projection_with_int_fields(self, case):
        ranges, genes = case
        g = make_genome(genes)
        _, layers = brute_repair(g, ranges)
        out = gn.repair(g, ranges)
        assert tuple(map(_gene_fields, out.layers)) == layers
        assert all(type(v) is int for gene in out.layers for v in _gene_fields(gene))
        # equal, not always the same object: a gene with n_h = 0 on a grid
        # that holds 0 is rebuilt (see the no-op test above)
        assert gn.repair(out, ranges) == out

    def test_no_divisor_raises_every_time(self):
        ranges = gn.SpaceRanges(n_kv=gn.FieldRange(2, 2, 8))
        g = make_genome([gn.LayerGene(1, 1, 7, 1, 64, 64, 512)])
        for _ in range(3):
            with pytest.raises(ValueError, match="no divisor of n_h=7"):
                gn.snap_n_kv(7, 1, ranges.n_kv)
            with pytest.raises(ValueError, match="no divisor of n_h=7"):
                gn.repair(g, ranges)
        # the memo holds answers, keyed by value, and stays bounded
        assert gn.snap_n_kv(8, 3, ranges.n_kv) == gn.snap_n_kv(8, 3, gn.FieldRange(2, 2, 8)) == 2
        assert gn.snap_n_kv.cache_info().maxsize is not None


class TestRandomGenome:
    def test_always_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            assert gn.validate(gn.random_genome(rng=rng)) == []

    def test_deterministic_given_seed(self):
        a = gn.random_genome(rng=np.random.default_rng(42))
        b = gn.random_genome(rng=np.random.default_rng(42))
        assert a == b

    def test_n_h_marginal_uniform(self):
        # 10k draws; repair never moves an in-range n_h, so the marginal stays uniform
        rng = np.random.default_rng(0)
        counts = np.zeros(17, dtype=int)
        draws = 0
        while draws < 10_000:
            g = gn.random_genome(rng=rng)
            for gene in g.layers:
                counts[gene.n_h] += 1
                draws += 1
        p = 1 / 16
        sigma = np.sqrt(draws * p * (1 - p))
        for v in range(1, 17):
            assert abs(counts[v] - draws * p) < 3.5 * sigma


class TestSerialization:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = gn.random_genome(rng=rng)
            assert gn.from_json(gn.to_json(g)) == g

    def test_canonical_text_is_byte_stable(self):
        g = gn.random_genome(rng=np.random.default_rng(9))
        s = gn.to_json(g)
        assert gn.to_json(gn.from_json(s)) == s
        assert s == gn.to_json(gn.from_dict(json.loads(s)))

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d["layers"][0].update(d_qk=64.9), "layers[0].d_qk"),
        (lambda d: d["layers"][0].update(d_qk=64.0), "layers[0].d_qk"),
        (lambda d: d["layers"][2].update(mask=True), "layers[2].mask"),
        (lambda d: d["layers"][1].update(n_h="8"), "layers[1].n_h"),
        (lambda d: d["layers"][1].update(n_kv=None), "layers[1].n_kv"),
        (lambda d: d["layers"][3].pop("attn"), "'attn'"),
        (lambda d: d["global"].update(d_model=float("inf")), "global.d_model"),
        (lambda d: d["global"].pop("max_layers"), "'max_layers'"),
        (lambda d: d.update({"global": [768]}), "global"),
        (lambda d: d["layers"].__setitem__(4, [1, 1]), "layers[4]"),
        (lambda d: d.update(layers={"0": {}}), "layers"),
        (lambda d: d.pop("layers"), "layers"),
    ])
    def test_from_dict_takes_exact_integers_only(self, edit, named):
        doc = json.loads(gn.to_json(gn.random_genome(rng=np.random.default_rng(9))))
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(named)):
            gn.from_dict(doc)
        with pytest.raises(ValueError, match=re.escape(named)):
            gn.from_json(json.dumps(doc))

    def test_keys_sorted_and_compact(self):
        s = gn.to_json(make_genome([ACTIVE]))
        assert s.index('"global"') < s.index('"layers"')
        assert " " not in s

    def test_genome_id_stable_and_content_sensitive(self):
        g = make_genome([ACTIVE])
        assert gn.genome_id(g) == gn.genome_id(gn.from_json(gn.to_json(g)))
        g2 = make_genome([gn.LayerGene(1, 1, 8, 2, 64, 64, 1280)])
        assert gn.genome_id(g) != gn.genome_id(g2)
        assert len(gn.genome_id(g)) == 12

    def test_id_and_hash64_are_digests_of_the_canonical_json(self):
        rng = np.random.default_rng(12)
        for g in [make_genome([ACTIVE])] + [gn.random_genome(rng=rng) for _ in range(5)]:
            data = gn.to_json(g).encode()
            assert gn.genome_id(g) == hashlib.sha1(data).hexdigest()[:12]
            assert gn.genome_hash64(g) == int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
        # pinned values: the id names genome files, the hash seeds oracle noise
        g = make_genome([ACTIVE])
        assert (gn.genome_id(g), gn.genome_hash64(g)) == ("4f79c9d61307", 15461220520269722588)


# --- per-genome bookkeeping against the literal references ------------------

def _outcome(fn, *args):
    """fn(*args), or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the package and the reference raise alike
        return type(exc)


_GATE = st.sampled_from([0, 1, -1, 2])
_GLOBAL = st.builds(
    gn.GlobalConfig,
    d_model=st.one_of(st.sampled_from([768, 960, 1]), st.integers(-3, 4096)),
    block_size=st.one_of(st.sampled_from([1024, 2048]), st.integers(-3, 8192)),
    max_layers=st.integers(-1, 9),
)
_MIXED_GENE = st.one_of(
    _VALID_GENE, _ODD_GRID_GENE, _ANY_GENE,
    st.builds(gn.LayerGene, _GATE, _GATE, *([_FIELD] * 5)),
    # on-grid shape with a non-dividing n_kv, active or not
    st.builds(gn.LayerGene, _GATE, _GATE, st.just(16), st.sampled_from([3, 5, 7]),
              st.just(64), st.just(64), st.just(512)),
)
_GENOMES = st.builds(gn.ArchGenome, _GLOBAL, st.lists(_MIXED_GENE, max_size=9).map(tuple))


def _field_range(lo, step, n):
    return gn.FieldRange(lo, step, lo + step * (n - 1))


# non-default spaces: steps above 1, single-point grids, grids at or below 0,
# and grid values past the int64 range
_RANGES = st.one_of(
    st.just(gn.SpaceRanges()),
    st.just(_ODD_RANGES),
    st.just(gn.SpaceRanges(d_qk=gn.FieldRange(-2**62, 2**62, 2**62),
                           d_mlp=gn.FieldRange(2**64, 2**63, 2**65))),
    st.builds(
        gn.SpaceRanges,
        n_h=st.builds(_field_range, st.integers(1, 12), st.integers(1, 4), st.integers(1, 6)),
        n_kv=st.builds(_field_range, st.just(1), st.integers(1, 3), st.integers(1, 5)),
        d_qk=st.builds(_field_range, st.integers(-64, 64), st.integers(1, 64), st.integers(1, 4)),
        d_v=st.builds(_field_range, st.integers(1, 64), st.integers(1, 64), st.just(1)),
        d_mlp=st.builds(_field_range, st.integers(-5, 512), st.integers(1, 256), st.integers(1, 20)),
    ),
)


class TestBookkeepingMatchesReference:
    """The cheap to_json, validate, random_genome, hash and count_params give
    what the literal implementations in oracles.py give, byte for byte."""

    @given(genome=_GENOMES)
    @settings(max_examples=400, deadline=None)
    def test_to_json_bytes(self, genome):
        assert _outcome(gn.to_json, genome) == _outcome(reference_to_json, genome)

    def test_to_json_of_non_default_global_config(self):
        g = gn.ArchGenome(gn.GlobalConfig(960, 4096, 2), (ACTIVE, INACTIVE))
        s = gn.to_json(g)
        assert s == json.dumps(gn.to_dict(g), sort_keys=True, separators=(",", ":"))
        assert s.startswith('{"global":{"block_size":4096,"d_model":960,"max_layers":2},')

    @given(genome=_GENOMES, ranges=st.sampled_from([gn.SpaceRanges(), _ODD_RANGES]))
    @settings(max_examples=400, deadline=None)
    def test_validate_same_violations(self, genome, ranges):
        assert gn.validate(genome, ranges) == reference_validate(genome, ranges)

    def test_validate_named_cases(self):
        bad = [
            make_genome([ACTIVE, dataclasses.replace(ACTIVE, d_qk=70)]),  # off grid
            make_genome([dataclasses.replace(ACTIVE, mask=2, attn=-1)]),  # gate bits
            make_genome([dataclasses.replace(ACTIVE, n_kv=3)]),  # 3 does not divide 8
            make_genome([ACTIVE], max_layers=3),  # wrong length
            make_genome([INACTIVE, INACTIVE]),  # no active layer
        ]
        for g in bad:
            assert gn.validate(g) == reference_validate(g) != []

    @given(seed=st.integers(0, 2**32), ranges=_RANGES, max_layers=st.integers(-1, 12),
           d_model=st.sampled_from([768, 64]))
    @settings(max_examples=300, deadline=None)
    def test_random_genome_same_genome_and_stream(self, seed, ranges, max_layers, d_model):
        gcfg = gn.GlobalConfig(d_model=d_model, max_layers=max_layers)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _outcome(gn.random_genome, ranges, ours, gcfg)
        want = _outcome(reference_random_genome, ranges, ref, gcfg)
        assert got == want
        if isinstance(want, gn.ArchGenome):
            assert gn.to_json(got) == reference_to_json(want)
        assert ours.integers(2**62) == ref.integers(2**62)

    def test_random_genome_default_arguments(self):
        ours, ref = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(5):
            assert gn.to_json(gn.random_genome(rng=ours)) == reference_to_json(
                reference_random_genome(rng=ref))
        assert ours.random() == ref.random()

    @given(genome=_GENOMES)
    @settings(max_examples=200, deadline=None)
    def test_hash_is_the_generated_dataclass_hash(self, genome):
        assert hash(genome) == hash((genome.global_cfg, genome.layers))
        twin = gn.ArchGenome(genome.global_cfg, tuple(genome.layers))
        assert twin == genome and hash(twin) == hash(genome)
        assert hash(genome) == hash(genome)

    def test_separately_built_equal_genomes_share_a_memo_slot(self):
        g = gn.random_genome(rng=np.random.default_rng(4))
        twin = gn.from_json(gn.to_json(g))
        assert twin is not g and twin == g and hash(twin) == hash(g)
        assert {g: 1}[twin] == 1

    @given(genome=_GENOMES, vocab=st.sampled_from([0, 1, gn.DEFAULT_VOCAB_SIZE]))
    @settings(max_examples=200, deadline=None)
    def test_count_params_same_value(self, genome, vocab):
        for v in (vocab, 0):  # the second call reads the cached body count
            assert gn.count_params(genome, v) == reference_count_params(genome, v)


def _repaired_json(genome, ranges):
    return gn.to_json(gn.repair(genome, ranges))


class TestGeneCachesMatchReference:
    """A gene object caches its hash, its grid check (with the grids it was
    made for), its JSON row and its profile (with its key).  The same gene
    objects, shared by two genomes with different d_model and asked in
    alternation under two spaces and two workloads, give what the uncached
    references give, and no cache travels through a copy."""

    @given(
        genes=st.lists(_MIXED_GENE, min_size=1, max_size=9),
        spaces=st.lists(_RANGES, min_size=2, max_size=2),
        workloads=st.lists(st.builds(Workload, st.sampled_from([1, 7, 256, 512]),
                                     st.sampled_from([1, 255, 256])), min_size=2, max_size=2),
        d_models=st.lists(st.sampled_from([768, 960]), min_size=2, max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_validate_repair_profile_and_hash(self, genes, spaces, workloads, d_models):
        genomes = [
            gn.ArchGenome(gn.GlobalConfig(d_models[0], 1024, len(genes)), tuple(genes)),
            gn.ArchGenome(gn.GlobalConfig(d_models[1], 1024, len(genes)), tuple(reversed(genes))),
        ]
        for _ in range(2):  # the second round reads what the first cached
            for ranges in spaces:
                grids = gn._grid_sets(ranges)
                for gene in genes:
                    assert gn._gene_on_space(gene, grids) == reference_gene_on_space(gene, ranges)
                    assert hash(gene) == hash(dataclasses.astuple(gene))
                for g in genomes:
                    assert gn.validate(g, ranges) == reference_validate(g, ranges)
                    assert _outcome(_repaired_json, g, ranges) == _outcome(
                        _brute_json, g, ranges)
        # Gray-code order: consecutive calls differ in one of d_model and
        # workload, so a key that left one out would reuse a stale profile
        for i, j in [(0, 0), (0, 1), (1, 1), (1, 0)] * 2:
            args = genomes[i], workloads[j]
            assert _outcome(profile_model, *args) == _outcome(reference_profile_model, *args)

    def test_grid_check_is_keyed_by_the_grids_object(self):
        gene = gn.LayerGene(1, 1, 8, 4, 64, 64, 512)
        on, off = gn._grid_sets(gn.SpaceRanges()), gn._grid_sets(_ODD_RANGES)
        assert [gn._gene_on_space(gene, grids) for grids in (on, off, on, off)] == [
            True, False, True, False]

    @given(genes=st.lists(_MIXED_GENE, min_size=1, max_size=9),
           global_cfgs=st.lists(_GLOBAL, min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_to_json_rows(self, genes, global_cfgs):
        # the same gene objects under two global configs, so a row written
        # under one is read from the cache under the other
        genomes = [gn.ArchGenome(global_cfgs[0], tuple(genes)),
                   gn.ArchGenome(global_cfgs[1], tuple(reversed(genes)))]
        for _ in range(2):
            for g in genomes:
                assert _outcome(gn.to_json, g) == _outcome(reference_to_json, g)

    @given(seed=st.integers(0, 2**32), n_shared=st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_to_json_of_random_genomes_sharing_genes(self, seed, n_shared):
        rng = np.random.default_rng(seed)
        parent, other = gn.random_genome(rng=rng), gn.random_genome(rng=rng)
        child = gn.ArchGenome(parent.global_cfg, parent.layers[:n_shared] + other.layers[n_shared:])
        for g in (parent, child, other, parent):
            assert gn.to_json(g) == reference_to_json(g)

    @given(genes=st.lists(_MIXED_GENE, min_size=1, max_size=9),
           field=st.sampled_from(gn._LAYER_KEYS), value=_FIELD)
    @settings(max_examples=200, deadline=None)
    def test_no_cache_travels_through_copies(self, genes, field, value):
        genome = gn.ArchGenome(gn.GlobalConfig(768, 1024, len(genes)), tuple(genes))
        # fill every cache a gene can fill; some genes make these raise
        for fn, *args in ((gn.validate, genome), (hash, genome), (gn.count_params, genome),
                          (gn.to_json, genome), (substrate_cost, genome, _GEMMINI, Workload())):
            _outcome(fn, *args)
        copies = (lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy, copy.copy,
                  dataclasses.replace)
        for copy_of in copies:
            twins = [copy_of(g) for g in genes]
            for twin in twins:
                assert all(getattr(twin, slot, None) is None for slot in _CACHE_SLOTS)
            twin_genome = gn.ArchGenome(genome.global_cfg, tuple(twins))
            assert _outcome(gn.to_json, twin_genome) == _outcome(reference_to_json, genome)
        # a replaced field is written, not the row cached for the original
        changed = gn.ArchGenome(genome.global_cfg,
                                tuple(dataclasses.replace(g, **{field: value}) for g in genes))
        assert _outcome(gn.to_json, changed) == _outcome(reference_to_json, changed)

    def test_pickle_and_copy_round_trip_with_filled_caches(self):
        genome = gn.random_genome(rng=np.random.default_rng(5))
        gn.validate(genome), gn.genome_id(genome), hash(genome), gn.count_params(genome)
        cost = substrate_cost(genome, _GEMMINI, Workload())
        profiles = profile_model(genome, Workload())
        gene = genome.active_layers()[0]
        assert all(getattr(gene, slot) is not None for slot in _CACHE_SLOTS)
        assert not hasattr(gene, "__dict__") and not hasattr(profiles[0], "__dict__")
        for obj in (genome, gene, profiles[0]):
            for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
                assert twin == obj and hash(twin) == hash(obj)
        twin = pickle.loads(pickle.dumps(gene))
        assert twin.__getstate__() == dataclasses.astuple(gene)  # the fields, no cache
        assert all(getattr(twin, slot, None) is None for slot in _CACHE_SLOTS)
        assert substrate_cost(pickle.loads(pickle.dumps(genome)), _GEMMINI, Workload()) == cost
        assert profile_model(pickle.loads(pickle.dumps(genome)), Workload()) == profiles
        with pytest.raises(dataclasses.FrozenInstanceError):
            gene.n_h = 4


# --- exact-int fields ---------------------------------------------------------

# every field of a gene, a global config, a workload and a chip-grid point,
# with the object it is set on
_INT_FIELDS = (
    [("LayerGene", name) for name in gn._LAYER_KEYS]
    + [("GlobalConfig", name) for name in gn._GLOBAL_KEYS]
    + [("Workload", name) for name in ("prefill_tokens", "decode_tokens")]
    + [("grid", axis) for axis in GRID_AXES]
)
_NOT_INTS = [True, 1.0, np.int64(1), math.nan]
_BASES = {"LayerGene": ACTIVE, "GlobalConfig": gn.GlobalConfig(), "Workload": Workload()}


class TestExactIntFields:
    """Every field of a gene, global config and workload, and every chip-grid
    value, is an exact int: a bool, float, numpy int or NaN raises
    ValueError naming the field.  Range rules are left to validate, repair,
    and the [1, 2**53] of Workload and ChipGrid."""

    @pytest.mark.parametrize("owner, field, value", [
        pytest.param(owner, field, value, id=f"{owner}.{field}-{value!r}")
        for owner, field in _INT_FIELDS for value in _NOT_INTS
    ])
    def test_non_int_field_raises(self, owner, field, value):
        with pytest.raises(ValueError, match=field):
            if owner == "grid":
                point = dict(zip(GRID_AXES, (16, 24, 8)), **{field: value})
                ChipGrid([tuple(point.values())])
            else:
                dataclasses.replace(_BASES[owner], **{field: value})

    def test_out_of_range_ints_construct(self):
        g = gn.ArchGenome(gn.GlobalConfig(-3, 0, -1), (gn.LayerGene(-1, 2, 0, -5, 2**70, 0, -1),))
        assert gn.from_json(gn.to_json(g)) == g
        assert {v.field for v in gn.validate(g)} >= {"d_model", "block_size", "mask"}
        assert gn.validate(gn.repair(g)) == []
        with pytest.raises(ValueError, match=">= 1"):
            Workload(0, 1)

    @pytest.mark.parametrize("field", ["prefill_tokens", "decode_tokens"])
    def test_workload_lengths_up_to_2_pow_53(self, field):
        """Every int up to 2**53 is exact as a float, which ctx_mean and
        the cost models compute in: a longer workload raises ValueError
        naming the field."""
        top = dataclasses.replace(Workload(), **{field: 2**53})
        assert float(top.ctx_mean) == top.ctx_mean
        for value in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match=f">= 1 and <= 2\\*\\*53: Workload.{field}"):
                dataclasses.replace(Workload(), **{field: value})


class TestGenomeContainer:
    """A genome holds a GlobalConfig and a tuple of LayerGene: any other
    container or element raises ValueError, so a genome equals and hashes
    like every genome of the same content."""

    def test_list_of_genes_raises(self):
        with pytest.raises(ValueError, match="layers must be a tuple of LayerGene"):
            gn.ArchGenome(gn.GlobalConfig(768, 1024, 2), [ACTIVE, INACTIVE])

    @pytest.mark.parametrize("element", [None, (1, 1, 8, 2, 64, 64, 1024), "gene",
                                         gn.GlobalConfig()])
    def test_non_gene_element_raises(self, element):
        with pytest.raises(ValueError, match="layers must be a tuple of LayerGene"):
            gn.ArchGenome(gn.GlobalConfig(768, 1024, 2), (ACTIVE, element))

    @pytest.mark.parametrize("cfg", [None, (768, 1024, 2), {"d_model": 768}])
    def test_non_global_config_raises(self, cfg):
        with pytest.raises(ValueError, match="global_cfg must be a GlobalConfig"):
            gn.ArchGenome(cfg, (ACTIVE, INACTIVE))

    def test_tuple_of_genes_constructs(self):
        for layers in ((), (ACTIVE,), (ACTIVE, INACTIVE) * 20):
            g = gn.ArchGenome(gn.GlobalConfig(768, 1024, len(layers)), layers)
            assert g.layers is layers
            twin = gn.ArchGenome(gn.GlobalConfig(768, 1024, len(layers)), tuple(list(layers)))
            assert twin == g and hash(twin) == hash(g)
