"""Genome validation, repair, counting and serialization."""
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihasearch import genome as gn
from oracles import (
    brute_repair,
    reference_count_params,
    reference_random_genome,
    reference_to_json,
    reference_validate,
)


def make_genome(layers, d_model=768, block_size=1024, max_layers=None):
    max_layers = max_layers if max_layers is not None else len(layers)
    return gn.ArchGenome(gn.GlobalConfig(d_model, block_size, max_layers), tuple(layers))


ACTIVE = gn.LayerGene(mask=1, attn=1, n_h=8, n_kv=2, d_qk=64, d_v=64, d_mlp=1024)
INACTIVE = gn.LayerGene(mask=0, attn=1, n_h=1, n_kv=1, d_qk=64, d_v=64, d_mlp=512)


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
        assert g.n_active() >= 1
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
# off-grid, negative, bool and numpy-int values (full projection).  The
# valid-gene strategies put whole genes on the grids of each space.
_FIELD = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 6, 8, 12, 16, 64, 96, 512, 768, 1024, 4096]),
    st.integers(-600, 5000),
    st.booleans(),
    st.integers(-4, 600).map(np.int64),
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

    def test_valid_gene_is_returned_as_is(self):
        g = gn.repair(make_genome([ACTIVE, INACTIVE]))
        assert g.layers[0] is ACTIVE and g.layers[1] is INACTIVE

    @pytest.mark.parametrize("field", ["mask", "attn", "n_kv"])
    def test_bool_fields_become_ints(self, field):
        fixed = gn.repair(make_genome([dataclasses.replace(ACTIVE, **{field: True})]))
        assert type(getattr(fixed.layers[0], field)) is int
        assert f'"{field}":1' in gn.to_json(fixed)

    def test_numpy_int_fields_become_ints(self):
        gene = gn.LayerGene(*map(np.int64, dataclasses.astuple(ACTIVE)))
        fixed = gn.repair(make_genome([gene]))
        assert all(type(v) is int for v in dataclasses.astuple(fixed.layers[0]))
        assert gn.to_json(fixed) == gn.to_json(make_genome([ACTIVE]))

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
    except Exception as exc:  # the references raise what json.dumps raises
        return type(exc)


# every kind of value a gene or global field can hold: exact ints on and off
# the grids, bools, numpy ints and floats
_ANY_VALUE = st.one_of(_FIELD, st.sampled_from([64.0, 8.5, float("nan")]))
_GATE = st.sampled_from([0, 1, -1, 2, True, False, np.int64(1)])
_GLOBAL = st.builds(
    gn.GlobalConfig,
    d_model=st.one_of(st.sampled_from([768, 960, 1]), st.integers(-3, 4096), st.just(True),
                      st.just(np.int64(768))),
    block_size=st.one_of(st.sampled_from([1024, 2048]), st.integers(-3, 8192)),
    max_layers=st.integers(-1, 9),
)
_MIXED_GENE = st.one_of(
    _VALID_GENE, _ODD_GRID_GENE, _ANY_GENE,
    st.builds(gn.LayerGene, _GATE, _GATE, *([_ANY_VALUE] * 5)),
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

    def test_to_json_falls_back_for_bool_and_numpy_fields(self):
        g = make_genome([dataclasses.replace(ACTIVE, attn=True)])
        assert gn.to_json(g) == reference_to_json(g)
        assert '"attn":true' in gn.to_json(g)
        g = gn.ArchGenome(gn.GlobalConfig(d_model=np.int64(768), max_layers=1), (ACTIVE,))
        with pytest.raises(TypeError):
            gn.to_json(g)

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
        # repr, so that a NaN count (from a NaN field) compares equal to itself
        for v in (vocab, 0):  # the second call reads the cached body count
            assert repr(_outcome(gn.count_params, genome, v)) == repr(
                _outcome(reference_count_params, genome, v))
