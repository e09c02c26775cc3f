"""Featurization, encoder shape/invariance properties, MC dropout, checkpoints, oracle."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ihasearch import genome as gn
from ihasearch.surrogate import (
    EncoderConfig,
    EncoderSurrogate,
    FieldNormalizer,
    featurize,
    make_synthetic_corpus,
    raw_tokens,
    synth_oracle,
)
from ihasearch.surrogate import encoder
from ihasearch.surrogate.encoder import _param_layout, active_length, init_params
from ihasearch.surrogate.features import FIELD_ORDER, featurize_batch


def genome_with(n_active, max_layers=40, attn=1, **fields):
    defaults = dict(n_h=8, n_kv=2, d_qk=64, d_v=64, d_mlp=1024)
    defaults.update(fields)
    active = gn.LayerGene(mask=1, attn=attn, **defaults)
    inactive = gn.LayerGene(mask=0, attn=1, **defaults)
    layers = [active] * n_active + [inactive] * (max_layers - n_active)
    return gn.ArchGenome(gn.GlobalConfig(768, 1024, max_layers), tuple(layers))


class TestFeaturize:
    def test_packing_and_mask(self):
        toks, mask = featurize(genome_with(3))
        assert toks.shape == (40, 9) and mask.shape == (40,)
        assert mask.sum() == 3
        assert np.all(mask[:3] == 1) and np.all(mask[3:] == 0)
        assert np.all(toks[3:] == 0)

    def test_field_order(self):
        row = raw_tokens(genome_with(1, n_h=5, n_kv=5, d_qk=96, d_v=128, d_mlp=768))[0]
        expect = {"n_h": 5, "n_kv": 5, "d_qk": 96, "d_v": 128, "d_mlp": 768,
                  "mask": 1, "attn": 1, "d_model": 768, "block_size": 1024}
        assert list(row) == [expect[f] for f in FIELD_ORDER]

    def test_gaps_are_packed(self):
        g1 = genome_with(2, max_layers=4)
        layers = list(g1.layers)
        layers[1], layers[3] = layers[3], layers[1]  # active slots now 0 and 3
        g2 = gn.ArchGenome(g1.global_cfg, tuple(layers))
        t1, m1 = featurize(g1)
        t2, m2 = featurize(g2)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(m1, m2)

    def test_normalizer_unit_interval_and_degenerate_fields(self):
        rng = np.random.default_rng(0)
        genomes = [gn.random_genome(rng=rng) for _ in range(30)]
        norm = FieldNormalizer.fit(genomes)
        toks, masks = featurize_batch(genomes, norm)
        real = toks[masks == 1]
        assert real.min() >= 0.0 and real.max() <= 1.0
        mask_col = FIELD_ORDER.index("mask")
        assert np.all(real[:, mask_col] == 0.0)  # constant field maps to 0

    def test_active_overflow_raises(self):
        with pytest.raises(ValueError):
            featurize(genome_with(3, max_layers=3), max_layers=2)


class TestEncoderShape:
    def test_parameter_count_is_frozen(self):
        assert EncoderSurrogate.init(seed=0).param_count() == 203_713

    def test_parameter_count_by_layout(self):
        # independent shape enumeration of the declared layout
        d, f, L, fields = 64, 256, 40, 9
        lifts = fields * (d + d)
        pos = L * d
        block = 2 * (d + d) + 4 * (d * d + d) + (d * f + f) + (f * d + d)
        head = d + 1
        assert lifts + pos + 4 * block + head == 203_713
        m = EncoderSurrogate.init(seed=1)
        sizes = {k: v.size for k, v in m.params.items()}
        assert sizes["lift_w"] + sizes["lift_b"] == lifts
        assert sizes["pos"] == pos
        assert sum(v for k, v in sizes.items() if k.startswith("b2.")) == block
        assert sizes["head_w"] + sizes["head_b"] == head

    def test_deterministic_init_and_forward(self):
        a = EncoderSurrogate.init(seed=7)
        b = EncoderSurrogate.init(seed=7)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        toks, mask = featurize(genome_with(5))
        np.testing.assert_array_equal(
            a.predict(toks[None], mask[None]), b.predict(toks[None], mask[None])
        )

    def test_padding_content_cannot_leak(self):
        m = EncoderSurrogate.init(seed=3)
        toks, mask = featurize(genome_with(4))
        garbage = toks.copy()
        garbage[4:] = 123.0  # padding rows only
        y0 = m.predict(toks[None], mask[None])
        y1 = m.predict(garbage[None], mask[None])
        np.testing.assert_allclose(y0, y1, atol=1e-12, rtol=0)

    def test_padding_length_cannot_leak(self):
        m = EncoderSurrogate.init(seed=4)
        g = genome_with(4, max_layers=10)
        short = featurize(g, max_layers=10)
        long = featurize(g, max_layers=40)
        y0 = m.predict(short[0][None], short[1][None])
        y1 = m.predict(long[0][None], long[1][None])
        np.testing.assert_allclose(y0, y1, atol=1e-12, rtol=0)

    def test_all_padding_sample_rejected(self):
        m = EncoderSurrogate.init(seed=5)
        with pytest.raises(ValueError):
            m.predict(np.zeros((1, 40, 9)), np.zeros((1, 40)))

    def test_train_mode_needs_rng(self):
        m = EncoderSurrogate.init(seed=6)
        toks, mask = featurize(genome_with(2))
        with pytest.raises(ValueError):
            m.forward(toks[None], mask[None], train=True)


class TestMcDropout:
    def test_reproducible_and_seed_sensitive(self):
        m = EncoderSurrogate.init(seed=0)
        toks, masks = featurize_batch([genome_with(3), genome_with(7)])
        mu1, sd1 = m.mc_predict(toks, masks, n_mc=10, seed=42)
        mu2, sd2 = m.mc_predict(toks, masks, n_mc=10, seed=42)
        np.testing.assert_array_equal(mu1, mu2)
        np.testing.assert_array_equal(sd1, sd2)
        mu3, _ = m.mc_predict(toks, masks, n_mc=10, seed=43)
        assert not np.array_equal(mu1, mu3)
        assert (sd1 > 0).all()  # dropout active at inference

    def test_zero_dropout_collapses_sigma(self):
        cfg = EncoderConfig(p_drop=0.0)
        m = EncoderSurrogate(cfg, EncoderSurrogate.init(seed=1).params)
        toks, masks = featurize_batch([genome_with(3)])
        mu, sd = m.mc_predict(toks, masks, n_mc=10, seed=0)
        np.testing.assert_array_equal(sd, np.zeros_like(sd))
        np.testing.assert_allclose(mu, m.predict(toks, masks), atol=0, rtol=0)

    def test_single_pass_sigma_zero(self):
        m = EncoderSurrogate.init(seed=2)
        toks, masks = featurize_batch([genome_with(3)])
        _, sd = m.mc_predict(toks, masks, n_mc=1, seed=0)
        np.testing.assert_array_equal(sd, np.zeros_like(sd))


ENCODER_CONFIGS = {
    "default": EncoderConfig(),
    "golden_tiny": EncoderConfig(d_enc=16, n_blocks=2, n_heads=2, ffn_mult=2, p_drop=0.2, max_layers=40),
    "three_heads": EncoderConfig(d_enc=24, n_blocks=1, n_heads=3, ffn_mult=3, p_drop=0.35, max_layers=40),
}


def trained_like_model(name: str, seed: int) -> EncoderSurrogate:
    """Initial parameters plus noise, so that layer-norm gains and every
    bias take both signs, as after training."""
    model = EncoderSurrogate.init(ENCODER_CONFIGS[name], seed=seed)
    rng = np.random.default_rng(seed)
    for key, value in model.params.items():
        model.params[key] = value + rng.normal(0.0, 0.3, value.shape)
    return model


def padded_batch(rng, batch: int, longest: int, holes: bool, max_layers: int = 40):
    """Tokens and mask of `batch` rows; one row is `longest` positions long,
    the others 1..longest.  With holes, positions before a row's end may be
    inactive too (its first position always stays active)."""
    lengths = rng.integers(1, longest + 1, size=batch)
    lengths[rng.integers(batch)] = longest
    mask = (np.arange(max_layers)[None, :] < lengths[:, None]).astype(float)
    if holes:
        drop = rng.random(mask.shape) < 0.3
        drop[:, 0] = False
        drop[np.arange(batch), lengths - 1] = False
        mask[drop] = 0.0
    tokens = rng.random((batch, max_layers, 9)) * mask[..., None]
    return tokens, mask


def batch_of_lengths(rng, lengths, max_layers: int = 40):
    """Tokens and mask of one row per entry of `lengths`, each active from
    position 0 up to its length."""
    lengths = np.asarray(lengths)
    mask = (np.arange(max_layers)[None, :] < lengths[:, None]).astype(float)
    tokens = rng.random((len(lengths), max_layers, 9)) * mask[..., None]
    return tokens, mask


def assert_matches_full_length_reference(model, tokens, mask, train: bool, seed: int):
    """Predictions, loss, every gradient, the MC mean and spread and the
    generator's next draw are byte-identical to the full-length reference."""
    labels = np.random.default_rng(seed + 1).normal(2.0, 1.0, tokens.shape[0])
    trim_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    y = model.forward(tokens, mask, train=train, rng=trim_rng)
    y_ref = oracles.reference_encoder_forward(model, tokens, mask, train=train, rng=ref_rng)
    assert y.tobytes() == y_ref.tobytes()
    loss, grads = model.loss_and_grads(tokens, mask, labels, train=train, rng=trim_rng)
    loss_ref, grads_ref = oracles.reference_encoder_loss_and_grads(
        model, tokens, mask, labels, train=train, rng=ref_rng)
    assert loss == loss_ref
    assert sorted(grads) == sorted(grads_ref)
    for name, g in grads.items():
        assert g.tobytes() == grads_ref[name].tobytes(), name
    assert trim_rng.random() == ref_rng.random()
    mc = model.mc_predict(tokens, mask, n_mc=2, seed=seed)
    mc_ref = oracles.reference_encoder_mc_predict(model, tokens, mask, n_mc=2, seed=seed)
    assert mc[0].tobytes() == mc_ref[0].tobytes() and mc[1].tobytes() == mc_ref[1].tobytes()


class TestActiveLengthTrim:
    @pytest.mark.parametrize("last, want", [(1, 24), (5, 24), (24, 24), (25, 32), (27, 32),
                                            (32, 32), (33, 40), (40, 40)])
    def test_active_length(self, last, want):
        mask = np.zeros((3, 40))
        mask[:, 0] = 1.0
        mask[1, last - 1] = 1.0  # a hole before the last active position
        assert active_length(mask).tolist() == [24, want, 24]

    def test_short_batches_are_not_trimmed(self):
        mask = np.zeros((2, 16))
        mask[:, :3] = 1.0
        assert active_length(mask).tolist() == [16, 16]

    # Each case breaks one exactness rule of the trim when that rule is
    # dropped: longest 5 needs the floor of 24, longest 27 the rounding to
    # 8, 32-row training batches the full-length contractions and dropout
    # draws.
    @pytest.mark.parametrize("config", sorted(ENCODER_CONFIGS))
    @pytest.mark.parametrize("batch, longest, train", [(32, 5, True), (32, 27, True), (48, 33, False),
                                                       (1, 12, True), (3, 20, False)])
    def test_matches_reference_on_fixed_cases(self, config, batch, longest, train):
        rng = np.random.default_rng(batch * 100 + longest)
        tokens, mask = padded_batch(rng, batch, longest, holes=False)
        assert_matches_full_length_reference(trained_like_model(config, longest), tokens, mask,
                                             train, seed=longest)

    @given(config=st.sampled_from(sorted(ENCODER_CONFIGS)),
           batch=st.sampled_from([1, 2, 3, 24, 32, 48]),
           longest=st.integers(1, 40), holes=st.booleans(), train=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, config, batch, longest, holes, train, seed):
        rng = np.random.default_rng(seed)
        tokens, mask = padded_batch(rng, batch, longest, holes)
        assert_matches_full_length_reference(trained_like_model(config, seed % 7), tokens, mask,
                                             train, seed)

    # Rows of the 24, 32 and 40 groups interleaved, and batches of more rows
    # than one chunk holds (so a group runs in several chunks).
    @pytest.mark.parametrize("config", sorted(ENCODER_CONFIGS))
    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("case", ["interleaved", "70", "240"])
    def test_groups_and_chunks_match_reference(self, config, train, case):
        rng = np.random.default_rng(len(case))
        if case == "interleaved":
            tokens, mask = batch_of_lengths(rng, [12, 30, 37, 24, 25, 33, 1, 40, 32, 8, 28, 36])
        else:
            tokens, mask = padded_batch(rng, int(case), 40, holes=True)
        lengths = active_length(mask)
        assert len(set(lengths.tolist())) == 3
        assert case == "interleaved" or np.bincount(lengths).max() > encoder._CHUNK_ROWS
        assert_matches_full_length_reference(trained_like_model(config, 3), tokens, mask,
                                             train, seed=int(train))

    @pytest.mark.parametrize("train", [False, True])
    def test_short_rows_run_at_their_own_length(self, monkeypatch, train):
        """In a 32-row batch with one 33-layer row, the other 31 rows run
        at 24 positions (the row of 33 at 40)."""
        lengths = np.random.default_rng(5).integers(1, 25, size=32)
        lengths[7] = 33
        tokens, mask = batch_of_lengths(np.random.default_rng(6), lengths)
        shapes = set()
        real = encoder._gelu_cdf_rows

        def spy(u, rows):
            shapes.add(u.shape[:2])
            return real(u, rows)

        monkeypatch.setattr(encoder, "_gelu_cdf_rows", spy)
        trained_like_model("golden_tiny", 0).forward(tokens, mask, train=train,
                                                     rng=np.random.default_rng(0))
        assert shapes == {(31, 24), (1, 40)}


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        genomes = [gn.random_genome(rng=rng) for _ in range(10)]
        m = EncoderSurrogate.init(seed=9)
        m.normalizer = FieldNormalizer.fit(genomes)
        path = str(tmp_path / "enc.npz")
        m.save(path)
        m2 = EncoderSurrogate.load(path)
        assert m2.param_count() == m.param_count()
        assert m2.config == m.config
        for k in m.params:
            np.testing.assert_array_equal(m.params[k], m2.params[k])
        np.testing.assert_array_equal(m.predict_genomes(genomes), m2.predict_genomes(genomes))

    def test_mc_predict_survives_round_trip(self, tmp_path):
        m = EncoderSurrogate.init(seed=10)
        toks, masks = featurize_batch([genome_with(4)])
        path = str(tmp_path / "enc.npz")
        m.save(path)
        m2 = EncoderSurrogate.load(path)
        a = m.mc_predict(toks, masks, n_mc=5, seed=3)
        b = m2.mc_predict(toks, masks, n_mc=5, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("fields", [
        dict(d_enc=0), dict(n_blocks=-1), dict(n_heads=3), dict(d_enc=8.0), dict(n_blocks=True),
        dict(p_drop=1.0), dict(p_drop=-0.1), dict(p_drop=float("nan")), dict(p_drop="0.2"),
    ])
    def test_config_rejects_out_of_range(self, fields):
        with pytest.raises(ValueError):
            EncoderConfig(**fields)

    def test_layout_is_init_params_layout(self):
        config = EncoderConfig(d_enc=24, n_blocks=2, n_heads=3, ffn_mult=3, max_layers=17)
        params = init_params(config, np.random.default_rng(0))
        assert _param_layout(config) == [(name, p.shape) for name, p in params.items()]

    @pytest.mark.parametrize("case", ["npy", "renamed", "swapped", "max_layers", "int_theta",
                                      "n_fields", "normalizer_flag", "missing_norm_hi"])
    def test_rejects_malformed_file(self, tmp_path, case):
        """Every malformed checkpoint raises ValueError, never another error
        or a model loaded wrong."""
        m = EncoderSurrogate.init(EncoderConfig(d_enc=8, n_blocks=1, n_heads=2, ffn_mult=1))
        m.normalizer = FieldNormalizer(np.zeros(9), np.ones(9))
        path = tmp_path / "enc.npz"
        m.save(str(path))
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(arrays["meta"].tobytes())
        names, shapes = meta["names"], meta["shapes"]
        if case == "npy":
            path = tmp_path / "enc.npy"
            np.save(path, arrays["theta"])
        else:
            if case == "renamed":
                names[0] = "lift"
            elif case == "swapped":  # same sizes, so theta still fits
                names[:2], shapes[:2] = names[1::-1], shapes[1::-1]
            elif case in ("max_layers", "n_fields"):
                meta["config"][case] = 30 if case == "max_layers" else 5
            elif case == "int_theta":
                arrays["theta"] = arrays["theta"].astype(np.int64)
            elif case == "normalizer_flag":
                meta["normalizer"] = 1
            else:
                del arrays["norm_hi"]
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            np.savez(path, **arrays)
        with pytest.raises(ValueError):
            EncoderSurrogate.load(str(path))

    @pytest.mark.parametrize("field", ["n_blocks", "d_enc", "ffn_mult", "max_layers"])
    def test_oversized_config_rejected_before_its_layout(self, tmp_path, monkeypatch, field):
        """A small file whose config claims 10**12-sized parameters is
        rejected without deriving that config's layout."""
        m = EncoderSurrogate.init(EncoderConfig(d_enc=8, n_blocks=1, n_heads=2, ffn_mult=1))
        path = tmp_path / "enc.npz"
        m.save(str(path))
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(arrays["meta"].tobytes())
        meta["config"][field] = 2 * 10**12
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        monkeypatch.setattr("ihasearch.surrogate.encoder._param_layout",
                            lambda config: pytest.fail("layout derived"))
        with pytest.raises(ValueError, match="too large"):
            EncoderSurrogate.load(str(path))

    def test_rejects_foreign_file(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, meta=np.frombuffer(b'{"format":"other"}', dtype=np.uint8), theta=np.zeros(3))
        with pytest.raises(ValueError):
            EncoderSurrogate.load(path)


def oracle_noise(genome, noise_seed=0):
    """The oracle's noise draw, recomputed from its documented seeding."""
    rng = np.random.default_rng(np.random.SeedSequence([gn.genome_hash64(genome), noise_seed]))
    return rng.normal(0.0, 0.02)


class TestSynthOracle:
    def test_formula_without_noise(self):
        g = genome_with(1, n_h=9, n_kv=3, d_qk=64, d_v=96, d_mlp=1536)
        p = 3_833_856  # frozen in test_genome
        expect = 4.2 - 0.30 * math.log(1 + p / 1e6) + 0.5 / math.sqrt(1)
        assert abs(synth_oracle(g) - oracle_noise(g) - expect) < 1e-12
        assert abs(synth_oracle(g, 7) - oracle_noise(g, 7) - expect) < 1e-12

    def test_identity_attention_penalty(self):
        with_attn = genome_with(4)
        without = genome_with(4, attn=0)
        ya = synth_oracle(with_attn) - oracle_noise(with_attn)
        yb = synth_oracle(without) - oracle_noise(without)
        # attn=0 drops params (raises loss) and adds the identity penalty
        assert yb > ya
        p_b = gn.count_params(without, 0)
        expect_b = 4.2 - 0.30 * math.log(1 + p_b / 1e6) + 0.5 / math.sqrt(4) + 0.05
        assert abs(yb - expect_b) < 1e-12

    def test_noise_is_per_genome_deterministic(self):
        g = genome_with(5)
        assert synth_oracle(g, noise_seed=1) == synth_oracle(g, noise_seed=1)
        assert synth_oracle(g, noise_seed=1) != synth_oracle(g, noise_seed=2)
        other = genome_with(6)
        assert synth_oracle(g, noise_seed=1) != synth_oracle(other, noise_seed=1)

    def test_corpus_generation_deterministic(self):
        g1, l1 = make_synthetic_corpus(8, seed=3)
        g2, l2 = make_synthetic_corpus(8, seed=3)
        assert g1 == g2
        np.testing.assert_array_equal(l1, l2)
        assert np.isfinite(l1).all()
