"""Training loop, fine-tuning with replay, corpus IO, and the MLP baseline.

The two convergence tests (loss halving, encoder-vs-MLP ranking) retrain the
real encoder and dominate the suite's runtime; everything else runs on a
reduced configuration.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ihasearch.metrics import kendall_tau
from ihasearch.surrogate import (
    EncoderConfig,
    fine_tune,
    make_synthetic_corpus,
    parse_corpus_row,
    replay_counts,
    save_corpus,
    split_corpus,
    train,
    train_mlp,
)

SMALL = EncoderConfig(d_enc=16, n_blocks=2, n_heads=2, ffn_mult=2, p_drop=0.2)


def small_corpus(n=24, seed=0):
    genomes, labels = make_synthetic_corpus(n, seed=seed)
    return split_corpus(genomes, labels, test_frac=0.25, seed=seed)


class TestSplitAndCorpusIO:
    def test_split_fractions_and_determinism(self):
        genomes, labels = make_synthetic_corpus(20, seed=1)
        a = split_corpus(genomes, labels, test_frac=0.2, seed=3)
        b = split_corpus(genomes, labels, test_frac=0.2, seed=3)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)
        assert len(a.test_idx) == 4 and len(a.train_idx) == 16
        assert not set(a.train_idx) & set(a.test_idx)

    def test_split_drops_nonfinite_labels(self):
        genomes, labels = make_synthetic_corpus(10, seed=2)
        labels = labels.copy()
        labels[3] = np.nan
        labels[7] = np.inf
        c = split_corpus(genomes, labels, test_frac=0.2, seed=0)
        assert len(c) == 8
        assert np.isfinite(c.labels).all()

    def test_split_empty_after_drop_raises(self):
        genomes, labels = make_synthetic_corpus(2, seed=3)
        with pytest.raises(ValueError):
            split_corpus(genomes, [np.nan, np.inf], test_frac=0.2, seed=0)

    def test_jsonl_round_trip(self, tmp_path):
        genomes, labels = make_synthetic_corpus(6, seed=4)
        path = str(tmp_path / "corpus.jsonl")
        save_corpus(path, genomes, labels)
        with open(path) as fh:
            rows = [parse_corpus_row(line) for line in fh]
        assert [g for g, _ in rows] == list(genomes)
        np.testing.assert_array_equal([y for _, y in rows], labels)


class TestTrainLoop:
    def test_empty_train_split_raises(self):
        genomes, labels = make_synthetic_corpus(1, seed=5)
        corpus = split_corpus(genomes, labels, test_frac=0.2, seed=0)
        starved = type(corpus)(corpus.genomes, corpus.labels,
                               np.array([], dtype=int), corpus.test_idx)
        with pytest.raises(ValueError):
            train(starved, SMALL, epochs=1)

    def test_zero_lr_keeps_parameters(self):
        corpus = small_corpus()
        m, _ = train(corpus, SMALL, epochs=3, lr=0.0, seed=7)
        fresh, _ = train(corpus, SMALL, epochs=1, lr=0.0, seed=7)
        for k in m.params:
            np.testing.assert_array_equal(m.params[k], fresh.params[k])

    def test_deterministic_given_seed(self):
        corpus = small_corpus()
        m1, h1 = train(corpus, SMALL, epochs=4, seed=11)
        m2, h2 = train(corpus, SMALL, epochs=4, seed=11)
        assert h1.train_l1 == h2.train_l1
        assert h1.test_l1 == h2.test_l1
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k], m2.params[k])

    def test_history_shape_and_best_epoch(self):
        corpus = small_corpus()
        m, hist = train(corpus, SMALL, epochs=5, seed=13)
        # index 0 is the pre-training evaluation, one entry per epoch after
        assert len(hist.train_l1) == 6 and len(hist.test_l1) == 6
        assert hist.best_epoch == int(np.argmin(hist.test_l1))

    def test_returns_best_test_checkpoint(self):
        corpus = small_corpus()
        m, hist = train(corpus, SMALL, epochs=5, lr=1e-3, seed=17)
        test_g = [corpus.genomes[i] for i in corpus.test_idx]
        test_y = np.asarray(corpus.labels)[corpus.test_idx]
        got = float(np.mean(np.abs(m.predict_genomes(test_g) - test_y)))
        assert got == pytest.approx(min(hist.test_l1), abs=1e-9)

    @pytest.mark.slow
    def test_loss_halves_on_200_samples(self):
        # full-size pipeline at the standard recipe; the slowest test here
        genomes, labels = make_synthetic_corpus(200, seed=7)
        corpus = split_corpus(genomes, labels, test_frac=0.2, seed=0)
        _, hist = train(corpus, epochs=200, seed=100)
        assert hist.train_l1[-1] < 0.5 * hist.train_l1[0]

    def test_memorizes_single_sample(self):
        genomes, labels = make_synthetic_corpus(1, seed=5)
        corpus = split_corpus(genomes, labels, test_frac=0.2, seed=0)
        _, hist = train(corpus, epochs=500, seed=100)
        assert min(hist.train_l1) < 0.01


class TestReplayAndFineTune:
    def test_replay_counts_reference_case(self):
        assert replay_counts(32, 5.0) == (27, 5)

    def test_replay_counts_edges(self):
        assert replay_counts(2, 5.0) == (1, 1)   # floor of one new row
        assert replay_counts(6, 1.0) == (3, 3)
        assert replay_counts(32, 0.0) == (0, 32) == (32 - 32, 32)
        with pytest.raises(ValueError):
            replay_counts(1, 5.0)

    def test_baseline_untouched_and_output_differs(self):
        corpus = small_corpus()
        base, _ = train(corpus, SMALL, epochs=3, seed=19)
        before = {k: v.copy() for k, v in base.params.items()}
        buf_g, buf_y = make_synthetic_corpus(6, seed=23)
        tuned = fine_tune(base, buf_g, buf_y, corpus, seed=1)
        for k in before:
            np.testing.assert_array_equal(base.params[k], before[k])
        assert tuned is not base
        assert any(
            not np.array_equal(tuned.params[k], base.params[k]) for k in before
        )

    def test_fine_tune_improves_buffer_fit(self):
        corpus = small_corpus()
        base, _ = train(corpus, SMALL, epochs=3, seed=29)
        buf_g, buf_y = make_synthetic_corpus(8, seed=31)
        tuned = fine_tune(base, buf_g, buf_y, corpus, seed=2)
        before = np.mean(np.abs(base.predict_genomes(buf_g) - buf_y))
        after = np.mean(np.abs(tuned.predict_genomes(buf_g) - buf_y))
        assert after < before

    def test_fine_tune_drops_nan_rows_and_rejects_empty(self):
        corpus = small_corpus()
        base, _ = train(corpus, SMALL, epochs=2, seed=37)
        buf_g, buf_y = make_synthetic_corpus(4, seed=41)
        labels = buf_y.copy()
        labels[0] = np.nan
        tuned = fine_tune(base, buf_g, labels, corpus, seed=3)
        assert tuned is not base
        with pytest.raises(ValueError):
            fine_tune(base, buf_g, [np.nan] * 4, corpus, seed=3)

    def test_fine_tune_restarts_from_baseline_not_previous_event(self):
        corpus = small_corpus()
        base, _ = train(corpus, SMALL, epochs=3, seed=43)
        buf_g, buf_y = make_synthetic_corpus(5, seed=47)
        once = fine_tune(base, buf_g, buf_y, corpus, seed=4)
        again = fine_tune(base, buf_g, buf_y, corpus, seed=4)
        for k in once.params:
            np.testing.assert_array_equal(once.params[k], again.params[k])


class TestMlpBaseline:
    def test_trains_and_is_deterministic(self):
        corpus = small_corpus()
        m1, h1 = train_mlp(corpus, epochs=4, seed=3)
        m2, h2 = train_mlp(corpus, epochs=4, seed=3)
        assert h1.train_l1 == h2.train_l1
        preds = m1.predict_genomes(list(corpus.genomes))
        np.testing.assert_array_equal(preds, m2.predict_genomes(list(corpus.genomes)))
        assert np.isfinite(preds).all()

    def test_param_count_positive(self):
        corpus = small_corpus()
        m, _ = train_mlp(corpus, epochs=1, seed=5)
        assert sum(v.size for v in m.params.values()) > 0

    @pytest.mark.slow
    def test_encoder_outranks_mlp_on_heldout(self):
        # directional fidelity comparison, median over 5 seeds
        genomes, labels = make_synthetic_corpus(120, seed=11)
        taus_enc, taus_mlp = [], []
        for seed in range(5):
            corpus = split_corpus(genomes, labels, test_frac=0.25, seed=seed)
            test_g = [corpus.genomes[i] for i in corpus.test_idx]
            test_y = np.asarray(corpus.labels)[corpus.test_idx]
            enc, _ = train(corpus, epochs=40, lr=1e-3, seed=seed)
            mlp, _ = train_mlp(corpus, epochs=40, lr=1e-3, seed=seed)
            taus_enc.append(kendall_tau(enc.predict_genomes(test_g), test_y))
            taus_mlp.append(kendall_tau(mlp.predict_genomes(test_g), test_y))
        assert np.median(taus_enc) > np.median(taus_mlp)


# Trains in a fresh process, so that OPENBLAS_NUM_THREADS is read at import,
# and prints the sha256 of the parameters.
_TRAIN_AND_HASH = """
import hashlib, sys
from ihasearch.surrogate import EncoderConfig, make_synthetic_corpus, split_corpus, train
rows, d_enc, n_blocks, n_heads, ffn_mult = map(int, sys.argv[1:])
genomes, labels = make_synthetic_corpus(rows, seed=7)
corpus = split_corpus(genomes, labels, test_frac=0.2, seed=0)
config = EncoderConfig(d_enc=d_enc, n_blocks=n_blocks, n_heads=n_heads, ffn_mult=ffn_mult)
model, _ = train(corpus, config=config, epochs=2, seed=100)
print(hashlib.sha256(b"".join(model.params[k].tobytes() for k in sorted(model.params))).hexdigest())
"""
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_DEFAULT = (64, 4, 4, 4)
_TINY = (16, 2, 2, 2)


def _param_hash(threads: int, rows: int, size: tuple[int, ...]) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _TRAIN_AND_HASH, str(rows), *map(str, size)],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestBlasThreadDeterminism:
    # 23 rows give 18 training rows (one 18-row batch); 40 rows give 32 (one
    # full batch)
    @pytest.mark.parametrize("rows, size", [(23, _TINY), (40, _DEFAULT)], ids=["tiny-18", "default-32"])
    def test_two_epoch_train_same_at_one_and_two_threads(self, rows, size):
        assert _param_hash(1, rows, size) == _param_hash(2, rows, size)

    @pytest.mark.xfail(reason="at the default size, the weight-gradient dgemms of an 18-row "
                              "batch (K = 720) round differently on 2 OpenBLAS threads")
    def test_two_epoch_train_default_size_18_row_batch(self):
        assert _param_hash(1, 23, _DEFAULT) == _param_hash(2, 23, _DEFAULT)
