"""Golden artifact hashes for small fixed search runs.

Each case runs ``ihasearch search`` through ``main()`` and pins the sha256
of the three deterministic artifacts.  A refactor that means to keep
behaviour must leave every hash unchanged; a change that means to move
numbers updates the table below and says so in CHANGES.md.

The oracle cases cover NSGA variation in the IHA and grouped-query spaces
and random variation; the ring case covers the multi-chip backend; the
surrogate cases cover the encoder evaluator with refinement events, using an
encoder trained in the test and passed as a checkpoint plus corpus: a tiny
one, and one at the default ``EncoderConfig()`` size, whose checkpoint bytes
are pinned too.

The MLP baseline's training is pinned as well: one sha256 over its fitted
parameters and its loss history, for three small corpora.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from ihasearch.cli import main
from ihasearch.surrogate import (
    EncoderConfig,
    make_synthetic_corpus,
    save_corpus,
    split_corpus,
    train,
    train_mlp,
)

ARTIFACTS = ("archive.csv", "generations.csv", "events.jsonl")

_ORACLE = {
    "population_size": 12,
    "offspring_size": 16,
    "generations": 6,
    "refine_every_generations": 0,
    "evaluator": "oracle",
    "backend": "analytic:gemmini",
    "seed": 5,
}

CASES = {
    "nsga_iha": dict(_ORACLE, variation="nsga", space="iha"),
    "random_iha": dict(_ORACLE, variation="random", space="iha"),
    "nsga_gqa": dict(_ORACLE, variation="nsga", space="gqa"),
    "ring_oracle": {
        "population_size": 8,
        "offspring_size": 6,
        "generations": 3,
        "refine_every_generations": 0,
        "evaluator": "oracle",
        "backend": "ring",
        "val_loss_max": 3.5,
        "prefill_tokens": 512,
        "decode_tokens": 256,
        "seed": 2,
    },
}

SURROGATE_REFINE = {
    "population_size": 6,
    "offspring_size": 6,
    "generations": 3,
    "refine_every_generations": 1,
    "refine_batch_size": 2,
    "mc_dropout_passes": 2,
    "replay_ratio": 4.0,
    "evaluator": "surrogate",
    "backend": "analytic:gemmini",
    "seed": 4,
}

GOLDEN = {
    "nsga_gqa": {
        "archive.csv": "e3aa22f7947435705a38f938366f084d8bb4b3e43f9b3d0f690e34069e9f6dde",
        "generations.csv": "e88235feb84cf0b3bc45f21e7cca09b117dc6e91437640f23340f0de37c659c3",
        "events.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "nsga_iha": {
        "archive.csv": "bed780947d67c7851de2daa380accc669d19fe903e50fa8ce8f564e3915e85c1",
        "generations.csv": "33016f8c96a66a3e991fe61cd13396547238e8c6190cf640add9838f3dda480a",
        "events.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "random_iha": {
        "archive.csv": "b7f3a1782958c43f0120f93fba72e540e67a540b2ae3619881ef84f9637d4621",
        "generations.csv": "37f1a15dd68a73054f15cb7284d923b13174cf532bcb329249cfce8638b408f2",
        "events.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "surrogate_refine": {
        "archive.csv": "9814e30482703fa3476383db3952aab3a93ebeb4428ae31076330ebd885ec9de",
        "generations.csv": "26fab98ce58a34b06b02474d01c642a66b64d124d704c1d671ba99a74953f493",
        "events.jsonl": "e1f74a5fc30e09a506707564ddbb05733ae03da1e2a2503bf933dfb2bdf1eb71",
    },
    "surrogate_default": {
        "encoder.npz": "5e226fb484ba4ec02956471c5ec04e418877658c59c65d7ba68c3eabe2d70f95",
        "archive.csv": "514bb892cddda6d444602bc2b4651b99717f1399bdc204901cd72d5a0714479c",
        "generations.csv": "9c46ec8a775aa6118cd956c8558309d86c0ac473e7db339ef46f2939ebd4d9ac",
        "events.jsonl": "60d9055b2daf8ac3d6d0ba60a2e13b883af7505795d7d74c1748d122a873147b",
    },
    "ring_oracle": {
        "archive.csv": "12aa4f416651cac8bc82335574e4fc3418079c3ddad2d35a654397cca8ab5d11",
        "generations.csv": "c88df68e396ac313c09171d956989dfc67178f9e853fd5d6d6cbf079241d1635",
        "events.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def _artifact_hashes(tmp_path, cfg: dict, *extra: str) -> dict[str, str]:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["search", "--config", str(path), "--out", str(out), *extra]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_hashes_pinned(case, tmp_path, capsys):
    assert _artifact_hashes(tmp_path, CASES[case]) == GOLDEN[case]


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A 3-epoch, 2-block encoder on 24 synthetic rows, saved with its corpus."""
    root = tmp_path_factory.mktemp("tiny_encoder")
    genomes, labels = make_synthetic_corpus(24, seed=3)
    corpus = split_corpus(genomes, labels, test_frac=0.25, seed=0)
    cfg = EncoderConfig(d_enc=16, n_blocks=2, n_heads=2, ffn_mult=2, p_drop=0.2, max_layers=40)
    model, _ = train(corpus, config=cfg, epochs=3, seed=100)
    model.save(str(root / "encoder.npz"))
    save_corpus(str(root / "corpus.jsonl"), genomes, labels)
    return root


def test_surrogate_refinement_hashes_pinned(tiny_checkpoint, tmp_path, capsys):
    hashes = _artifact_hashes(
        tmp_path, SURROGATE_REFINE,
        "--surrogate", str(tiny_checkpoint / "encoder.npz"),
        "--corpus", str(tiny_checkpoint / "corpus.jsonl"),
    )
    events = (tmp_path / "run" / "events.jsonl").read_text().splitlines()
    assert len(events) >= 2
    assert hashes == GOLDEN["surrogate_refine"]


@pytest.fixture(scope="module")
def default_checkpoint(tmp_path_factory):
    """One epoch of the default-size encoder on 40 synthetic rows (one
    32-row training batch)."""
    root = tmp_path_factory.mktemp("default_encoder")
    genomes, labels = make_synthetic_corpus(40, seed=7)
    corpus = split_corpus(genomes, labels, test_frac=0.2, seed=0)
    model, _ = train(corpus, config=EncoderConfig(), epochs=1, seed=101)
    model.save(str(root / "encoder.npz"))
    save_corpus(str(root / "corpus.jsonl"), genomes, labels)
    return root


def test_default_encoder_refinement_hashes_pinned(default_checkpoint, tmp_path, capsys):
    checkpoint = default_checkpoint / "encoder.npz"
    hashes = {"encoder.npz": hashlib.sha256(checkpoint.read_bytes()).hexdigest()}
    hashes.update(_artifact_hashes(
        tmp_path, SURROGATE_REFINE,
        "--surrogate", str(checkpoint),
        "--corpus", str(default_checkpoint / "corpus.jsonl"),
    ))
    events = (tmp_path / "run" / "events.jsonl").read_text().splitlines()
    assert len(events) == 2
    assert hashes == GOLDEN["surrogate_default"]


# (rows, test_frac, train_mlp keyword arguments).  "split" keeps an earlier
# epoch than its last; "empty_test" selects on the train split.
MLP_CASES = {
    "split": (30, 0.25, dict(epochs=6, lr=3e-2, seed=3)),
    "empty_test": (20, 0.0, dict(epochs=3, lr=1e-3, seed=4)),
    "small_batches": (26, 0.2, dict(epochs=3, batch_size=8, hidden=16, seed=5)),
}

MLP_GOLDEN = {
    "split": "1ddaf6c31ce15869e89c2c4dfed9a457b9bf8dfd7516a7aa0e53c9ea0cdd8edb",
    "empty_test": "f0fffbcec4e298cb2eaea1488f06a9c6d999a751ac37699a777c889bcfa39c29",
    "small_batches": "c671a58adbde1abc1794db349651c37887af5d3fea7426509b3e956361d4ae63",
}


@pytest.mark.parametrize("case", sorted(MLP_CASES))
def test_mlp_baseline_hashes_pinned(case):
    rows, test_frac, kwargs = MLP_CASES[case]
    genomes, labels = make_synthetic_corpus(rows, seed=11)
    model, history = train_mlp(split_corpus(genomes, labels, test_frac=test_frac, seed=0), **kwargs)
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(model.params[name].tobytes())
    digest.update(json.dumps([history.train_l1, history.test_l1, history.best_epoch]).encode())
    assert digest.hexdigest() == MLP_GOLDEN[case]
