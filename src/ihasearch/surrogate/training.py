"""Corpus handling, Adam, the training loop and replay fine-tuning."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..genome import ArchGenome, from_dict, to_dict
from .encoder import EncoderConfig, EncoderSurrogate, init_params
from .features import FieldNormalizer, featurize_batch


@dataclass
class LabeledCorpus:
    """Architectures with labels plus a fixed architecture-level split."""

    genomes: list[ArchGenome]
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.genomes)


def split_corpus(genomes, labels, test_frac: float = 0.2, seed: int = 0) -> LabeledCorpus:
    """Shuffled train/test split after dropping non-finite labels."""
    labels = np.asarray(labels, dtype=float)
    finite = np.isfinite(labels)
    genomes = [g for g, ok in zip(genomes, finite) if ok]
    labels = labels[finite]
    n = len(genomes)
    if n == 0:
        raise ValueError("corpus has no row with a finite label")
    order = np.random.default_rng(seed).permutation(n)
    n_test = int(round(n * test_frac)) if n >= 2 else 0
    return LabeledCorpus(genomes, labels, train_idx=np.sort(order[n_test:]), test_idx=np.sort(order[:n_test]))


def save_corpus(path: str, genomes, labels) -> None:
    """JSONL, one {"genome": ..., "val_loss": ...} record per architecture."""
    with open(path, "w") as fh:
        for g, y in zip(genomes, labels):
            fh.write(json.dumps({"genome": to_dict(g), "val_loss": float(y)}, sort_keys=True) + "\n")


def parse_corpus_row(line: str) -> tuple[ArchGenome, float]:
    """One corpus record.  The label must be a JSON number (NaN allowed),
    not a string or bool that float() would take.  Raises ValueError for
    any line that is not such a record."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or "genome" not in doc:
        raise ValueError('a corpus row is a JSON object with "genome" and "val_loss"')
    label = doc.get("val_loss")
    if type(label) not in (int, float):
        raise ValueError(f"val_loss must be a JSON number, got {label!r}")
    return from_dict(doc["genome"]), float(label)


def load_corpus(path: str):
    genomes, labels = [], []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                genome, label = parse_corpus_row(line)
                genomes.append(genome)
                labels.append(label)
    return genomes, np.array(labels)


# --- optimizer ---------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """In-place Adam update with decoupled weight decay."""
    b1, b2 = betas
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for k, p in params.items():
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * g * g
        mhat = state.m[k] / bc1
        vhat = state.v[k] / bc2
        p -= lr * mhat / (np.sqrt(vhat) + eps)
        if weight_decay:
            p -= lr * weight_decay * p


# --- training ------------------------------------------------------------------

@dataclass
class TrainHistory:
    """Index 0 is the pre-training evaluation; one entry per epoch after."""

    train_l1: list[float] = field(default_factory=list)
    test_l1: list[float] = field(default_factory=list)
    best_epoch: int = 0


def _eval_l1(model, toks, masks, labels, idx) -> float:
    if len(idx) == 0:
        return math.nan
    pred = model.predict(toks[idx], masks[idx])
    return float(np.abs(pred - labels[idx]).mean())


def train(
    corpus: LabeledCorpus,
    config: EncoderConfig | None = None,
    epochs: int = 200,
    batch_size: int = 32,
    lr: float = 1e-4,
    weight_decay: float = 0.0,
    seed: int = 100,
):
    """Train a fresh encoder on the corpus; returns (surrogate, history).

    The normalizer is fitted on the train split only.  The returned model
    carries the parameters of the best test-L1 epoch (best train-L1 when the
    test split is empty, e.g. single-sample smoke corpora).
    """
    config = config or EncoderConfig()
    rng = np.random.default_rng(seed)
    model = EncoderSurrogate(config, init_params(config, rng))
    model.normalizer = FieldNormalizer.fit([corpus.genomes[i] for i in corpus.train_idx])
    return _fit(model, corpus, config.max_layers, epochs, batch_size, lr, weight_decay, rng)


def _fit(model, corpus: LabeledCorpus, max_layers: int, epochs: int, batch_size: int,
         lr: float, weight_decay: float, rng: np.random.Generator):
    """The loop of ``train`` and ``train_mlp``: shuffled minibatch Adam on
    the train split, keeping the best epoch's parameters.  ``model`` needs a
    fitted normalizer, ``predict(tokens, mask)`` and
    ``loss_and_grads(tokens, mask, labels, train, rng)``."""
    toks, masks = featurize_batch(corpus.genomes, model.normalizer, max_layers)
    labels = corpus.labels

    history = TrainHistory()
    history.train_l1.append(_eval_l1(model, toks, masks, labels, corpus.train_idx))
    history.test_l1.append(_eval_l1(model, toks, masks, labels, corpus.test_idx))
    watch = "test_l1" if len(corpus.test_idx) else "train_l1"
    best = getattr(history, watch)[0]
    best_params = {k: v.copy() for k, v in model.params.items()}

    state = AdamState.for_params(model.params)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(corpus.train_idx)
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            _, grads = model.loss_and_grads(toks[idx], masks[idx], labels[idx], train=True, rng=rng)
            adam_step(model.params, grads, state, lr, weight_decay=weight_decay)
        history.train_l1.append(_eval_l1(model, toks, masks, labels, corpus.train_idx))
        history.test_l1.append(_eval_l1(model, toks, masks, labels, corpus.test_idx))
        score = getattr(history, watch)[-1]
        if score < best:
            best = score
            history.best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}

    model.params = best_params
    return model, history


def replay_counts(batch_size: int, replay_ratio: float) -> tuple[int, int]:
    """(old corpus rows, new buffer rows) per fine-tuning batch.

    Keeps roughly replay_ratio old rows per new row: new = floor(B/(r+1)),
    floored at 1.
    """
    if batch_size < 2:
        raise ValueError("fine-tuning batches need at least 2 rows")
    n_new = max(1, int(batch_size // (replay_ratio + 1.0)))
    return batch_size - n_new, n_new


def fine_tune(
    baseline: EncoderSurrogate,
    buffer_genomes,
    buffer_labels,
    corpus: LabeledCorpus,
    replay_ratio: float = 5.0,
    epochs: int = 10,
    batch_size: int = 32,
    lr: float = 1e-4,
    seed: int = 0,
) -> EncoderSurrogate:
    """Refresh a copy of the frozen baseline on real-trained buffer rows.

    Every batch interleaves freshly drawn corpus rows with buffer rows at the
    replay ratio; the baseline object itself is never touched.  Non-finite
    buffer labels are dropped first.
    """
    buffer_labels = np.asarray(buffer_labels, dtype=float)
    ok = np.isfinite(buffer_labels)
    buffer_genomes = [g for g, keep in zip(buffer_genomes, ok) if keep]
    buffer_labels = buffer_labels[ok]
    if len(buffer_genomes) == 0:
        raise ValueError("fine-tune buffer is empty after dropping non-finite labels")
    if baseline.normalizer is None:
        raise ValueError("baseline has no fitted normalizer")

    model = baseline.copy()
    cfg = model.config
    btoks, bmasks = featurize_batch(buffer_genomes, model.normalizer, cfg.max_layers)
    ctoks, cmasks = featurize_batch(corpus.genomes, model.normalizer, cfg.max_layers)
    clabels = corpus.labels
    train_pool = corpus.train_idx if len(corpus.train_idx) else np.arange(len(corpus.genomes))

    n_old, n_new = replay_counts(batch_size, replay_ratio)
    rng = np.random.default_rng(seed)
    state = AdamState.for_params(model.params)
    for _ in range(epochs):
        order = rng.permutation(len(buffer_genomes))
        steps = math.ceil(len(order) / n_new)
        for s in range(steps):
            new_idx = np.array([order[(s * n_new + j) % len(order)] for j in range(n_new)])
            old_idx = rng.choice(train_pool, size=n_old, replace=True)
            toks = np.concatenate([ctoks[old_idx], btoks[new_idx]])
            masks = np.concatenate([cmasks[old_idx], bmasks[new_idx]])
            ys = np.concatenate([clabels[old_idx], buffer_labels[new_idx]])
            _, grads = model.loss_and_grads(toks, masks, ys, train=True, rng=rng)
            adam_step(model.params, grads, state, lr)
    return model
