"""Flat MLP baseline over the concatenated padded token matrix.

It runs ``train``'s own loop (``training._fit``): same featurization,
train-split normalizer, L1 objective, Adam recipe and best-epoch rule as the
encoder.  The only difference is the architecture (two GELU hidden layers on
the flattened 360-dim input), so ranking comparisons isolate the encoder's
structural prior.
"""
from __future__ import annotations

import numpy as np

from .encoder import _gelu, _gelu_grad
from .features import FieldNormalizer, featurize_batch
from .training import LabeledCorpus, _fit


class MlpBaseline:
    """Takes the encoder's batch signatures; the padding mask and the
    dropout arguments are ignored, since the flattened input keeps padding
    rows as zeros and the MLP has no dropout."""

    def __init__(self, params: dict[str, np.ndarray], normalizer: FieldNormalizer, max_layers: int, n_fields: int = 9):
        self.params = params
        self.normalizer = normalizer
        self.max_layers = max_layers
        self.n_fields = n_fields

    @classmethod
    def init(cls, normalizer, max_layers: int, hidden: int = 128, n_fields: int = 9, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        d_in = max_layers * n_fields
        params = {
            "w0": rng.normal(0.0, d_in ** -0.5, (d_in, hidden)),
            "b0": np.zeros(hidden),
            "w1": rng.normal(0.0, hidden ** -0.5, (hidden, hidden)),
            "b1": np.zeros(hidden),
            "w2": rng.normal(0.0, hidden ** -0.5, (hidden, 1)),
            "b2": np.zeros(1),
        }
        return cls(params, normalizer, max_layers, n_fields)

    def _forward(self, tokens: np.ndarray):
        p = self.params
        x = tokens.reshape(tokens.shape[0], -1)
        u0 = x @ p["w0"] + p["b0"]
        a0 = _gelu(u0)
        u1 = a0 @ p["w1"] + p["b1"]
        a1 = _gelu(u1)
        y = (a1 @ p["w2"]).ravel() + p["b2"][0]
        return y, (x, u0, a0, u1, a1)

    def predict(self, tokens: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self._forward(tokens)[0]

    def loss_and_grads(self, tokens: np.ndarray, mask: np.ndarray, labels: np.ndarray,
                       train: bool = False, rng: np.random.Generator | None = None):
        p = self.params
        y, (x, u0, a0, u1, a1) = self._forward(tokens)
        resid = y - labels
        loss = float(np.abs(resid).mean())
        dy = np.sign(resid) / resid.shape[0]
        grads = {}
        grads["w2"] = a1.T @ dy[:, None]
        grads["b2"] = np.array([dy.sum()])
        da1 = dy[:, None] @ p["w2"].T
        du1 = da1 * _gelu_grad(u1)
        grads["w1"] = a0.T @ du1
        grads["b1"] = du1.sum(axis=0)
        da0 = du1 @ p["w1"].T
        du0 = da0 * _gelu_grad(u0)
        grads["w0"] = x.T @ du0
        grads["b0"] = du0.sum(axis=0)
        return loss, grads

    def predict_genomes(self, genomes) -> np.ndarray:
        toks, masks = featurize_batch(genomes, self.normalizer, self.max_layers)
        return self.predict(toks, masks)


def train_mlp(
    corpus: LabeledCorpus,
    epochs: int = 200,
    batch_size: int = 32,
    lr: float = 1e-4,
    seed: int = 100,
    hidden: int = 128,
    max_layers: int = 40,
):
    """``train``'s loop on an MLP; returns (model, history)."""
    rng = np.random.default_rng(seed)
    normalizer = FieldNormalizer.fit([corpus.genomes[i] for i in corpus.train_idx])
    model = MlpBaseline.init(normalizer, max_layers, hidden=hidden, rng=rng)
    return _fit(model, corpus, max_layers, epochs, batch_size, lr, 0.0, rng)
