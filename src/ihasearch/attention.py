"""Numeric reference kernel for per-layer decoupled attention.

Each query head h (1-indexed) reads the KV group ``group_map(h, n_h, n_kv)``;
head dims d_qk and d_v are free, so the kernel covers MHA (n_kv = n_h with
tied dims), GQA and every decoupled shape in between.  float64 throughout;
this is a correctness reference, not a fast path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genome import LayerGene


@dataclass(frozen=True)
class AttnWeights:
    """Projection matrices with head/group-major column blocks.

    wq: (d_model, n_h*d_qk), wk: (d_model, n_kv*d_qk),
    wv: (d_model, n_kv*d_v), wo: (n_h*d_v, d_model).
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


def random_weights(gene: LayerGene, d_model: int, rng: np.random.Generator) -> AttnWeights:
    """Gaussian init scaled by 1/sqrt(d_model), for tests and demos."""
    s = 1.0 / np.sqrt(d_model)
    return AttnWeights(
        wq=rng.normal(0.0, s, (d_model, gene.n_h * gene.d_qk)),
        wk=rng.normal(0.0, s, (d_model, gene.n_kv * gene.d_qk)),
        wv=rng.normal(0.0, s, (d_model, gene.n_kv * gene.d_v)),
        wo=rng.normal(0.0, s, (gene.n_h * gene.d_v, d_model)),
    )


def replicate_kv_groups(gene: LayerGene, w: AttnWeights) -> AttnWeights:
    """Weights for the n_kv = n_h form of ``gene``: each KV group's
    projection columns tiled r = n_h / n_kv times, so that the replicated
    gene computes the grouped one head for head."""
    r = gene.n_h // gene.n_kv
    wk = np.concatenate(
        [w.wk[:, i * gene.d_qk:(i + 1) * gene.d_qk] for i in range(gene.n_kv) for _ in range(r)],
        axis=1,
    )
    wv = np.concatenate(
        [w.wv[:, i * gene.d_v:(i + 1) * gene.d_v] for i in range(gene.n_kv) for _ in range(r)],
        axis=1,
    )
    return AttnWeights(w.wq, wk, wv, w.wo)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction; -inf entries become exact zeros."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_shapes(x: np.ndarray, gene: LayerGene, w: AttnWeights) -> int:
    if x.ndim != 2:
        raise ValueError(f"x must be (T, d_model), got shape {x.shape}")
    d_model = x.shape[1]
    expect = {
        "wq": (d_model, gene.n_h * gene.d_qk),
        "wk": (d_model, gene.n_kv * gene.d_qk),
        "wv": (d_model, gene.n_kv * gene.d_v),
        "wo": (gene.n_h * gene.d_v, d_model),
    }
    for name, shape in expect.items():
        got = getattr(w, name).shape
        if got != shape:
            raise ValueError(f"{name} shape {got}, expected {shape}")
    if gene.n_h < 1 or gene.n_kv < 1 or gene.n_h % gene.n_kv != 0:
        raise ValueError(f"n_kv={gene.n_kv} must divide n_h={gene.n_h}")
    return d_model


def iha_forward(
    x: np.ndarray,
    gene: LayerGene,
    w: AttnWeights,
    causal: bool = True,
    return_probs: bool = False,
):
    """Attention sublayer output for one layer gene.

    attn=0 bypasses the sublayer (returns a copy of x).  With
    return_probs=True also returns the per-head probability stack
    (n_h, T, T) for stochasticity checks.
    """
    if gene.attn == 0:
        out = x.copy()
        if return_probs:
            return out, np.zeros((0, x.shape[0], x.shape[0]))
        return out
    _check_shapes(x, gene, w)
    t = x.shape[0]
    r = gene.n_h // gene.n_kv
    heads = []
    probs = []
    mask = None
    if causal:
        mask = np.triu(np.full((t, t), -np.inf), k=1)
    for h in range(gene.n_h):
        g = h // r  # 0-indexed group, matches group_map(h+1, ...) - 1
        q = x @ w.wq[:, h * gene.d_qk : (h + 1) * gene.d_qk]
        k = x @ w.wk[:, g * gene.d_qk : (g + 1) * gene.d_qk]
        v = x @ w.wv[:, g * gene.d_v : (g + 1) * gene.d_v]
        scores = q @ k.T / np.sqrt(gene.d_qk)
        if mask is not None:
            scores = scores + mask
        p = softmax_rows(scores)
        probs.append(p)
        heads.append(p @ v)
    out = np.concatenate(heads, axis=1) @ w.wo
    if return_probs:
        return out, np.stack(probs)
    return out


def attention_rows_stochastic(probs: np.ndarray, atol: float = 1e-9) -> bool:
    """True iff every probability row is non-negative and sums to 1."""
    if probs.size == 0:
        return True
    if (probs < 0).any():
        return False
    return bool(np.allclose(probs.sum(axis=-1), 1.0, atol=atol, rtol=0.0))
