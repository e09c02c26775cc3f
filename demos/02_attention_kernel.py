"""The decoupled-attention reference kernel and its reduction properties.

The kernel computes causal attention where each of n_h query heads reads
keys/values from one of n_kv shared groups.  Setting n_kv = n_h recovers
multi-head attention; n_kv = 1 is multi-query attention; anything between is
grouped-query.  The demo shows the grouping is *exactly* equivalent to
physically replicating each group's K/V projections — the parameterization
changes memory, not math — and checks the probability-matrix invariants.

Run:  python demos/02_attention_kernel.py
"""
import numpy as np

from ihasearch.attention import (
    attention_rows_stochastic,
    iha_forward,
    random_weights,
    replicate_kv_groups,
)
from ihasearch.genome import LayerGene


def main() -> None:
    rng = np.random.default_rng(0)
    d_model, t_len = 96, 10
    x = rng.normal(size=(t_len, d_model))

    print("== grouping == replication, for a sweep of (n_h, n_kv) ==")
    for n_h, n_kv in [(8, 8), (8, 4), (8, 2), (8, 1), (6, 3), (5, 1)]:
        gene = LayerGene(1, 1, n_h, n_kv, 16, 24, 512)
        w = random_weights(gene, d_model, rng)
        grouped = iha_forward(x, gene, w)
        gene_rep = LayerGene(1, 1, n_h, n_h, 16, 24, 512)
        replicated = iha_forward(x, gene_rep, replicate_kv_groups(gene, w))
        err = np.abs(grouped - replicated).max()
        kv_saving = 1 - n_kv / n_h
        print(f"  n_h={n_h} n_kv={n_kv}:  max |diff| = {err:.2e}   "
              f"KV-cache saved {kv_saving:4.0%}")

    print("\n== probability-matrix invariants ==")
    gene = LayerGene(1, 1, 6, 2, 16, 16, 512)
    w = random_weights(gene, d_model, rng)
    _, probs = iha_forward(x, gene, w, return_probs=True)
    print(f"probs shape (heads, T, T)   : {probs.shape}")
    print(f"rows sum to 1               : {attention_rows_stochastic(probs)}")
    future = np.triu(np.ones((t_len, t_len), dtype=bool), k=1)
    print(f"future positions all zero   : {probs[:, future].max() == 0.0}")

    print("\n== prefix invariance: editing the future cannot change the past ==")
    out = iha_forward(x, gene, w)
    x2 = x.copy()
    x2[t_len // 2:] += rng.normal(size=(t_len - t_len // 2, d_model))
    out2 = iha_forward(x2, gene, w)
    print(f"prefix rows max |diff|      : "
          f"{np.abs(out[:t_len // 2] - out2[:t_len // 2]).max():.2e}")

    print("\n== the attention gate: attn=0 bypasses the mixer ==")
    gene_off = LayerGene(1, 0, 6, 2, 16, 16, 512)
    print(f"attn=0 output is the input  : "
          f"{np.array_equal(iha_forward(x, gene_off, w), x)}")


if __name__ == "__main__":
    main()
