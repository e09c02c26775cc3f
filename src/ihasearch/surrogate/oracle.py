"""Synthetic labelling oracle for desk-scale experiments.

Labels mimic a validation loss: they improve logarithmically with
non-embedding parameter count, degrade for very shallow stacks, and pay a
small penalty for identity-attention layers.  Noise is seeded per genome, so
the same architecture always receives the same label under a given
noise seed.
"""
from __future__ import annotations

import numpy as np

from ..genome import ArchGenome, count_params, genome_hash64, random_genome


def synth_oracle(genome: ArchGenome, noise_seed: int = 0) -> float:
    """4.2 - 0.30*ln(1 + P/1e6) + 0.5/sqrt(L_active) + 0.05*f_identity + noise,
    where the noise is one N(0, 0.02^2) draw seeded by the genome's 64-bit
    hash and ``noise_seed``."""
    p = count_params(genome, vocab_size=0)
    active = genome.active_layers()
    if not active:
        raise ValueError("genome has no active layers")
    f_id = sum(g.attn == 0 for g in active) / len(active)
    y = 4.2 - 0.30 * np.log1p(p / 1e6) + 0.5 / np.sqrt(len(active)) + 0.05 * f_id
    rng = np.random.default_rng(np.random.SeedSequence([genome_hash64(genome), noise_seed]))
    y += rng.normal(0.0, 0.02)
    return float(y)


def make_synthetic_corpus(n: int, seed: int = 0):
    """n random genomes of the default search space and global config, drawn
    from a generator seeded with ``seed``, each labelled by ``synth_oracle``
    with ``seed`` as its noise seed.  Returns (genomes, labels)."""
    rng = np.random.default_rng(seed)
    genomes = [random_genome(rng=rng) for _ in range(n)]
    labels = np.array([synth_oracle(g, seed) for g in genomes])
    return genomes, labels
