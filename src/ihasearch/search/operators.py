"""Variation and selection operators over fixed-length layer-gene stacks.

All operators consume a ``numpy.random.Generator`` and draw from it in a
fixed order, so a run is reproducible from a single seed.  Every operator
that edits a genome finishes with a repair projection, so its output is
always a valid member of the search space.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from ..genome import NUMERIC_FIELDS, ArchGenome, LayerGene, SpaceRanges, repair, snap_n_kv
from .config import MutationRates

RepairFn = Callable[[ArchGenome], ArchGenome]


def tournament_select(
    dom: np.ndarray,
    crowding: Sequence[float],
    rng: np.random.Generator,
    n_winners: int,
) -> list[int]:
    """Binary constrained tournaments; returns indices of the winners.

    Each tournament draws two contestants uniformly with replacement.  The
    contestant that constraint-dominates the other (``dom[i, j]``, the
    population's dominance matrix) wins; mutual non-domination falls back
    to larger crowding distance, and an exact crowding tie goes to the first
    contestant drawn.
    """
    n = len(dom)
    if n == 0:
        raise ValueError("cannot select from an empty population")
    if len(crowding) != n:
        raise ValueError("crowding must have one entry per individual")
    winners = []
    for _ in range(n_winners):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if dom[i, j]:
            winners.append(i)
        elif dom[j, i]:
            winners.append(j)
        elif crowding[j] > crowding[i]:
            winners.append(j)
        else:
            winners.append(i)
    return winners


def crossover(
    p1: ArchGenome,
    p2: ArchGenome,
    rng: np.random.Generator,
    repair_fn: RepairFn,
) -> ArchGenome:
    """Single-point layer-stack crossover at a uniform cut in [1, L-1].

    The child takes layers [0, u) from the first parent, [u, L) from the
    second, and the first parent's global config, then gets repaired.
    """
    n = len(p1.layers)
    if len(p2.layers) != n:
        raise ValueError("parents must have equal layer counts")
    if n < 2:
        child = ArchGenome(p1.global_cfg, p1.layers)
    else:
        u = int(rng.integers(1, n))
        child = ArchGenome(p1.global_cfg, p1.layers[:u] + p2.layers[u:])
    return repair_fn(child)


def mutate(
    genome: ArchGenome,
    rng: np.random.Generator,
    rates: MutationRates,
    ranges: SpaceRanges,
    repair_fn: RepairFn,
) -> ArchGenome:
    """Apply the four mutation operators in a fixed order, then repair.

    deletion      flip one uniformly chosen layer's gate bit (may revive a
                  dormant layer as easily as silence an active one)
    duplication   draw two slots uniformly; copy the earlier gene onto the
                  later slot (equal draws are a no-op)
    rotation      on the packed active sub-sequence: a fair coin picks a
                  cyclic shift by s ~ U[1, L_act-1] or a full reflection;
                  skipped when fewer than two layers are active
    perturbation  move one numeric field of one active layer by one grid
                  step in a uniform direction, clamped at the range edges
    """
    layers = list(genome.layers)
    n = len(layers)

    if n and rng.random() < rates.deletion:
        i = int(rng.integers(n))
        layers[i] = replace(layers[i], mask=1 - (1 if layers[i].mask >= 1 else 0))

    if n and rng.random() < rates.duplication:
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i != j:
            src, dst = min(i, j), max(i, j)
            layers[dst] = layers[src]

    if rng.random() < rates.rotation:
        active = [i for i, g in enumerate(layers) if g.mask == 1]
        if len(active) >= 2:
            genes = [layers[i] for i in active]
            if rng.random() < 0.5:
                s = int(rng.integers(1, len(active)))
                genes = genes[s:] + genes[:s]
            else:
                genes = genes[::-1]
            for slot, gene in zip(active, genes):
                layers[slot] = gene

    if rng.random() < rates.perturbation:
        active = [i for i, g in enumerate(layers) if g.mask == 1]
        if active:
            slot = active[int(rng.integers(len(active)))]
            name = NUMERIC_FIELDS[int(rng.integers(len(NUMERIC_FIELDS)))]
            fr = getattr(ranges, name)
            step = fr.step if rng.random() < 0.5 else -fr.step
            value = min(fr.hi, max(fr.lo, getattr(layers[slot], name) + step))
            layers[slot] = replace(layers[slot], **{name: value})

    child = ArchGenome(genome.global_cfg, tuple(layers))
    return repair_fn(child)


def gqa_allowed_heads(d_model: int, ranges: SpaceRanges | None = None) -> list[int]:
    """Head counts for which grouped-query attention is expressible: n_h on
    its grid, d_model divisible by n_h, and d_model/n_h on both head-width
    grids."""
    ranges = ranges or SpaceRanges()
    allowed = []
    for n_h in range(ranges.n_h.lo, ranges.n_h.hi + 1, ranges.n_h.step):
        if d_model % n_h:
            continue
        d_head = d_model // n_h
        if ranges.d_qk.contains(d_head) and ranges.d_v.contains(d_head):
            allowed.append(n_h)
    return allowed


def gqa_repair(genome: ArchGenome, ranges: SpaceRanges | None = None) -> ArchGenome:
    """Repair, then project every layer onto the grouped-query subspace:
    n_h snaps to the nearest expressible head count (ties toward fewer
    heads), d_qk = d_v = d_model / n_h, and n_kv is re-snapped to a divisor
    of the new n_h as ``repair`` does (``snap_n_kv``).  Idempotent."""
    ranges = ranges or SpaceRanges()
    fixed = repair(genome, ranges)
    allowed = gqa_allowed_heads(fixed.global_cfg.d_model, ranges)
    if not allowed:
        raise ValueError(
            f"no grouped-query head count exists for d_model={fixed.global_cfg.d_model}"
        )

    def project(gene: LayerGene) -> LayerGene:
        n_h = min(allowed, key=lambda h: (abs(h - gene.n_h), h))
        n_kv = snap_n_kv(n_h, gene.n_kv, ranges.n_kv)
        d_head = fixed.global_cfg.d_model // n_h
        if (n_h, n_kv, d_head, d_head) == (gene.n_h, gene.n_kv, gene.d_qk, gene.d_v):
            return gene  # keep the object and its caches
        return replace(gene, n_h=n_h, n_kv=n_kv, d_qk=d_head, d_v=d_head)

    return ArchGenome(fixed.global_cfg, tuple(project(g) for g in fixed.layers))
