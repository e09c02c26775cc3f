"""Per-layer resource profiling shared by every hardware backend.

``profile_layer`` profiles one active layer.  ``profile_model`` profiles the
active layers of a genome, which both backends (``substrate_cost`` and the
ring's ``chip_grid_search``) do once per distinct genome.  A search's
children share most gene objects with their parents, so ``profile_model``
keeps each gene's last profile on the gene, keyed by what the profile
depends on besides the gene: ``(d_model, ctx_mean)``, an int and a float,
since configs and workloads hold exact ints (``genome.require_ints``).  A
gene reuses its profile while the key is equal and computes a new one otherwise; the cache dies with
the gene object.  ``substrate_cost`` keys each gene's cached roofline terms
by the identity of this profile object (``hwcost.substrate``), so a profile
under a new key retires them too.  ``profile_layer`` itself caches nothing;
its weight count is the gene's cached ``LayerGene.param_count``, which the
oracle's parameter count reads too.  Every element is one byte (8-bit
weights, KV cache and activations).
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

from ..genome import MAX_EXACT_INT, ArchGenome, GlobalConfig, LayerGene, require_ints


class HWCost(NamedTuple):
    """Common backend output: energy per token [J], TTFT [s], TPOT [s]."""

    e_tok_j: float
    ttft_s: float
    tpot_s: float


@dataclass(frozen=True)
class Workload:
    """Inference workload: prefill followed by token-by-token decode.  Both
    lengths are exact ints in [1, 2**53], the ints a float holds exactly
    (``genome.MAX_EXACT_INT``), or ValueError names the field."""

    prefill_tokens: int = 256
    decode_tokens: int = 256

    def __post_init__(self):
        require_ints(self, ("prefill_tokens", "decode_tokens"))
        for name in ("prefill_tokens", "decode_tokens"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_EXACT_INT:
                raise ValueError(f"prefill and decode lengths must be >= 1 and <= 2**53: "
                                 f"Workload.{name} is {value!r}")

    @property
    def ctx_mean(self) -> float:
        """Mean decode-phase context length (prefill plus half the decode)."""
        return self.prefill_tokens + self.decode_tokens / 2

    @property
    def ctx_peak(self) -> int:
        """Largest context reached; sizes KV-cache capacity."""
        return self.prefill_tokens + self.decode_tokens


@dataclass(frozen=True, slots=True)
class LayerProfile:
    """Resource footprint of one active layer.

    weight_bytes       weights resident on chip
    kv_bytes_per_token KV-cache growth per context token (0 when attn=0)
    decode_ops         MACs to emit one token (weights + attention scores/values)
    act_bytes          peak activation bytes, double-buffered
    """

    weight_bytes: int
    kv_bytes_per_token: int
    decode_ops: float
    act_bytes: int

    def __post_init__(self):
        # the chained comparison also rejects NaN
        for value in (self.weight_bytes, self.kv_bytes_per_token, self.decode_ops, self.act_bytes):
            if not 0 <= value < math.inf:
                raise ValueError(f"profile entries must be finite and >= 0, got {value!r}")


def profile_layer(
    gene: LayerGene,
    global_cfg: GlobalConfig,
    ctx_tokens: float = 384.0,
) -> LayerProfile:
    """Profile one active layer at a fixed attention context length.

    decode_ops counts one MAC per resident weight plus, when attention is
    enabled, the per-head score and value MACs against ctx_tokens cached
    entries.  The default context matches the standard 256/256 workload mean.
    """
    if gene.mask != 1:
        raise ValueError("cannot profile an inactive layer")
    d = global_cfg.d_model
    weights = gene.param_count(d)
    kv = gene.attn * gene.n_kv * (gene.d_qk + gene.d_v)
    ops = float(weights)
    if gene.attn == 1:
        ops += gene.n_h * (gene.d_qk + gene.d_v) * ctx_tokens
    act = 2 * max(d, gene.n_h * gene.d_v, gene.d_mlp)
    return LayerProfile(weights, kv, ops, act)


def profile_model(genome: ArchGenome, workload: Workload) -> list[LayerProfile]:
    """Profiles for every active layer, in layer order: each equals
    ``profile_layer(gene, genome.global_cfg, workload.ctx_mean)``, reused
    from the gene when it was computed under an equal key (module
    docstring)."""
    global_cfg = genome.global_cfg
    ctx = workload.ctx_mean
    key = (global_cfg.d_model, ctx)
    out = []
    for gene in genome.layers:
        if gene.mask != 1:
            continue
        if gene._profile_key == key:
            out.append(gene._profile)
            continue
        prof = profile_layer(gene, global_cfg, ctx)
        object.__setattr__(gene, "_profile_key", key)
        object.__setattr__(gene, "_profile", prof)
        out.append(prof)
    return out
