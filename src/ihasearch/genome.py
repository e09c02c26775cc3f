"""Architecture genomes: per-layer attention genes, validation, repair, counting.

A genome is a fixed-length list of layer genes under one global config.  Each
gene carries its own attention shape (n_h, n_kv, d_qk, d_v) with the single
structural constraint that n_kv divides n_h; a mask bit gates the whole layer
and an attn bit gates the attention sublayer.  Two attention variants are
distinguished when counting the space: "gqa" (head dims tied to d_model/n_h)
and "iha" (all four shape fields free on their grids).
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

GQA = "gqa"
IHA = "iha"

DEFAULT_VOCAB_SIZE = 50257


@dataclass(frozen=True)
class FieldRange:
    """Integer grid {lo, lo+step, ..., hi}. lo <= hi, step >= 1."""

    lo: int
    step: int
    hi: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.lo > self.hi:
            raise ValueError(f"empty grid: lo={self.lo} > hi={self.hi}")

    def values(self) -> list[int]:
        return list(range(self.lo, self.hi + 1, self.step))

    def __len__(self) -> int:
        return (self.hi - self.lo) // self.step + 1

    def contains(self, x: int) -> bool:
        return self.lo <= x <= self.hi and (x - self.lo) % self.step == 0

    def snap(self, x: int) -> int:
        """Clamp to the grid span and round to the nearest point.

        Exact midpoints round toward the smaller grid value.
        """
        top = self.lo + (len(self) - 1) * self.step
        x = min(max(int(x), self.lo), top)
        k, r = divmod(x - self.lo, self.step)
        if 2 * r > self.step:
            k += 1
        return self.lo + k * self.step


@dataclass(frozen=True)
class SpaceRanges:
    """Per-field search grids plus the admissible attention variants."""

    n_h: FieldRange = FieldRange(1, 1, 16)
    n_kv: FieldRange = FieldRange(1, 1, 16)
    d_qk: FieldRange = FieldRange(64, 32, 512)
    d_v: FieldRange = FieldRange(64, 32, 512)
    d_mlp: FieldRange = FieldRange(512, 256, 4096)
    variants: tuple[str, ...] = (GQA, IHA)

    def field(self, name: str) -> FieldRange:
        return getattr(self, name)


NUMERIC_FIELDS = ("n_h", "n_kv", "d_qk", "d_v", "d_mlp")


@dataclass(frozen=True)
class LayerGene:
    """One layer: gate bits plus attention/MLP shape.

    mask=0 disables the layer entirely (other fields are ignored); attn=0
    keeps the MLP but makes the attention sublayer an identity.
    """

    mask: int
    attn: int
    n_h: int
    n_kv: int
    d_qk: int
    d_v: int
    d_mlp: int


@dataclass(frozen=True)
class GlobalConfig:
    d_model: int = 768
    block_size: int = 1024
    max_layers: int = 40


@dataclass(frozen=True)
class ArchGenome:
    """A fixed-length stack of layer genes under one global config."""

    global_cfg: GlobalConfig
    layers: tuple[LayerGene, ...]

    def active_layers(self) -> list[LayerGene]:
        return [g for g in self.layers if g.mask == 1]

    def n_active(self) -> int:
        return sum(g.mask == 1 for g in self.layers)

    # The cached values below are pure functions of the frozen fields and
    # live on the instance, so they die with the genome.

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The value the generated dataclass hash returns, computed once: a
        memo lookup does not re-hash every gene."""
        return hash((self.global_cfg, self.layers))

    @functools.cached_property
    def _body_params(self) -> int:
        """Weight count of the active layers (``count_params`` at vocab_size=0)."""
        d = self.global_cfg.d_model
        return sum(layer_param_count(g, d) for g in self.active_layers())

    @functools.cached_property
    def _content_digests(self) -> tuple[str, int]:
        """(genome_id, genome_hash64), both from one canonical JSON encoding.
        Kept on the instance, so a genome is serialized once however many
        of the two it is asked for."""
        data = to_json(self).encode()
        return (
            hashlib.sha1(data).hexdigest()[:12],
            int.from_bytes(hashlib.sha256(data).digest()[:8], "big"),
        )


@dataclass(frozen=True)
class Violation:
    """One validation failure. layer is None for genome-level rules."""

    layer: int | None
    field: str
    rule: str

    def __str__(self) -> str:
        where = "genome" if self.layer is None else f"layer {self.layer}"
        return f"{where}: {self.field}: {self.rule}"


@functools.lru_cache(maxsize=8)
def _grid_sets(ranges: SpaceRanges) -> tuple[frozenset[int], ...]:
    """Grid points of each numeric field, in NUMERIC_FIELDS order."""
    return tuple(frozenset(ranges.field(name).values()) for name in NUMERIC_FIELDS)


def _gene_on_space(gene: LayerGene, grids: tuple[frozenset[int], ...]) -> bool:
    """True when a gene is its own repair projection, which also means it
    breaks no per-gene rule of ``validate``: every field an exact int, gate
    bits in {0,1}, every numeric field on its grid (``_grid_sets``, active
    or not) and 1 <= n_kv dividing n_h.  A bool or numpy int does not
    qualify, because it serializes differently from the int repair makes."""
    on_n_h, on_n_kv, on_d_qk, on_d_v, on_d_mlp = grids
    return (
        type(gene.mask) is int and type(gene.attn) is int
        and type(gene.n_h) is int and type(gene.n_kv) is int
        and type(gene.d_qk) is int and type(gene.d_v) is int
        and type(gene.d_mlp) is int
        and gene.mask in (0, 1) and gene.attn in (0, 1)
        and gene.n_h in on_n_h and gene.n_kv in on_n_kv
        and gene.d_qk in on_d_qk and gene.d_v in on_d_v and gene.d_mlp in on_d_mlp
        and 1 <= gene.n_kv <= gene.n_h and gene.n_h % gene.n_kv == 0
    )


def validate(genome: ArchGenome, ranges: SpaceRanges | None = None) -> list[Violation]:
    """Return all rule violations; an empty list means the genome is well formed.

    Checked rules: positive global dims, exactly max_layers genes, at least one
    active layer, gate bits in {0,1}, and for every active layer grid
    membership of each numeric field plus n_kv | n_h.
    """
    ranges = ranges or SpaceRanges()
    grids = _grid_sets(ranges)
    out: list[Violation] = []
    g = genome.global_cfg
    for name in ("d_model", "block_size", "max_layers"):
        if getattr(g, name) < 1:
            out.append(Violation(None, name, "must be >= 1"))
    if len(genome.layers) != g.max_layers:
        out.append(Violation(None, "layers", f"expected {g.max_layers} genes, got {len(genome.layers)}"))
    if not any(gene.mask == 1 for gene in genome.layers):
        out.append(Violation(None, "mask", "at least one layer must be active"))
    for i, gene in enumerate(genome.layers):
        if _gene_on_space(gene, grids):
            continue
        for bit in ("mask", "attn"):
            if getattr(gene, bit) not in (0, 1):
                out.append(Violation(i, bit, "must be 0 or 1"))
        if gene.mask != 1:
            continue  # inactive layers are not constrained further
        for name in NUMERIC_FIELDS:
            if not ranges.field(name).contains(getattr(gene, name)):
                r = ranges.field(name)
                out.append(Violation(i, name, f"not on grid [{r.lo}:{r.step}:{r.hi}]"))
        if gene.n_kv >= 1 and gene.n_h >= 1 and gene.n_h % gene.n_kv != 0:
            out.append(Violation(i, "n_kv", f"{gene.n_kv} does not divide n_h={gene.n_h}"))
    return out


def snap_n_kv(n_h: int, n_kv: int, grid: FieldRange) -> int:
    """KV head count for n_h query heads: the largest divisor of n_h on the
    n_kv grid that is <= ``grid.snap(n_kv)``, else the smallest divisor on
    the grid.  A divisor is a positive d with n_h % d == 0.  Raises
    ValueError when the grid holds no divisor of n_h."""
    divisors = [d for d in grid.values() if d >= 1 and n_h % d == 0]
    if not divisors:
        raise ValueError(
            f"n_kv grid [{grid.lo}:{grid.step}:{grid.hi}] holds no divisor of n_h={n_h}"
        )
    cap = grid.snap(n_kv)
    return max((d for d in divisors if d <= cap), default=divisors[0])


def repair(genome: ArchGenome, ranges: SpaceRanges | None = None) -> ArchGenome:
    """Project a genome onto the valid space. Idempotent.

    Numeric fields are clamped and snapped to their grids (midpoint ties go
    to the smaller value), then n_kv is replaced by the largest divisor of
    n_h on its grid that is <= the snapped n_kv, or the smallest on-grid
    divisor when none is (``snap_n_kv``; ValueError when the n_kv grid holds
    no divisor of n_h).  Gate bits are clamped to {0,1}.  If no
    layer is left active, layer 0 is re-activated.  Gene lists of the wrong
    length are padded with inactive minimal genes or truncated.
    """
    ranges = ranges or SpaceRanges()
    g = genome.global_cfg
    gcfg = GlobalConfig(max(1, g.d_model), max(1, g.block_size), max(1, g.max_layers))
    grids = _grid_sets(ranges)

    def fix(gene: LayerGene) -> LayerGene:
        if _gene_on_space(gene, grids):
            return gene
        n_h = ranges.n_h.snap(gene.n_h)
        return LayerGene(
            mask=1 if gene.mask >= 1 else 0,
            attn=1 if gene.attn >= 1 else 0,
            n_h=n_h,
            n_kv=snap_n_kv(n_h, gene.n_kv, ranges.n_kv),
            d_qk=ranges.d_qk.snap(gene.d_qk),
            d_v=ranges.d_v.snap(gene.d_v),
            d_mlp=ranges.d_mlp.snap(gene.d_mlp),
        )

    pad = LayerGene(0, 1, ranges.n_h.lo, ranges.n_kv.lo, ranges.d_qk.lo, ranges.d_v.lo, ranges.d_mlp.lo)
    layers = [fix(gene) for gene in genome.layers[: gcfg.max_layers]]
    layers += [pad] * (gcfg.max_layers - len(layers))
    if not any(gene.mask == 1 for gene in layers):
        layers[0] = replace(layers[0], mask=1)
    return ArchGenome(gcfg, tuple(layers))


def group_map(h: int, n_h: int, n_kv: int) -> int:
    """KV group serving query head h (both 1-indexed): 1 + (h-1) // (n_h/n_kv)."""
    if n_h < 1 or n_kv < 1 or n_h % n_kv != 0:
        raise ValueError(f"n_kv={n_kv} must divide n_h={n_h}")
    if not 1 <= h <= n_h:
        raise ValueError(f"head index {h} outside 1..{n_h}")
    r = n_h // n_kv
    return 1 + (h - 1) // r


def layer_param_count(gene: LayerGene, d_model: int) -> int:
    """Weight count of one active layer: QKVO projections (attn=1 only) plus
    the two MLP matrices.  No biases or norm parameters."""
    total = 2 * d_model * gene.d_mlp
    if gene.attn == 1:
        total += d_model * (gene.n_h * gene.d_qk + gene.n_kv * gene.d_qk + gene.n_kv * gene.d_v)
        total += gene.n_h * gene.d_v * d_model
    return total


def count_params(genome: ArchGenome, vocab_size: int = DEFAULT_VOCAB_SIZE) -> int:
    """Weight count of the decoded architecture (no biases or norm params).

    vocab_size * d_model embedding plus, per active layer, the four attention
    projections when attn=1 and the two MLP matrices.
    """
    return vocab_size * genome.global_cfg.d_model + genome._body_params


def count_attention_configs(variant: str, d_model: int = 768, ranges: SpaceRanges | None = None) -> int:
    """Number of distinct per-layer attention shapes under a variant.

    gqa: n_h | d_model, n_kv | n_h, head dims pinned to d_model/n_h (one
    config per admissible (n_h, n_kv) pair).  iha: any (n_h, n_kv) with
    n_kv | n_h crossed with the free d_qk and d_v grids.
    """
    ranges = ranges or SpaceRanges()
    if variant not in (GQA, IHA):
        raise ValueError(f"unknown variant {variant!r}")
    pairs = 0
    for n_h in ranges.n_h.values():
        if variant == GQA and d_model % n_h != 0:
            continue
        pairs += sum(1 for n_kv in ranges.n_kv.values() if n_kv <= n_h and n_h % n_kv == 0)
    if variant == GQA:
        return pairs
    return pairs * len(ranges.d_qk) * len(ranges.d_v)


def random_genome(
    ranges: SpaceRanges | None = None,
    rng: np.random.Generator | None = None,
    global_cfg: GlobalConfig | None = None,
) -> ArchGenome:
    """Uniform independent draw of every field of every gene, then repair."""
    ranges = ranges or SpaceRanges()
    rng = rng if rng is not None else np.random.default_rng()
    gcfg = global_cfg or GlobalConfig()

    # One draw per genome: per gene, mask and attn in {0,1} and a grid index
    # per numeric field, in LayerGene field order.  rng.choice(values)
    # consumes the generator stream as rng.integers(len(values)) does, so
    # the vector draw equals one scalar draw per field of every gene.
    # Indices become grid values in Python ints, which cannot overflow.
    grids = [ranges.field(name) for name in NUMERIC_FIELDS]
    los = [0, 0] + [r.lo for r in grids]
    steps = [1, 1] + [r.step for r in grids]
    n = max(gcfg.max_layers, 0)
    index = rng.integers(0, np.tile([2, 2] + [len(r) for r in grids], n)).reshape(n, 7)
    layers = tuple(
        LayerGene(*[lo + i * step for i, lo, step in zip(row, los, steps)])
        for row in index.tolist()
    )
    return repair(ArchGenome(gcfg, layers), ranges)


# --- serialization ---------------------------------------------------------

def to_dict(genome: ArchGenome) -> dict:
    return {
        "global": {
            "d_model": genome.global_cfg.d_model,
            "block_size": genome.global_cfg.block_size,
            "max_layers": genome.global_cfg.max_layers,
        },
        "layers": [
            {
                "mask": g.mask,
                "attn": g.attn,
                "n_h": g.n_h,
                "n_kv": g.n_kv,
                "d_qk": g.d_qk,
                "d_v": g.d_v,
                "d_mlp": g.d_mlp,
            }
            for g in genome.layers
        ],
    }


_GLOBAL_KEYS = ("d_model", "block_size", "max_layers")
_LAYER_KEYS = ("mask", "attn", "n_h", "n_kv", "d_qk", "d_v", "d_mlp")


def _int_fields(doc, keys: tuple[str, ...], where: str) -> list[int]:
    """doc[key] for every key; each must be an exact JSON integer."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{where} has no field {key!r}")
        if type(doc[key]) is not int:
            raise ValueError(f"{where}.{key} must be a JSON integer, got {doc[key]!r}")
    return [doc[key] for key in keys]


def from_dict(doc: dict) -> ArchGenome:
    """The genome of a ``to_dict`` document.  Every field must be an exact
    integer: a missing key, a float (even 64.0), a bool or a wrong container
    raises ValueError naming the field."""
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ValueError("a genome is a JSON object with a 'global' object and a 'layers' list")
    return ArchGenome(
        GlobalConfig(*_int_fields(doc.get("global"), _GLOBAL_KEYS, "global")),
        tuple(
            LayerGene(*_int_fields(layer, _LAYER_KEYS, f"layers[{i}]"))
            for i, layer in enumerate(doc["layers"])
        ),
    )


# json.dumps(to_dict(g), sort_keys=True, separators=(",", ":")) spelled out
# for genomes whose fields are all exact ints, which it writes as %d does.
_GLOBAL_JSON = '{"global":{"block_size":%d,"d_model":%d,"max_layers":%d},"layers":['
_LAYER_JSON = '{"attn":%d,"d_mlp":%d,"d_qk":%d,"d_v":%d,"mask":%d,"n_h":%d,"n_kv":%d}'


def to_json(genome: ArchGenome) -> str:
    """Canonical single-line JSON: sorted keys, compact separators."""
    g = genome.global_cfg
    head = (g.block_size, g.d_model, g.max_layers)
    rows = [(l.attn, l.d_mlp, l.d_qk, l.d_v, l.mask, l.n_h, l.n_kv) for l in genome.layers]
    if set(map(type, itertools.chain(head, *rows))) == {int}:
        return _GLOBAL_JSON % head + ",".join([_LAYER_JSON % row for row in rows]) + "]}"
    return json.dumps(to_dict(genome), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> ArchGenome:
    return from_dict(json.loads(text))


def genome_id(genome: ArchGenome) -> str:
    """Stable 12-hex content id: the first 12 hex digits of the SHA-1 of
    the canonical JSON form."""
    return genome._content_digests[0]


def genome_hash64(genome: ArchGenome) -> int:
    """64-bit content hash used to seed per-genome noise streams: the first
    8 bytes (big-endian) of the SHA-256 of the canonical JSON form."""
    return genome._content_digests[1]
