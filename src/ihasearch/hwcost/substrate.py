"""Analytical roofline cost model for single-chip accelerator substrates.

Every constant lives in a JSON spec file (four presets ship as package data)
so a substrate can be re-tuned without touching code.  The model is a
max(compute, memory) roofline with dataflow-dependent traffic-reuse factors:
weight-stationary keeps weights resident (tiny re-read factor, billed at SRAM
energy), row-stationary reduces activation traffic, flexible takes both
discounts.

A search's children share most gene objects with their parents, so
``substrate_cost`` keeps each active gene's roofline terms (decode time,
energy and decode ops of its layer) on the gene, together with the spec and
the ``LayerProfile`` objects they were computed from.  The profile is the
gene's cached ``profile_model`` profile, kept under its
``(d_model, ctx_mean)`` key, so the two identities pin every input of the
terms; the entry holds both objects, so neither identity can be reused.  A
gene reuses its terms while both are the same objects and computes new ones
otherwise.  The terms are summed in layer order with the float operations of
the uncached loop, so every output bit is kept.
"""
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..genome import ArchGenome, LayerGene, parse_json
from .profiles import HWCost, LayerProfile, Workload, profile_model

DATAFLOWS = ("weight-stationary", "row-stationary", "flexible")

_REQUIRED = {
    "name": str,
    "mac_count": (int, float),
    "sram_bytes": (int, float),
    "dataflow": str,
    "clock_hz": (int, float),
    "dram_bw_bytes_per_s": (int, float),
    "e_mac_j": (int, float),
    "e_sram_j_per_byte": (int, float),
    "e_dram_j_per_byte": (int, float),
    "reuse_weight": (int, float),
    "reuse_kv": (int, float),
    "reuse_act": (int, float),
    "weights_resident": bool,
}
_NUMERIC = [key for key, types in _REQUIRED.items() if types == (int, float)]


def _check_positive_number(key: str, value) -> None:
    """Accept only a number > 0 that is a finite float: not a bool (an int
    to isinstance), NaN, an infinity or an int too large for a float."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value) and value > 0)
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"substrate field {key!r} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class SubstrateSpec:
    """One accelerator template: compute, memory, energy and reuse constants."""

    name: str
    mac_count: int
    sram_bytes: int
    dataflow: str
    clock_hz: float
    dram_bw_bytes_per_s: float
    e_mac_j: float
    e_sram_j_per_byte: float
    e_dram_j_per_byte: float
    reuse_weight: float
    reuse_kv: float
    reuse_act: float
    weights_resident: bool

    def __post_init__(self):
        if self.dataflow not in DATAFLOWS:
            raise ValueError(f"unknown dataflow {self.dataflow!r}; expected one of {DATAFLOWS}")
        for key in _NUMERIC:
            _check_positive_number(key, getattr(self, key))


def builtin_substrate_names() -> list[str]:
    """Names of the bundled substrate spec files."""
    root = resources.files(__package__) / "substrates"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_substrate(name_or_path: str) -> SubstrateSpec:
    """Load a substrate spec by preset name or by explicit file path."""
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        text = path.read_text()
    else:
        ref = resources.files(__package__) / "substrates" / f"{name_or_path}.json"
        try:
            text = ref.read_text()
        except FileNotFoundError:
            raise ValueError(
                f"unknown substrate {name_or_path!r}; "
                f"presets: {', '.join(builtin_substrate_names())}"
            ) from None
    raw = parse_json(text)
    for key, types in _REQUIRED.items():
        if key not in raw:
            raise ValueError(f"substrate spec missing field {key!r}")
        if not isinstance(raw[key], types):
            raise ValueError(f"substrate field {key!r} has wrong type")
    for key in _NUMERIC:
        _check_positive_number(key, raw[key])
    extra = set(raw) - set(_REQUIRED)
    if extra:
        raise ValueError(f"substrate spec has unknown fields: {sorted(extra)}")
    return SubstrateSpec(
        name=raw["name"],
        mac_count=int(raw["mac_count"]),
        sram_bytes=int(raw["sram_bytes"]),
        dataflow=raw["dataflow"],
        clock_hz=float(raw["clock_hz"]),
        dram_bw_bytes_per_s=float(raw["dram_bw_bytes_per_s"]),
        e_mac_j=float(raw["e_mac_j"]),
        e_sram_j_per_byte=float(raw["e_sram_j_per_byte"]),
        e_dram_j_per_byte=float(raw["e_dram_j_per_byte"]),
        reuse_weight=float(raw["reuse_weight"]),
        reuse_kv=float(raw["reuse_kv"]),
        reuse_act=float(raw["reuse_act"]),
        weights_resident=bool(raw["weights_resident"]),
    )


def _layer_roofline(
    gene: LayerGene, prof: LayerProfile, spec: SubstrateSpec, ctx_mean: float
) -> tuple:
    """``(spec, prof, decode time, energy, decode ops)`` of one active layer
    with profile ``prof`` on ``spec``, kept on the gene (module docstring)."""
    compute_rate = spec.mac_count * spec.clock_hz
    e_weight = spec.e_sram_j_per_byte if spec.weights_resident else spec.e_dram_j_per_byte
    w_traffic = prof.weight_bytes * spec.reuse_weight
    kv_traffic = prof.kv_bytes_per_token * ctx_mean * spec.reuse_kv
    act_traffic = prof.act_bytes * spec.reuse_act
    traffic = w_traffic + kv_traffic + act_traffic
    entry = (
        spec,
        prof,
        max(prof.decode_ops / compute_rate, traffic / spec.dram_bw_bytes_per_s),
        (
            prof.decode_ops * spec.e_mac_j
            + w_traffic * e_weight
            + (kv_traffic + act_traffic) * spec.e_sram_j_per_byte
        ),
        prof.decode_ops,
    )
    object.__setattr__(gene, "_roofline", entry)
    return entry


def substrate_cost(genome: ArchGenome, spec: SubstrateSpec, workload: Workload) -> HWCost:
    """Roofline estimate of (energy/token, TTFT, TPOT) on one substrate.

    Per layer the decode step takes max(compute, memory) time: compute is
    decode_ops over the MAC array, memory is the reuse-discounted traffic
    over DRAM bandwidth.  Prefill is modeled as prefill_tokens batched
    matmul passes at the compute-bound rate.  Energy charges every MAC plus
    every byte moved, with weight bytes billed at SRAM cost when the
    dataflow keeps them resident.  Each layer's terms come from its gene's
    cache (module docstring).
    """
    ctx_mean = workload.ctx_mean
    e_tok = 0.0
    tpot = 0.0
    total_ops = 0.0
    for gene, prof in zip(genome.active_layers(), profile_model(genome, workload)):
        terms = gene._roofline
        if terms is None or terms[0] is not spec or terms[1] is not prof:
            terms = _layer_roofline(gene, prof, spec, ctx_mean)
        tpot += terms[2]
        e_tok += terms[3]
        total_ops += terms[4]
    ttft = workload.prefill_tokens * total_ops / (spec.mac_count * spec.clock_hz)
    return HWCost(e_tok, ttft, tpot)
