"""Search-run configuration: a flat, JSON-serializable record of every knob
the evolutionary loop consumes, plus the two standard presets."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from ..hwcost import builtin_substrate_names, load_substrate

EVALUATORS = ("surrogate", "oracle")


@dataclass(frozen=True)
class MutationRates:
    """Independent firing probabilities for the four mutation operators,
    applied in this order once the per-offspring mutation gate opens."""

    deletion: float = 0.1
    duplication: float = 0.1
    rotation: float = 0.05
    perturbation: float = 0.4

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0.0 <= float(v) <= 1.0:
                raise ValueError(f"mutation rate {f.name!r} must be in [0, 1], got {v!r}")


@dataclass(frozen=True)
class SearchConfig:
    """All knobs for one search run.

    ``backend`` is either ``"analytic:<substrate>"`` (single-accelerator
    roofline model) or ``"ring"`` (multi-chip co-search).  ``evaluator``
    picks where quality labels come from: ``"surrogate"`` (trained encoder,
    required whenever ``refine_every_generations > 0``) or ``"oracle"``
    (direct synthetic ground truth).
    """

    population_size: int = 24
    offspring_size: int = 48
    generations: int = 40
    crossover_rate: float = 0.6
    mutation_rate: float = 0.3
    refine_every_generations: int = 5
    refine_batch_size: int = 8
    mc_dropout_passes: int = 10
    replay_ratio: float = 5.0
    val_loss_max: float = 3.8
    prefill_tokens: int = 256
    decode_tokens: int = 256
    backend: str = "analytic:gemmini"
    evaluator: str = "surrogate"
    space: str = "iha"
    variation: str = "nsga"
    seed: int = 0
    mutation_rates: MutationRates = field(default_factory=MutationRates)

    def __post_init__(self) -> None:
        for name in ("population_size", "offspring_size", "generations",
                     "mc_dropout_passes", "prefill_tokens", "decode_tokens"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive int, got {v!r}")
        for name in ("crossover_rate", "mutation_rate", "replay_ratio", "val_loss_max"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        for name in ("crossover_rate", "mutation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
        for name in ("refine_every_generations", "refine_batch_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a non-negative int, got {v!r}")
        if self.replay_ratio < 0:
            raise ValueError(f"replay_ratio must be >= 0, got {self.replay_ratio!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        if self.evaluator not in EVALUATORS:
            raise ValueError(f"evaluator must be one of {EVALUATORS}, got {self.evaluator!r}")
        if self.space not in ("iha", "gqa"):
            raise ValueError(f"space must be 'iha' or 'gqa', got {self.space!r}")
        if self.variation not in ("nsga", "random"):
            raise ValueError(f"variation must be 'nsga' or 'random', got {self.variation!r}")
        if self.refine_every_generations > 0 and self.evaluator != "surrogate":
            raise ValueError("refinement events require evaluator='surrogate'")
        if not isinstance(self.mutation_rates, MutationRates):
            raise ValueError(
                f"mutation_rates must be an object of rates, got {self.mutation_rates!r}"
            )
        _validate_backend(self.backend)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConfig":
        if not isinstance(d, dict):
            raise ValueError(f"search config must be a JSON object, got {type(d).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown search config fields: {sorted(unknown)}")
        kwargs = dict(d)
        rates = kwargs.get("mutation_rates")
        if isinstance(rates, dict):
            unknown = set(rates) - {f.name for f in fields(MutationRates)}
            if unknown:
                raise ValueError(f"unknown mutation rates: {sorted(unknown)}")
            kwargs["mutation_rates"] = MutationRates(**rates)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SearchConfig":
        return cls.from_dict(json.loads(text))


def _validate_backend(backend: str) -> None:
    if not isinstance(backend, str):
        raise ValueError(f"backend must be a string, got {backend!r}")
    if backend == "ring":
        return
    if backend.startswith("analytic:"):
        name = backend.split(":", 1)[1]
        if name in builtin_substrate_names():
            return
        if name.endswith(".json"):
            try:
                load_substrate(name)
            except (OSError, ValueError, TypeError) as exc:
                raise ValueError(f"cannot load substrate file {name!r}: {exc}") from exc
            return
        raise ValueError(
            f"unknown substrate {name!r}; builtins are {builtin_substrate_names()}"
        )
    raise ValueError(
        f"backend must be 'ring' or 'analytic:<substrate>', got {backend!r}"
    )


def surrogate_preset(substrate: str = "gemmini", seed: int = 0) -> SearchConfig:
    """Surrogate-in-the-loop run against one analytical substrate model: the
    default config on that substrate."""
    return SearchConfig(backend=f"analytic:{substrate}", seed=seed)


def ring_preset(seed: int = 0) -> SearchConfig:
    """Joint architecture/multi-chip co-search with ground-truth labels."""
    return SearchConfig(
        offspring_size=12,
        generations=20,
        refine_every_generations=0,
        refine_batch_size=0,
        mc_dropout_passes=1,
        replay_ratio=0.0,
        val_loss_max=3.5,
        prefill_tokens=512,
        backend="ring",
        evaluator="oracle",
        seed=seed,
    )
