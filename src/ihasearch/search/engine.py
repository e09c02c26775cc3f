"""NSGA-II generation loop with a pluggable quality evaluator, pluggable
hardware backend, optional surrogate co-evolution, and the ablation suite."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..genome import (
    ArchGenome,
    SpaceRanges,
    count_params,
    genome_id,
    random_genome,
    repair,
    validate,
)
from ..hwcost import RingResult, Workload, load_substrate, ring_cost, substrate_cost
from ..hwcost.profiles import HWCost
from ..metrics import constraint_dominance_matrix, hypervolume_2d, pareto_front
from ..surrogate import EncoderSurrogate, LabeledCorpus, fine_tune, synth_oracle
from .config import SearchConfig
from .nsga import fast_nondominated_sort, nsga_survival, rank_and_crowd
from .operators import crossover, gqa_repair, mutate, tournament_select

@dataclass(frozen=True)
class Individual:
    """One evaluated architecture: genome, the four minimization objectives,
    and its constraint status."""

    genome: ArchGenome
    gid: str
    val_loss: float
    e_tok_j: float
    ttft_s: float
    tpot_s: float
    feasible: bool
    violation: float
    born_gen: int
    ring: RingResult | None = None

    @property
    def objectives(self) -> tuple[float, float, float, float]:
        return (self.val_loss, self.e_tok_j, self.ttft_s, self.tpot_s)


def objective_arrays(pop: Sequence[Individual]) -> tuple[np.ndarray, np.ndarray]:
    """A population's objective values (n, 4) and its (n, n)
    constraint-dominance matrix, the one form in which selection sees
    objectives, feasibility and violation."""
    values = np.array([ind.objectives for ind in pop], dtype=float)
    feasible = np.array([ind.feasible for ind in pop], dtype=bool)
    violation = np.array([ind.violation for ind in pop], dtype=float)
    return values, constraint_dominance_matrix(values, feasible, violation)


class ParetoArchive:
    """All-time non-dominated set of feasible evaluated individuals.

    Individuals are deduplicated by genome id (the first evaluation of a
    genome is the one that counts, so later surrogate refits cannot rewrite
    history).  Membership is filtered by plain objective domination; ties
    and duplicate objective vectors are kept.
    """

    def __init__(self) -> None:
        self._members: list[Individual] = []
        self._ids: set[str] = set()

    def update(self, individuals: Sequence[Individual]) -> None:
        fresh = []
        for ind in individuals:
            if ind.feasible and ind.gid not in self._ids:
                fresh.append(ind)
                self._ids.add(ind.gid)
        if not fresh:
            return
        combined = self._members + fresh
        keep = pareto_front(np.array([ind.objectives for ind in combined], dtype=float))
        self._members = [combined[i] for i in sorted(keep)]

    @property
    def members(self) -> list[Individual]:
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def quality_size_points(self) -> np.ndarray:
        """(val_loss, weight-parameter count) pairs for hypervolume tracking.

        Model size counts transformer-body weights only (vocab_size=0): the
        search never varies the embedding table, so including it would only
        shift every point by the same constant.
        """
        pts = [
            (ind.val_loss, float(count_params(ind.genome, vocab_size=0)))
            for ind in self._members
        ]
        return np.array(pts, dtype=float).reshape(len(pts), 2)


@dataclass
class SearchResult:
    """Everything a search run produced, in evaluation order where relevant.

    ``evaluated`` lists every individual in the order it was scored (initial
    population first, then each generation's offspring), which is what the
    archive-correctness and audit checks consume.  It holds one entry per
    requested evaluation, repeats of a genome included."""

    config: SearchConfig
    population: list[Individual]
    archive: ParetoArchive
    stats: list[dict]
    events: list[dict]
    archive_snapshots: list[np.ndarray]
    hv_ref: tuple[float, float]
    evaluated: list[Individual] = field(default_factory=list, repr=False)

    @property
    def n_evaluations(self) -> int:
        """Requested evaluations, repeats of a genome included."""
        return len(self.evaluated)

    def hv_curve(self, ref: tuple[float, float]) -> np.ndarray:
        """Archive hypervolume in (val_loss, model size) per generation."""
        return np.array(
            [hypervolume_2d(snap, ref) for snap in self.archive_snapshots]
        )


def default_hv_ref(snapshot_groups: Sequence[Sequence[np.ndarray]]) -> tuple[float, float]:
    """Componentwise worst over the union of all snapshot points, scaled by
    1.1, so every point strictly dominates the reference.  Multiplying a
    non-positive worst value by 1.1 would move the reference the wrong way,
    so those components are padded additively instead."""
    pts = [s for group in snapshot_groups for s in group if len(s)]
    if not pts:
        return (1.0, 1.0)
    worst = np.concatenate(pts, axis=0).max(axis=0)
    ref = np.where(worst > 0, worst * 1.1, worst + 0.1 * np.maximum(np.abs(worst), 1.0))
    return (float(ref[0]), float(ref[1]))


def make_backend(
    config: SearchConfig,
) -> Callable[[ArchGenome], tuple[HWCost | None, RingResult | None]]:
    """Build the hardware-cost callable for a config.

    Returns a function mapping genome -> (HWCost, ring) where the cost is
    None when the backend cannot realize the genome (no feasible ring plan
    exists) and ring is the chosen RingResult under the ring backend.
    """
    workload = Workload(config.prefill_tokens, config.decode_tokens)
    if config.backend == "ring":

        def ring_backend(genome: ArchGenome):
            result = ring_cost(genome, workload)
            return (None, None) if result is None else (result.cost, result)

        return ring_backend

    spec = load_substrate(config.backend.split(":", 1)[1])
    return lambda genome: (substrate_cost(genome, spec, workload), None)


def acquisition_select(
    pop: Sequence[Individual],
    surrogate: EncoderSurrogate,
    b: int,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Pick the refinement batch as (exploit, explore) indices into ``pop``:
    up to floor(b/2) first-front members with the lowest predicted loss
    (exploitation), topped up with the highest-uncertainty members of the
    rest (exploration).  Draws one MC-dropout seed from ``rng``."""
    genomes = [ind.genome for ind in pop]
    mu, sigma = surrogate.mc_predict_genomes(genomes, n_mc=n_mc, seed=int(rng.integers(2**31)))
    first = fast_nondominated_sort(objective_arrays(pop)[1])[0]
    return acquisition_indices(len(pop), first, mu, sigma, b)


def acquisition_indices(
    n: int, first_front: Sequence[int], mu: np.ndarray, sigma: np.ndarray, b: int
) -> tuple[list[int], list[int]]:
    """Index-level acquisition split; ties broken by ascending index."""
    front = sorted(first_front)
    in_front = set(front)
    rest = [i for i in range(n) if i not in in_front]
    b_exp = min(b // 2, len(front))
    exploit = sorted(front, key=lambda i: (mu[i], i))[:b_exp]
    explore = sorted(rest, key=lambda i: (-sigma[i], i))[: min(b - b_exp, len(rest))]
    return exploit, explore


class _SearchEngine:
    def __init__(
        self,
        config: SearchConfig,
        surrogate: EncoderSurrogate | None,
        corpus: LabeledCorpus | None,
    ) -> None:
        self.cfg = config
        # one ranges object for the run: repair's grid cache would hash a
        # fresh one on every call
        self.ranges = SpaceRanges()
        self.backend = make_backend(config)
        self.rng = np.random.default_rng(config.seed)
        self.corpus = corpus
        if config.evaluator == "surrogate":
            if surrogate is None or surrogate.normalizer is None:
                raise ValueError("evaluator='surrogate' needs a trained surrogate")
            self.baseline = surrogate
            self.model: EncoderSurrogate | None = surrogate
        else:
            self.baseline = None
            self.model = None
        if config.refine_every_generations > 0 and corpus is None:
            raise ValueError("refinement events need the original training corpus for replay")
        # The closures capture the ranges, not the engine: an engine that
        # referred to itself would outlive its run, memo and all, until the
        # next full garbage collection.
        ranges = self.ranges
        if config.space == "gqa":
            self.repair_fn = lambda g: gqa_repair(g, ranges)
        else:
            self.repair_fn = lambda g: repair(g, ranges)
        self.evaluated: list[Individual] = []
        # Per-run memo of what is a pure function of the genome: its id, the
        # backend's hardware cost and, under evaluator="oracle", its label.
        # Keyed by the genome value, which is exact (unlike the short id).
        self._scored: dict[ArchGenome, tuple] = {}

    # -- evaluation ------------------------------------------------------
    def _score(self, genome: ArchGenome) -> tuple:
        """(genome id, hardware cost, ring result, oracle label) of a genome,
        computed on its first request in this run after checking that the
        genome is valid.  The label is None under the surrogate evaluator,
        whose predictions are never memoised."""
        hit = self._scored.get(genome)
        if hit is None:
            problems = validate(genome, self.ranges)
            if problems:
                raise AssertionError(f"operator emitted an invalid genome: {problems}")
            cost, ring = self.backend(genome)
            label = synth_oracle(genome, self.cfg.seed) if self.cfg.evaluator == "oracle" else None
            hit = self._scored[genome] = (genome_id(genome), cost, ring, label)
        return hit

    def evaluate(self, genomes: list[ArchGenome], gen: int) -> list[Individual]:
        """Score every requested genome; each request yields one Individual
        born at ``gen``, and repeats of a genome reuse its memoised parts."""
        scored = [self._score(g) for g in genomes]
        if self.cfg.evaluator == "surrogate":
            quality = np.asarray(self.model.predict_genomes(genomes), dtype=float)
        else:
            quality = [label for _, _, _, label in scored]
        out = []
        for g, (gid, cost, ring, _), v in zip(genomes, scored, quality):
            v = float(v)
            if cost is None or not math.isfinite(v):
                e = ttft = tpot = float("inf")
                feasible, viol = False, float("inf")
            else:
                e, ttft, tpot = cost
                feasible = (v < self.cfg.val_loss_max and math.isfinite(e)
                            and math.isfinite(ttft) and math.isfinite(tpot))
                viol = max(0.0, v - self.cfg.val_loss_max)
            out.append(
                Individual(
                    genome=g,
                    gid=gid,
                    val_loss=v,
                    e_tok_j=float(e),
                    ttft_s=float(ttft),
                    tpot_s=float(tpot),
                    feasible=bool(feasible),
                    violation=float(viol),
                    born_gen=gen,
                    ring=ring,
                )
            )
        self.evaluated.extend(out)
        return out

    # -- variation -------------------------------------------------------
    def breed(self, population: list[Individual]) -> list[ArchGenome]:
        cfg = self.cfg
        if cfg.variation == "random":
            raw = [random_genome(self.ranges, self.rng) for _ in range(cfg.offspring_size)]
            return [self.repair_fn(g) for g in raw]
        values, dom = objective_arrays(population)
        crowd, _ = rank_and_crowd(values, dom)
        pool_idx = tournament_select(dom, crowd, self.rng, cfg.population_size)
        pool = [population[i] for i in pool_idx]
        offspring = []
        while len(offspring) < cfg.offspring_size:
            p1 = pool[int(self.rng.integers(len(pool)))]
            p2 = pool[int(self.rng.integers(len(pool)))]
            if self.rng.random() < cfg.crossover_rate:
                child = crossover(p1.genome, p2.genome, self.rng, self.repair_fn)
            else:
                child = p1.genome
            if self.rng.random() < cfg.mutation_rate:
                child = mutate(child, self.rng, cfg.mutation_rates, self.ranges, self.repair_fn)
            # crossover and mutate end in repair_fn and a clone is a parent,
            # so every child is already on the search space
            offspring.append(child)
        return offspring

    # -- refinement ------------------------------------------------------
    def refine(self, population: list[Individual], t: int, buffer: dict) -> dict:
        cfg = self.cfg
        exploit_idx, explore_idx = acquisition_select(
            population, self.model, cfg.refine_batch_size, cfg.mc_dropout_passes, self.rng
        )
        selected = exploit_idx + explore_idx
        labels = [synth_oracle(population[i].genome, cfg.seed) for i in selected]
        n_dropped = 0
        for i, y in zip(selected, labels):
            ind = population[i]
            if not np.isfinite(y):
                n_dropped += 1
                continue
            if ind.gid not in buffer["ids"]:
                buffer["ids"].add(ind.gid)
                buffer["genomes"].append(ind.genome)
                buffer["labels"].append(y)
        event = {
            "t": t,
            "exploit_ids": [population[i].gid for i in exploit_idx],
            "explore_ids": [population[i].gid for i in explore_idx],
            "labels": labels,
            "n_dropped": n_dropped,
            "buffer_size": len(buffer["genomes"]),
        }
        if buffer["genomes"]:
            self.model = fine_tune(
                self.baseline,
                buffer["genomes"],
                np.array(buffer["labels"], dtype=float),
                self.corpus,
                replay_ratio=cfg.replay_ratio,
                seed=int(self.rng.integers(2**31)),
            )
        return event

    # -- main loop -------------------------------------------------------
    def run(self) -> SearchResult:
        cfg = self.cfg
        init = [
            self.repair_fn(random_genome(self.ranges, self.rng))
            for _ in range(cfg.population_size)
        ]
        population = self.evaluate(init, gen=0)
        archive = ParetoArchive()
        buffer: dict = {"genomes": [], "labels": [], "ids": set()}
        stats: list[dict] = []
        events: list[dict] = []
        snapshots: list[np.ndarray] = []

        for t in range(cfg.generations):
            offspring = self.breed(population)
            evaluated = self.evaluate(offspring, gen=t + 1)
            combined = population + evaluated
            keep = nsga_survival(*objective_arrays(combined), cfg.population_size)
            population = [combined[i] for i in keep]
            archive.update(combined)
            if (
                cfg.refine_every_generations > 0
                and t > 0
                and t % cfg.refine_every_generations == 0
            ):
                events.append(self.refine(population, t, buffer))
            snapshots.append(archive.quality_size_points())
            stats.append(
                {
                    "generation": t,
                    "n_evaluations": len(self.evaluated),
                    "n_feasible_pop": sum(ind.feasible for ind in population),
                    "best_val_loss": min(
                        (ind.val_loss for ind in archive.members), default=float("inf")
                    ),
                    "archive_size": len(archive),
                    "hypervolume": 0.0,
                }
            )

        result = SearchResult(
            config=cfg,
            population=population,
            archive=archive,
            stats=stats,
            events=events,
            archive_snapshots=snapshots,
            hv_ref=default_hv_ref([snapshots]),
            evaluated=self.evaluated,
        )
        for row, hv in zip(stats, result.hv_curve(result.hv_ref)):
            row["hypervolume"] = float(hv)
        return result


def run_search(
    config: SearchConfig,
    surrogate: EncoderSurrogate | None = None,
    corpus: LabeledCorpus | None = None,
) -> SearchResult:
    """Run the full generation loop and return population, archive, stats,
    and the refinement-event log.  Deterministic given the config seed.

    Labels come from ``synth_oracle`` seeded with the config seed, a pure
    function of the genome, so a run computes the label of each distinct
    genome once and reuses it for every repeat of that genome."""
    return _SearchEngine(config, surrogate, corpus).run()


# recipe -> (variation, space)
ABLATION_RECIPES = {
    "nsga_iha": ("nsga", "iha"),
    "random_iha": ("random", "iha"),
    "nsga_gqa": ("nsga", "gqa"),
}


@dataclass
class AblationResult:
    """Hypervolume-vs-generation curves for each recipe under one shared
    reference point (componentwise worst over every run, x1.1)."""

    ref: tuple[float, float]
    curves: dict[str, np.ndarray]
    results: dict[str, list[SearchResult]] = field(repr=False, default_factory=dict)

    def summary(self) -> dict[str, dict[str, np.ndarray]]:
        return {
            name: {"mean": arr.mean(axis=0), "std": arr.std(axis=0)}
            for name, arr in self.curves.items()
        }

    def median_final(self) -> dict[str, float]:
        return {name: float(np.median(arr[:, -1])) for name, arr in self.curves.items()}


def ablation_suite(base_config: SearchConfig, seeds: Sequence[int]) -> AblationResult:
    """Run each recipe of ``ABLATION_RECIPES`` over the given seeds and score
    every run's archive trajectory against one shared hypervolume reference
    point."""
    if len(seeds) < 2:
        raise ValueError("ablation needs at least two seeds")
    if base_config.evaluator != "oracle":
        raise ValueError("ablation runs score candidates with the synthetic oracle")
    results = {
        recipe: [
            run_search(replace(base_config, seed=seed, variation=variation, space=space))
            for seed in seeds
        ]
        for recipe, (variation, space) in ABLATION_RECIPES.items()
    }
    ref = default_hv_ref(
        [res.archive_snapshots for runs in results.values() for res in runs]
    )
    curves = {
        recipe: np.stack([res.hv_curve(ref) for res in runs])
        for recipe, runs in results.items()
    }
    return AblationResult(ref=ref, curves=curves, results=results)
