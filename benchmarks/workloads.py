"""The four search workloads: their configs and the inputs set-up writes.

Every input is a function of the benchmark seed.  Set-up writes one search
config per search seed, plus, for ``surrogate-refine``, a synthetic corpus
and a trained encoder checkpoint.  The program then receives only these
files, through ``ihasearch search --config/--corpus/--surrogate``.  The
inputs of each workload's fixed check search (``prepare_check``) are the
one exception: they never depend on the benchmark seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

# Configs written per benchmark seed; a timed loop uses them in order and
# stops long before the last one.
MAX_SEARCH_SEEDS = 64
# Surrogate set-up: corpus rows and encoder epochs, full and --quick.
CORPUS_ROWS = (300, 40)
TRAIN_EPOCHS = (3, 1)
# Search seed of the fixed check search, whose outputs must match
# expected_outputs.json whatever the benchmark seed.
CHECK_SEED = 20260917


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trace_seeds: int  # search seeds that one traced cycle covers

    def base_config(self, quick: bool):
        from ihasearch.search import SearchConfig, ring_preset, surrogate_preset

        oracle = SearchConfig(evaluator="oracle", refine_every_generations=0,
                              backend="analytic:gemmini")
        small = dict(population_size=6, offspring_size=6, generations=3)
        if self.name == "analytic-oracle":
            return replace(oracle, **small) if quick else oracle
        if self.name == "random-iha":
            # the ablation recipe "random_iha" applied to the oracle config,
            # cut to 10 generations: every generation does the same work, and
            # shorter runs give the median more samples per timed window
            cfg = replace(oracle, variation="random", space="iha")
            return replace(cfg, **small) if quick else replace(cfg, generations=10)
        if self.name == "ring-oracle":
            cfg = ring_preset()
            return replace(cfg, population_size=4, offspring_size=4, generations=2) if quick else cfg
        if self.name == "surrogate-refine":
            # The fine-tuning buffer only takes genomes it does not hold yet,
            # and an NSGA population fills up with clones, so under the preset
            # the number of training steps varied threefold between seeds.
            # Random variation keeps the picks distinct; refining 2 picks at
            # t = 1, 2, 3 keeps a run short enough for several per window.
            # Each event fine-tunes for 10 epochs of ceil(buffer / new rows per
            # batch) steps.  With the preset's replay_ratio of 5 a batch takes
            # 5 new rows, so a search ran 30 or 40 steps, depending on whether
            # all 6 picks were distinct; with 4 it takes 6, and every search
            # runs 30.
            cfg = replace(surrogate_preset(), variation="random", refine_every_generations=1,
                          generations=4, refine_batch_size=2, replay_ratio=4.0)
            if quick:
                return replace(cfg, mc_dropout_passes=2, population_size=6, offspring_size=6)
            return cfg
        raise ValueError(f"unknown workload {self.name!r}")

    @property
    def uses_surrogate(self) -> bool:
        return self.name == "surrogate-refine"

    @property
    def reference(self):
        """The fixed computation that search times are divided by (see
        reference.py): the default one follows the interpreter-bound oracle
        searches, the BLAS one the encoder-bound surrogate searches."""
        from reference import blas_reference_work, reference_work

        return blas_reference_work if self.uses_surrogate else reference_work

    def search_seeds(self, seed: int) -> list[int]:
        rng = random.Random(seed)
        return [rng.randrange(2**31) for _ in range(MAX_SEARCH_SEEDS)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analytic-oracle",
                 "default config, oracle, analytic:gemmini: repair, genome ids, "
                 "operators and NSGA survival; half the evaluations repeat a genome",
                 trace_seeds=2),
        Workload("ring-oracle",
                 "ring_preset: chip-grid search and ring packing dominate; "
                 "small population, light NSGA and repair",
                 trace_seeds=4),
        Workload("surrogate-refine",
                 "surrogate_preset, random variation, replay ratio 4, 2 picks refined at "
                 "generations 1-3 of 4: encoder forward/backward and fine_tune; set-up trains "
                 "the encoder",
                 trace_seeds=1),
        Workload("random-iha",
                 "ablation recipe random_iha, 10 generations: every candidate is a "
                 "fresh random genome, so no evaluation repeats (control for caching)",
                 trace_seeds=2),
    )
}


def expected_events(cfg) -> int:
    every = cfg.refine_every_generations
    if every <= 0:
        return 0
    return sum(1 for t in range(cfg.generations) if t > 0 and t % every == 0)


def requested_evaluations(cfg) -> int:
    return cfg.population_size + cfg.offspring_size * cfg.generations


def _surrogate_inputs(out: Path, rows: int, epochs: int, seed: int) -> dict:
    """Write a synthetic corpus and train an encoder on it; return the extra
    CLI file arguments, relative to ``out``."""
    from ihasearch.cli import main
    from ihasearch.surrogate import make_synthetic_corpus, save_corpus

    rng = random.Random(seed ^ 0x5EED)
    corpus_seed, train_seed = rng.randrange(2**31), rng.randrange(2**31)
    corpus = out / "corpus.jsonl"
    genomes, labels = make_synthetic_corpus(rows, seed=corpus_seed)
    save_corpus(str(corpus), genomes, labels)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["surrogate", "train", "--corpus", str(corpus), "--out", str(out / "train"),
                     "--epochs", str(epochs), "--seed", str(train_seed)])
    if code != 0:
        raise RuntimeError(f"surrogate train exited {code}")
    return {"--corpus": "corpus.jsonl", "--surrogate": "train/encoder.npz"}


def prepare(workload: Workload, seed: int, quick: bool, out: Path) -> dict:
    """Write every input of one benchmark run into ``out``; return the plan
    (search seeds, config files and extra CLI file arguments, relative to
    ``out``) as a dict.

    This is the whole of set-up: the caller times it in a fresh process, so
    imports, the first BLAS call and the substrate load are part of it.
    """
    import numpy as np

    import ihasearch.cli  # noqa: F401  (the import is part of set-up)
    from ihasearch.hwcost import load_substrate

    a = np.arange(64 * 64, dtype=float).reshape(64, 64)
    float((a @ a).sum())  # first BLAS call
    base = workload.base_config(quick)
    if base.backend.startswith("analytic:"):
        load_substrate(base.backend.split(":", 1)[1])

    out.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload.name, "seed": seed, "quick": quick, "runs": [], "extra": {}}
    for s in workload.search_seeds(seed):
        name = f"config-{s}.json"
        (out / name).write_text(replace(base, seed=s).to_json() + "\n")
        plan["runs"].append({"search_seed": s, "config": name})
    if workload.uses_surrogate:
        plan["extra"] = _surrogate_inputs(out, CORPUS_ROWS[quick], TRAIN_EPOCHS[quick], seed)
    (out / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True) + "\n")
    return plan


def prepare_check(workload: Workload, out: Path) -> dict:
    """Write the inputs of the workload's fixed check search into ``out``
    and return its plan, with one run.

    The check search is the full workload config with search seed
    ``CHECK_SEED``, cut to 3 generations so that it stays cheap.  For
    ``surrogate-refine`` that is two refinement events, with an encoder
    trained on the small --quick corpus; the first event's fine-tuned model
    scores the last generation, so fine-tuning shows in the outputs.
    Nothing here depends on the benchmark seed or on --quick.
    """
    out.mkdir(parents=True, exist_ok=True)
    cfg = replace(workload.base_config(False), seed=CHECK_SEED, generations=3)
    name = "config.json"
    (out / name).write_text(cfg.to_json() + "\n")
    plan = {"runs": [{"search_seed": CHECK_SEED, "config": name}], "extra": {}}
    if workload.uses_surrogate:
        plan["extra"] = _surrogate_inputs(out, CORPUS_ROWS[True], TRAIN_EPOCHS[True], CHECK_SEED)
    return plan
