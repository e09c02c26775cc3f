"""Spans around calls into ihasearch's public functions, recorded from outside.

Each probe replaces one function at the module (or class) attribute its
caller looks up at call time, for example ``ihasearch.search.engine.repair``
or ``EncoderSurrogate.forward``.  A wrapped call records one span
``(span_id, parent_id, name, t0, t1)``; spans stay in memory until
``summary()`` turns them into calls and self time per name.  Self time is a
span's duration minus the durations of its direct child spans.

Nothing under ``src/`` is edited: ``Tracer.install()`` swaps the attributes
and ``Tracer.restore()`` puts the originals back.
"""
from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter, defaultdict

# (module or "module:Class", attribute, span name).  One function can be
# looked up through several modules; every lookup site gets its own wrapper
# with the same span name, and a call passes through exactly one of them.
SPAN_PROBES = (
    ("ihasearch.search.engine", "repair", "genome.repair"),
    ("ihasearch.search.operators", "repair", "genome.repair"),
    ("ihasearch.genome", "repair", "genome.repair"),
    ("ihasearch.search.engine", "genome_id", "genome.genome_id"),
    ("ihasearch.search.engine", "random_genome", "genome.random_genome"),
    ("ihasearch.search.engine", "validate", "genome.validate"),
    ("ihasearch.search.engine", "tournament_select", "search.operators.tournament_select"),
    ("ihasearch.search.engine", "crossover", "search.operators.crossover"),
    ("ihasearch.search.engine", "mutate", "search.operators.mutate"),
    ("ihasearch.search.engine", "nsga_survival", "search.nsga.nsga_survival"),
    ("ihasearch.search.engine", "rank_and_crowd", "search.nsga.rank_and_crowd"),
    ("ihasearch.search.nsga", "rank_and_crowd", "search.nsga.rank_and_crowd"),
    ("ihasearch.search.engine", "fast_nondominated_sort", "search.nsga.fast_nondominated_sort"),
    ("ihasearch.search.nsga", "fast_nondominated_sort", "search.nsga.fast_nondominated_sort"),
    ("ihasearch.search.engine", "pareto_front", "metrics.pareto_front"),
    ("ihasearch.search.engine", "hypervolume_2d", "metrics.hypervolume_2d"),
    ("ihasearch.search.engine", "synth_oracle", "surrogate.oracle.synth_oracle"),
    ("ihasearch.search.engine", "substrate_cost", "hwcost.substrate.substrate_cost"),
    ("ihasearch.search.engine", "ring_cost", "hwcost.ring.ring_cost"),
    ("ihasearch.hwcost.ring", "chip_grid_search", "hwcost.ring.chip_grid_search"),
    ("ihasearch.hwcost.ring", "ring_simulate", "hwcost.ring.ring_simulate"),
    ("ihasearch.hwcost.ring", "profile_model", "hwcost.profiles.profile_model"),
    ("ihasearch.hwcost.substrate", "profile_model", "hwcost.profiles.profile_model"),
    ("ihasearch.hwcost.ring", "balanced_contiguous_pack", "hwcost.packing.balanced_contiguous_pack"),
    ("ihasearch.hwcost.packing", "greedy_contiguous_partition",
     "hwcost.packing.greedy_contiguous_partition"),
    ("ihasearch.surrogate.encoder:EncoderSurrogate", "forward",
     "surrogate.encoder.EncoderSurrogate.forward"),
    ("ihasearch.surrogate.encoder:EncoderSurrogate", "backward",
     "surrogate.encoder.EncoderSurrogate.backward"),
    ("ihasearch.surrogate.encoder:EncoderSurrogate", "loss_and_grads",
     "surrogate.encoder.EncoderSurrogate.loss_and_grads"),
    ("ihasearch.surrogate.encoder:EncoderSurrogate", "predict_genomes",
     "surrogate.encoder.EncoderSurrogate.predict_genomes"),
    ("ihasearch.surrogate.encoder:EncoderSurrogate", "mc_predict_genomes",
     "surrogate.encoder.EncoderSurrogate.mc_predict_genomes"),
    ("ihasearch.surrogate.training", "featurize_batch", "surrogate.features.featurize_batch"),
    ("ihasearch.surrogate.features", "featurize_batch", "surrogate.features.featurize_batch"),
    ("ihasearch.search.engine", "fine_tune", "surrogate.training.fine_tune"),
    ("ihasearch.cli", "train", "surrogate.training.train"),
    ("ihasearch.cli", "run_search", "search.engine.run_search"),
    ("ihasearch.search.engine:ParetoArchive", "update", "search.engine.ParetoArchive.update"),
    ("ihasearch.cli", "main", "cli.main"),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Span recorder for one or more traced search runs.

    Besides spans it keeps what the ratio metrics need, collected in the
    wrappers after the span has closed: each repair call's input and output
    (compared only in ``summary()``, outside any span), how many ring packs
    found a plan, and the ``SearchResult`` of every ``run_search`` call.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.repair_pairs: list[tuple] = []
        self.packs_feasible = 0
        self.results: list = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target, attr, name in SPAN_PROBES:
            owner = _resolve(target)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, original, name: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        observe = {
            "genome.repair": lambda args, out: self.repair_pairs.append((args[0], out)),
            "hwcost.packing.balanced_contiguous_pack": self._observe_pack,
            "search.engine.run_search": lambda args, out: self.results.append(out),
        }.get(name)

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            t0 = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, name, t0, t1))
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _observe_pack(self, args, out) -> None:
        if out is not None:
            self.packs_feasible += 1

    def summary(self) -> dict:
        """Calls, self seconds and inclusive seconds per span name, plus the
        raw counts the ratio metrics are built from.  Small enough to keep
        for every traced run once the tracer itself is dropped."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child_time[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for span_id, _, name, t0, t1 in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[span_id]
            total_s[name] += t1 - t0
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "repair_noops": sum(a == b for a, b in self.repair_pairs),
            "packs_feasible": self.packs_feasible,
            "searches": [
                {"config": res.config,
                 "evaluated": len(res.evaluated),
                 "unique": len({ind.gid for ind in res.evaluated}),
                 "feasible": sum(ind.feasible for ind in res.evaluated)}
                for res in self.results
            ],
        }
