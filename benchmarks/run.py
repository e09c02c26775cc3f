#!/usr/bin/env python3
"""Search benchmark: closed-loop ``ihasearch search`` runs, timed in-process.

    python3 benchmarks/run.py --workload analytic-oracle --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

One client, no concurrency: each search starts when the previous one has
returned and its outputs have been checked.  The benchmark seed makes every
input (configs, corpus, checkpoint); set-up writes them several times in
fresh processes, and ``setup_s`` is the median, normalised for host speed
(see reference.py).  Before the timed loop, a fixed search that does not
depend on the benchmark seed must reproduce the output digest in
expected_outputs.json.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced runs of the same inputs and
reports the per-layer metrics.  The last line of standard output is one
JSON object; see README.md in this directory.

    python3 benchmarks/run.py --workload all --seed 0 --record-expected

rewrites expected_outputs.json; do that only in a change that means to
alter the search's outputs.
"""
import os
import sys

# Pin BLAS threads before numpy is imported anywhere in this process or in
# the set-up processes, which inherit the environment.  A second BLAS-heavy
# process on the same cores can slow one encoder step fifty-fold.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_outputs, output_digest  # noqa: E402
from reference import (  # noqa: E402
    DUTY, PROCESS_NOMINAL_S, pooled_reference, reference_process_seconds, reference_times)
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CHECK_SEED, WORKLOADS, expected_events, prepare, prepare_check, requested_evaluations)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected_outputs.json"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 900

# Search times are reported in units of the reference computation timed
# around each run (see reference.py), because raw seconds drift with the
# host; set-up times are normalised by a reference process and scaled back
# to seconds.
# Host-time figures, and the p90 (a window holds too few runs for ten
# samples beyond it), are printed above the result line but not bounded.
END_TO_END = {  # name -> unit
    "search_ref.p50": "ref",
    "search_cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# span names reported as <name>.calls and <name>.self_s, per traced search run
LAYER_FUNCTIONS = (
    "genome.repair",
    "genome.genome_id",
    "genome.random_genome",
    "genome.validate",
    "search.operators.tournament_select",
    "search.operators.crossover",
    "search.operators.mutate",
    "search.nsga.nsga_survival",
    "search.nsga.rank_and_crowd",
    "search.nsga.fast_nondominated_sort",
    "metrics.pareto_front",
    "metrics.hypervolume_2d",
    "surrogate.oracle.synth_oracle",
    "hwcost.substrate.substrate_cost",
    "hwcost.ring.ring_cost",
    "hwcost.ring.chip_grid_search",
    "hwcost.ring.ring_simulate",
    "hwcost.profiles.profile_model",
    "hwcost.packing.balanced_contiguous_pack",
    "hwcost.packing.greedy_contiguous_partition",
    "surrogate.encoder.EncoderSurrogate.forward",
    "surrogate.encoder.EncoderSurrogate.backward",
    "surrogate.encoder.EncoderSurrogate.predict_genomes",
    "surrogate.encoder.EncoderSurrogate.mc_predict_genomes",
    "surrogate.features.featurize_batch",
    "surrogate.training.fine_tune",
    "search.engine.run_search",
    "search.engine.ParetoArchive.update",
    "cli.main",
)
LAYER_EXTRA = {  # name -> unit
    "surrogate.training.train.calls": "count",
    "surrogate.training.train.self_s": "s",
    "surrogate.training.train.total_s": "s",
    "genome.repair.noop_ratio": "ratio",
    "hwcost.packing.greedy_per_pack": "count",
    "hwcost.ring.pack_feasible_ratio": "ratio",
    "surrogate.training.fine_tune.steps": "count",
    "search.engine.unique_eval_ratio": "ratio",
    "search.engine.feasible_ratio": "ratio",
    "trace_overhead_s": "s",
}
PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in LAYER_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **LAYER_EXTRA,
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run from an export that has no .git at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def import_program():
    """Import ihasearch from this checkout's src/, never from elsewhere."""
    if not (SRC / "ihasearch" / "__init__.py").is_file():
        raise BenchError(f"no ihasearch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ihasearch

    if SRC not in Path(ihasearch.__file__).resolve().parents:
        raise BenchError(f"imported ihasearch from {ihasearch.__file__}, not {SRC}")


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def run_setup(args, work: Path):
    """Run set-up ``SETUP_REPS`` times, each in a fresh process, with the
    reference process timed before the first and after each one.

    Returns (wall seconds per repetition, reference seconds per repetition
    (the mean of the reference timed just before and just after it), input
    dir, plan, per-repetition trace summaries).  Every repetition must write
    identical inputs.
    """
    times, refs, digests, traces = [], [], [], []
    ref_before = reference_process_seconds()
    for rep in range(SETUP_REPS):
        out = work / f"inputs-{rep}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare", str(out),
               "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up took longer than {SETUP_TIMEOUT_S} s") from exc
        times.append(time.perf_counter() - t0)
        ref_after = reference_process_seconds()
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        if proc.returncode != 0:
            raise BenchError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        if args.trace:
            traces.append(json.loads((work / f"inputs-{rep}.trace.json").read_text()))
        digests.append(tree_digest(out))
    if len(set(digests)) != 1:
        raise BenchError("set-up repetitions wrote different inputs for one seed")
    inputs = work / "inputs-0"
    return times, refs, inputs, json.loads((inputs / "plan.json").read_text()), traces


def prepare_main(args) -> int:
    import_program()
    out = Path(args.prepare)
    workload = WORKLOADS[args.workload]
    if args.trace:
        with Tracer() as tracer:
            prepare(workload, args.seed, args.quick, out)
        summary = tracer.summary()
        out.with_name(out.name + ".trace.json").write_text(json.dumps(summary))
    else:
        prepare(workload, args.seed, args.quick, out)
    return 0


# --------------------------------------------------------------------------
# the timed loop
# --------------------------------------------------------------------------

class Runner:
    """Runs ``ihasearch search`` in-process on the prepared inputs and checks
    every run's outputs."""

    def __init__(self, plan: dict, inputs: Path, work: Path, reference) -> None:
        from ihasearch.search import SearchConfig

        self.work = work
        self.reference = reference  # timed after each search; see reference.py
        self.extra = [x for flag, rel in sorted(plan["extra"].items())
                      for x in (flag, str(inputs / rel))]
        self.configs = {
            r["search_seed"]: SearchConfig.from_json((inputs / r["config"]).read_text())
            for r in plan["runs"]
        }
        self.config_files = {r["search_seed"]: inputs / r["config"] for r in plan["runs"]}
        self.digests: dict[int, str] = {}
        self.records: list[dict] = []
        self.problems: list[str] = []
        self._n = 0

    def search(self, config_file: Path) -> tuple[int | None, float, float, str, Path]:
        from ihasearch import cli

        self._n += 1
        out = self.work / f"run-{self._n}"
        argv = ["search", "--config", str(config_file), "--out", str(out), *self.extra]
        log = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(argv)
        except Exception as exc:  # a crashing search is a failed run, not a crashed benchmark
            code = None
            log.write(f"{type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return code, wall, cpu, log.getvalue(), out

    def run(self, seed: int, tracer: Tracer | None = None) -> None:
        if tracer is None:
            code, wall, cpu, log, out = self.search(self.config_files[seed])
        else:
            with tracer:
                code, wall, cpu, log, out = self.search(self.config_files[seed])
        refs = reference_times(DUTY * wall, self.reference)
        cfg = self.configs[seed]
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {log.strip()[-500:]}")
        else:
            problems = check_outputs(out, cfg, expected_events(cfg))
            digest = output_digest(out)
            if self.digests.setdefault(seed, digest) != digest:
                problems.append("outputs differ from an earlier run of the same seed")
        shutil.rmtree(out, ignore_errors=True)
        self.problems += [f"seed {seed}: {p}" for p in problems]
        self.records.append({"seed": seed, "wall": wall, "cpu": cpu, "refs": refs,
                             "traced": tracer is not None, "ok": not problems,
                             "evals": requested_evaluations(cfg)})


def timed_loop(runner: Runner, seeds: list[int], trace_seeds: int, seconds: float,
               trace: bool) -> list[dict]:
    """Closed loop of searches for about ``seconds``; returns one trace
    summary per traced run.

    Untraced: each run takes the next search seed, so the median covers
    several seeds; no new seed starts once a typical run would overrun the
    window.  A closing run repeats the first seed, and its outputs must be
    byte-identical.  Traced: whole cycles of an untraced and a traced run of
    each of the first ``trace_seeds`` seeds, so per-run call counts do not
    depend on how many cycles fit.
    """
    t_start = time.perf_counter()
    summaries = []
    if trace:
        while True:
            t_cycle = time.perf_counter()
            for seed in seeds[:trace_seeds]:
                runner.run(seed)
                tracer = Tracer()
                runner.run(seed, tracer)
                summaries.append(tracer.summary())
            now = time.perf_counter()
            if now - t_start + (now - t_cycle) > seconds:
                return summaries
    for i, seed in enumerate(seeds):
        runner.run(seed)
        elapsed = time.perf_counter() - t_start
        if i + 1 == len(seeds) or elapsed + elapsed / (i + 1) > seconds:
            break
    runner.run(seeds[0])
    return summaries


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def reference_seconds(records: list[dict]) -> float:
    return pooled_reference([t for r in records for t in r["refs"]])


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def unbounded_figures(records: list[dict]) -> dict:
    """Printed for reading, not bounded: host-time figures drift with the
    host, and a p90 needs more runs than one window holds."""
    walls = [r["wall"] for r in records]
    return {
        "search_s.p50": (statistics.median(walls), "s"),
        "search_s.p90": (p90(walls), "s"),
        "search_ref.p90": (p90(walls) / reference_seconds(records), "ref"),
        "evals_per_s": (statistics.median(r["evals"] / r["wall"] for r in records), "1/s"),
        "search_cpu_s": (statistics.median(r["cpu"] for r in records), "s"),
        "reference_s": (reference_seconds(records), "s"),
    }


def run_check(workload, work: Path) -> tuple[Runner, str | None]:
    """Run the workload's fixed check search once, untimed.

    Returns its runner and one sha256 over the search's inputs (config, and
    for surrogate-refine the corpus and the trained checkpoint, so training
    arithmetic counts too) and its outputs; None if the search failed.  In a
    measuring process this is also the warm-up: lazy imports and first calls
    happen here, before the timed loop.
    """
    plan = prepare_check(workload, work)
    inputs = tree_digest(work)
    runner = Runner(plan, work, work, workload.reference)
    runner.run(CHECK_SEED)
    outputs = runner.digests.get(CHECK_SEED)
    if outputs is None:
        return runner, None
    return runner, hashlib.sha256(f"{inputs} {outputs}".encode()).hexdigest()


def record_expected(args) -> int:
    """Write the check searches' output digests to expected_outputs.json."""
    import_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {"sha256": {}}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=work_root) as tmp:
        for name in names:
            check, digest = run_check(WORKLOADS[name], Path(tmp) / name)
            if check.problems:
                raise BenchError(f"{name}: {check.problems[0]}")
            data["sha256"][name] = digest
            print(f"{name} sha256 {data['sha256'][name]}")
    with contextlib.suppress(OSError):
        work_root.rmdir()
    data["check_seed"] = CHECK_SEED
    data["environment"] = environment()
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def end_to_end_metrics(records: list[dict], ref: float, setup_times: list[float],
                       setup_refs: list[float]) -> dict:
    values = {
        "search_ref.p50": statistics.median(r["wall"] for r in records) / ref,
        "search_cpu_ref": statistics.median(r["cpu"] for r in records) / ref,
        "setup_s": statistics.median(t / r for t, r in zip(setup_times, setup_refs))
        * PROCESS_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer_metrics(summaries: list[dict], setup_traces: list[dict],
                      records: list[dict]) -> dict:
    n = len(summaries)
    calls, self_s = {}, {}
    noops = packs_feasible = 0
    unique = feasible = evaluated = requested = 0
    for summary in summaries:
        for name, c in summary["calls"].items():
            calls[name] = calls.get(name, 0) + c
            self_s[name] = self_s.get(name, 0.0) + summary["self_s"][name]
        noops += summary["repair_noops"]
        packs_feasible += summary["packs_feasible"]
        for search in summary["searches"]:
            unique += search["unique"]
            feasible += search["feasible"]
            evaluated += search["evaluated"]
            requested += requested_evaluations(search["config"])

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for fn in LAYER_FUNCTIONS:
        values[f"{fn}.calls"] = calls.get(fn, 0) / n
        values[f"{fn}.self_s"] = self_s.get(fn, 0.0) / n
    train = "surrogate.training.train"
    reps = len(setup_traces)
    values[f"{train}.calls"] = sum(t["calls"].get(train, 0) for t in setup_traces) / reps
    values[f"{train}.self_s"] = sum(t["self_s"].get(train, 0.0) for t in setup_traces) / reps
    values[f"{train}.total_s"] = sum(t["total_s"].get(train, 0.0) for t in setup_traces) / reps
    values["genome.repair.noop_ratio"] = ratio(noops, calls.get("genome.repair", 0))
    packs = calls.get("hwcost.packing.balanced_contiguous_pack", 0)
    values["hwcost.packing.greedy_per_pack"] = ratio(
        calls.get("hwcost.packing.greedy_contiguous_partition", 0), packs)
    values["hwcost.ring.pack_feasible_ratio"] = ratio(packs_feasible, packs)
    # every loss_and_grads call in a search process is a fine-tuning step
    values["surrogate.training.fine_tune.steps"] = ratio(
        calls.get("surrogate.encoder.EncoderSurrogate.loss_and_grads", 0),
        calls.get("surrogate.training.fine_tune", 0))
    values["search.engine.unique_eval_ratio"] = ratio(unique, requested)
    values["search.engine.feasible_ratio"] = ratio(feasible, evaluated)
    traced = [r["wall"] for r in records if r["traced"]]
    untraced = [r["wall"] for r in records if not r["traced"]]
    values["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_workload(args) -> int:
    import_program()
    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    expected = json.loads(EXPECTED.read_text())["sha256"].get(args.workload)
    try:
        setup_times, setup_refs, inputs, plan, setup_traces = run_setup(args, work)
        check, digest = run_check(workload, work / "check")
        if digest != expected:
            check.records[0]["ok"] = False
            check.problems.append(f"check search sha256 {digest} differs from "
                                  f"{EXPECTED.name}, which holds {expected}")
        runner = Runner(plan, inputs, work, workload.reference)
        seeds = [r["search_seed"] for r in plan["runs"]]
        t0 = time.perf_counter()
        summaries = timed_loop(runner, seeds, workload.trace_seeds,
                               args.seconds, bool(args.trace))
        elapsed = time.perf_counter() - t0
        records = runner.records
        ref = reference_seconds(records)
        if args.trace:
            metrics = per_layer_metrics(summaries, setup_traces, records)
        else:
            metrics = end_to_end_metrics(records, ref, setup_times, setup_refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    # the check search counts as one more attempted run
    attempted = len(records) + 1
    failed = sum(not r["ok"] for r in records + check.records)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: {len(records)} search runs in {elapsed:.1f} s, "
          f"set-up {', '.join(f'{t:.3f}' for t in setup_times)} s, "
          f"reference process {', '.join(f'{r:.3f}' for r in setup_refs)} s")
    print(f"# check search seed {CHECK_SEED} in {check.records[0]['wall']:.2f} s, "
          f"sha256 {digest}")
    print("# search_ref per run: " + ", ".join(
        f"{r['seed']}:{r['wall'] / ref:.1f}" for r in records))
    for problem in (check.problems + runner.problems)[:20]:
        print(f"# FAILED {problem}")
    print(f"error_rate = {failed / attempted!r} ratio ({failed} of {attempted} runs)")
    print(f"setup_wall_s = {statistics.median(setup_times)!r} s "
          f"(unbounded, {len(setup_times)} set-ups)")
    for name, (value, unit) in unbounded_figures(records).items():
        print(f"{name} = {value!r} {unit} (unbounded, {len(records)} runs)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one table at the end."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    width = max(map(len, names + ["error_rate"]))
    print(f"{'metric':<{width}} {'unit':>6} " + " ".join(f"{w:>16}" for w in results))
    rates = [r["failed"] / r["attempted"] for r in results.values()]
    print(f"{'error_rate':<{width}} {'ratio':>6} " + " ".join(f"{v:>16.4g}" for v in rates))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        row = [r["metrics"][name]["value"] for r in results.values()]
        print(f"{name:<{width}} {unit:>6} " + " ".join(f"{v:>16.6g}" for v in row))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny configs and corpus: checks the schema, not the speed")
    parser.add_argument("--record-expected", action="store_true",
                        help="run only the check searches and write their digests to "
                             "expected_outputs.json")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.prepare:
            return prepare_main(args)
        if args.record_expected:
            return record_expected(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
