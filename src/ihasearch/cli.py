"""Command-line interface.

Subcommands
    search      run the NSGA-II loop from a JSON config and write artifacts
    pack        chip-grid co-search + ring packing report for one genome
    surrogate   train / eval / mc-predict the encoder surrogate
    count       design-space sizes and the decoupling expansion ratio
    check-iha   numerical property suite for the attention reference kernel

Exit codes: 0 success, 2 input/config error, 3 runtime or backend error.
All artifacts are deterministic functions of flags + seed, so re-running a
manifest reproduces every output byte for byte.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .attention import attention_rows_stochastic, iha_forward, random_weights, replicate_kv_groups
from .genome import (
    MAX_EXACT_INT,
    GlobalConfig,
    LayerGene,
    Violation,
    count_attention_configs,
    from_dict,
    from_json,
    genome_id,
    parse_json,
    to_json,
    validate,
)
from .hwcost import (
    DEFAULT_CHIP_GRID,
    GRID_AXES,
    ChipGrid,
    Workload,
    best_ring_pick,
    chip_grid_search,
    write_plan_csv,
)
from .metrics import rank_report
from .search import SearchConfig, run_search
from .surrogate import (
    EncoderConfig,
    EncoderSurrogate,
    parse_corpus_row,
    split_corpus,
    train,
)

log = logging.getLogger("ihasearch")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class InputError(Exception):
    """User-facing input problem: bad config, bad file, refused overwrite."""


def _prepare_out_dir(out: str, force: bool) -> Path:
    """Create a subcommand's output directory; refuse to clobber a prior manifest."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.json"
    if manifest.exists() and not force:
        raise InputError(f"{manifest} already exists; pass --force to overwrite the run")
    return out_dir


def _write_manifest(out_dir: Path, payload: dict) -> None:
    payload = dict(payload, version=__version__)
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Flag types: a value out of range is a usage error (exit 2), not a crash
# or a vacuous run later on.

def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text!r}")
        return value
    return parse


def _finite_float_in(lo: float, hi: float):
    """A finite float strictly between lo and hi."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and lo < value < hi):
            raise argparse.ArgumentTypeError(
                f"must be a finite number in ({lo:g}, {hi:g}), got {text!r}")
        return value
    return parse


_POSITIVE_INT = _int_at_least(1)
_NON_NEGATIVE_INT = _int_at_least(0)
_FRACTION = _finite_float_in(0.0, 1.0)
_POSITIVE_FLOAT = _finite_float_in(0.0, math.inf)


def _read_json_file(path: str, what: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        return parse_json(text)
    except ValueError as exc:
        raise InputError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _fmt(value) -> str:
    """CSV cell: repr for floats (shortest round-trip), str otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

def _load_search_config(args) -> SearchConfig:
    doc = _read_json_file(args.config, "search config")
    try:
        cfg = SearchConfig.from_dict(doc)
    except ValueError as exc:
        raise InputError(f"bad search config: {exc}") from exc
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.evaluator is not None:
        overrides["evaluator"] = args.evaluator
    if overrides:
        try:
            cfg = dataclasses.replace(cfg, **overrides)
        except ValueError as exc:
            raise InputError(f"bad override: {exc}") from exc
    return cfg


def _color_ramp(frac: float) -> str:
    """Blue (cool / low) to red (hot / high)."""
    frac = min(max(frac, 0.0), 1.0)
    lo, hi = (33, 102, 172), (178, 24, 43)
    r, g, b = (round(a + frac * (b_ - a)) for a, b_ in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def _scaled(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi <= lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def front_scatter_svg(members) -> str:
    """Final-front scatter: x=val_loss, y=energy/token, colour=TTFT,
    size=TPOT.  Hand-rolled SVG so runs have no plotting dependency."""
    width, height = 640, 480
    mx0, mx1, my0, my1 = 70, 610, 420, 40  # plot box: x left/right, y bottom/top
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{mx0}" y="{my1}" width="{mx1 - mx0}" height="{my0 - my1}" '
        'fill="none" stroke="#444"/>',
        '<text x="320" y="470" text-anchor="middle" font-size="13">validation loss</text>',
        f'<text x="16" y="230" font-size="13" transform="rotate(-90 16 230)" '
        'text-anchor="middle">energy per token [J]</text>',
        '<text x="320" y="24" text-anchor="middle" font-size="14">'
        "final Pareto front (colour = TTFT, size = TPOT)</text>",
    ]
    if not members:
        head.append(
            '<text x="320" y="240" text-anchor="middle" font-size="14" fill="#888">'
            "no feasible architectures</text>"
        )
        head.append("</svg>")
        return "\n".join(head) + "\n"

    xs = [m.val_loss for m in members]
    ys = [m.e_tok_j for m in members]
    ttft = [m.ttft_s for m in members]
    tpot = [m.tpot_s for m in members]

    def x_px(fx: float) -> float:
        return mx0 + fx * (mx1 - mx0)

    def y_px(fy: float) -> float:
        return my0 - fy * (my0 - my1)

    for axis, (vals, to_px, anchor) in enumerate(
        [(xs, x_px, "x"), (ys, y_px, "y")]
    ):
        lo, hi = min(vals), max(vals)
        span = hi - lo if hi > lo else 1.0
        for i in range(5):
            v = lo + span * i / 4
            frac = (v - lo) / span
            if anchor == "x":
                px = to_px(frac)
                head.append(
                    f'<line x1="{px:.1f}" y1="{my0}" x2="{px:.1f}" y2="{my0 + 5}" stroke="#444"/>'
                )
                head.append(
                    f'<text x="{px:.1f}" y="{my0 + 18}" text-anchor="middle" '
                    f'font-size="11">{v:.4g}</text>'
                )
            else:
                py = to_px(frac)
                head.append(
                    f'<line x1="{mx0 - 5}" y1="{py:.1f}" x2="{mx0}" y2="{py:.1f}" stroke="#444"/>'
                )
                head.append(
                    f'<text x="{mx0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
                    f'font-size="11">{v:.3g}</text>'
                )
    fx = _scaled(xs)
    fy = _scaled(ys)
    fc = _scaled(ttft)
    fs = _scaled(tpot)
    for i in range(len(members)):
        r = 4.0 + 8.0 * fs[i]
        head.append(
            f'<circle cx="{x_px(fx[i]):.1f}" cy="{y_px(fy[i]):.1f}" r="{r:.1f}" '
            f'fill="{_color_ramp(fc[i])}" fill-opacity="0.8" stroke="#333"/>'
        )
    head.append(
        f'<text x="{mx1 - 4}" y="{my1 + 16}" text-anchor="end" font-size="11">'
        f"TTFT {min(ttft):.3g}s→{max(ttft):.3g}s (blue→red); "
        f"TPOT {min(tpot):.3g}s→{max(tpot):.3g}s (small→large)</text>"
    )
    head.append("</svg>")
    return "\n".join(head) + "\n"


def cmd_search(args) -> int:
    cfg = _load_search_config(args)
    out_dir = _prepare_out_dir(args.out, args.force)

    surrogate = None
    corpus = None
    if cfg.evaluator == "surrogate":
        if args.surrogate is None:
            raise InputError("evaluator='surrogate' needs --surrogate <checkpoint.npz>")
        surrogate = _load_model_checked(args.surrogate)
        space = GlobalConfig().max_layers  # every search genome has this many genes
        if surrogate.config.max_layers < space:
            raise InputError(f"checkpoint {args.surrogate!r} reads at most "
                             f"{surrogate.config.max_layers} layers; search genomes have {space}")
    if cfg.refine_every_generations > 0:  # refinement needs the surrogate evaluator
        if args.corpus is None:
            raise InputError("refinement (refine_every_generations > 0) needs --corpus")
        genomes, labels = _load_corpus_checked(args.corpus, surrogate.config.max_layers)
        corpus = _split_checked(genomes, labels, args.test_frac, args.split_seed, min_test=0)

    log.info("search: %s evaluator, %s backend, seed %d",
             cfg.evaluator, cfg.backend, cfg.seed)
    res = run_search(cfg, surrogate=surrogate, corpus=corpus)

    # byte-identical artifacts hold within one numeric stack, so a search
    # manifest names the numpy and scipy versions it ran on
    _write_manifest(out_dir, {"subcommand": "search", "config": cfg.to_dict(),
                               "seed": cfg.seed, "numpy": np.__version__,
                               "scipy": scipy.__version__})
    _write_csv(
        out_dir / "generations.csv",
        ["gen", "best_val_loss", "archive_size", "hypervolume"],
        [
            [row["generation"], float(row["best_val_loss"]), row["archive_size"],
             float(row["hypervolume"])]
            for row in res.stats
        ],
    )
    _write_csv(
        out_dir / "archive.csv",
        ["genome_id", "val_loss", "e_tok_j", "ttft_s", "tpot_s", "feasible"],
        [
            [ind.gid, ind.val_loss, ind.e_tok_j, ind.ttft_s, ind.tpot_s, ind.feasible]
            for ind in res.archive.members
        ],
    )
    gdir = out_dir / "genomes"
    gdir.mkdir(exist_ok=True)
    for ind in res.archive.members:
        (gdir / f"{ind.gid}.json").write_text(to_json(ind.genome) + "\n")
    with open(out_dir / "events.jsonl", "w") as fh:
        for event in res.events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    (out_dir / "front.svg").write_text(front_scatter_svg(res.archive.members))

    print(f"search done: {res.n_evaluations} evaluations, "
          f"archive {len(res.archive)}, events {len(res.events)}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


# --------------------------------------------------------------------------
# pack
# --------------------------------------------------------------------------

def _require_valid(genome, where: str):
    """The genome, unless ``validate`` finds a problem or a global dim is
    above 2**53, past which the cost models' float arithmetic is not exact:
    then an input error that lists them all."""
    problems = validate(genome)
    problems += [Violation(None, name, "must be <= 2**53")
                 for name, value in dataclasses.asdict(genome.global_cfg).items()
                 if value > MAX_EXACT_INT]
    if problems:
        details = "; ".join(str(p) for p in problems)
        raise InputError(f"{where} is invalid: {details}")
    return genome


def _load_genome_checked(path: str):
    doc = _read_json_file(path, "genome")
    try:
        genome = from_dict(doc)
    except ValueError as exc:
        raise InputError(f"genome {path!r} does not parse: {exc}") from exc
    return _require_valid(genome, f"genome {path!r}")


def _load_genome_rows(path: str, what: str, parse, max_active: int) -> list[tuple]:
    """parse(line) of every non-blank line of a JSONL file: a tuple whose
    first item is a genome.  A line that does not parse, holds an invalid
    genome or one with more than max_active active layers (the encoder's
    token budget) is an input error that names the line."""
    rows = []
    try:
        with open(path) as fh:
            for n, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                where = f"line {n} of {what} {path!r}"
                try:
                    row = parse(line)
                except ValueError as exc:
                    raise InputError(f"{where} does not parse: {exc}") from exc
                _require_valid(row[0], where)
                n_active = sum(gene.mask for gene in row[0].layers)
                if n_active > max_active:
                    raise InputError(f"{where} has {n_active} active layers; "
                                     f"the encoder reads at most {max_active}")
                rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    return rows


def _load_grid(path: str | None) -> ChipGrid:
    if path is None:
        return DEFAULT_CHIP_GRID
    doc = _read_json_file(path, "chip grid")
    if not isinstance(doc, dict):
        raise InputError("chip grid file must hold a JSON object")
    axes = []
    for name in GRID_AXES:
        if name not in doc:
            raise InputError(f"chip grid file needs key {name!r}")
        values = doc[name]
        if not isinstance(values, list):
            raise InputError(f"chip grid {name} must be a list, got {values!r}")
        axes.append(values)
    try:
        grid = ChipGrid(itertools.product(*axes))
    except ValueError as exc:
        raise InputError(f"chip grid {exc}") from None
    if not grid.points:
        raise InputError("chip grid file describes an empty grid")
    return grid


def cmd_pack(args) -> int:
    genome = _load_genome_checked(args.genome)
    grid = _load_grid(args.grid)
    try:
        workload = Workload(args.prefill_tokens, args.decode_tokens)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    out_dir = _prepare_out_dir(args.out, args.force)

    picks, n_feasible = chip_grid_search(genome, workload, grid=grid, top_k=args.top_k)
    print(f"grid: {len(grid.points)} chip configs, {n_feasible} feasible "
          f"for genome {genome_id(genome)}")
    if not picks:
        print("warning: no chip configuration fits this model; nothing to pack")
        _write_manifest(out_dir, _pack_manifest(args, genome, grid, workload))
        return EXIT_OK

    header = (f"{'n_mac':>6} {'w_core_kb':>10} {'n_cores':>8} {'n_chips':>8} "
              f"{'cap':>4} {'ttft_s':>11} {'tpot_s':>11} {'e_tok_j':>11} {'area':>8}")
    print(header)
    for r in picks:
        print(f"{r.chip.n_mac:>6} {r.chip.w_core_kb:>10} {r.chip.n_cores:>8} "
              f"{r.plan.n_chips:>8} {r.n_chips_max:>4} {r.cost.ttft_s:>11.4g} "
              f"{r.cost.tpot_s:>11.4g} {r.cost.e_tok_j:>11.4g} {r.total_area:>8.4g}")

    best = best_ring_pick(picks)
    plan_path = out_dir / "ring_plan.csv"
    write_plan_csv(best.plan, workload, str(plan_path))
    _write_manifest(out_dir, _pack_manifest(args, genome, grid, workload))
    print(f"wrote {plan_path} ({best.plan.n_chips} chips, "
          f"{best.chip.n_cores} cores/chip)")
    return EXIT_OK


def _pack_manifest(args, genome, grid, workload) -> dict:
    return {
        "subcommand": "pack",
        "genome_id": genome_id(genome),
        "genome": json.loads(to_json(genome)),
        "grid": [list(t) for t in grid.points],
        "prefill_tokens": workload.prefill_tokens,
        "decode_tokens": workload.decode_tokens,
        "top_k": args.top_k,
    }


# --------------------------------------------------------------------------
# surrogate
# --------------------------------------------------------------------------

def _load_corpus_checked(path: str, max_active: int):
    rows = _load_genome_rows(path, "corpus", parse_corpus_row, max_active)
    return [g for g, _ in rows], np.array([y for _, y in rows])


def _split_checked(genomes, labels, test_frac: float, seed: int, min_test: int = 2):
    """split_corpus, with its errors and a held-out split of fewer than
    min_test rows as input errors (train and eval need 2 held-out rows)."""
    try:
        corpus = split_corpus(genomes, labels, test_frac=test_frac, seed=seed)
    except ValueError as exc:
        raise InputError(f"cannot split corpus: {exc}") from exc
    if len(corpus.test_idx) < min_test:
        raise InputError(
            f"held-out split has {len(corpus.test_idx)} rows; need >= {min_test} "
            "(more data or a larger --test-frac)"
        )
    return corpus


def cmd_surrogate_train(args) -> int:
    genomes, labels = _load_corpus_checked(args.corpus, EncoderConfig().max_layers)
    corpus = _split_checked(genomes, labels, args.test_frac, args.split_seed)
    if len(corpus.train_idx) == 0:
        raise InputError("train split is empty (more data or a smaller --test-frac)")
    out_dir = _prepare_out_dir(args.out, args.force)

    model, history = train(corpus, epochs=args.epochs, batch_size=args.batch_size,
                           lr=args.lr, seed=args.seed)
    ckpt = out_dir / "encoder.npz"
    model.save(str(ckpt))
    _write_csv(
        out_dir / "curve.csv",
        ["epoch", "train_l1", "test_l1"],
        [[e, float(tr), float(te)]
         for e, (tr, te) in enumerate(zip(history.train_l1, history.test_l1))],
    )
    corpus_sha = hashlib.sha1(Path(args.corpus).read_bytes()).hexdigest()
    _write_manifest(out_dir, {
        "subcommand": "surrogate-train",
        "corpus_sha1": corpus_sha,
        "n_corpus": len(genomes),
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "seed": args.seed,
        "test_frac": args.test_frac,
        "split_seed": args.split_seed,
    })
    print(f"trained encoder: {model.param_count():,} parameters, "
          f"best epoch {history.best_epoch}, "
          f"test L1 {history.test_l1[history.best_epoch]!r}")
    print(f"checkpoint {ckpt}")
    return EXIT_OK


def _load_model_checked(path: str) -> EncoderSurrogate:
    """The one checkpoint loader of search, surrogate eval and surrogate mc."""
    try:
        model = EncoderSurrogate.load(path)
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"checkpoint {path!r} does not parse: {exc}") from exc
    if model.normalizer is None:
        raise InputError(f"checkpoint {path!r} has no fitted normalizer")
    return model


def cmd_surrogate_eval(args) -> int:
    model = _load_model_checked(args.checkpoint)
    genomes, labels = _load_corpus_checked(args.corpus, model.config.max_layers)
    corpus = _split_checked(genomes, labels, args.test_frac, args.split_seed)
    test_genomes = [corpus.genomes[i] for i in corpus.test_idx]
    truth = corpus.labels[corpus.test_idx]
    pred = model.predict_genomes(test_genomes)
    report = rank_report(pred, truth)
    print(f"encoder parameters: {model.param_count():,}")
    print(f"held-out rows: {len(test_genomes)}")
    for key in sorted(report):
        print(f"{key}: {report[key]!r}")
    return EXIT_OK


def cmd_surrogate_mc(args) -> int:
    model = _load_model_checked(args.checkpoint)
    rows = _load_genome_rows(args.genomes, "genome list", lambda line: (from_json(line),),
                             model.config.max_layers)
    genomes = [row[0] for row in rows]
    if not genomes:
        raise InputError(f"genome list {args.genomes!r} is empty")
    mu, sigma = model.mc_predict_genomes(genomes, n_mc=args.n_mc, seed=args.mc_seed)
    print("genome_id,mu,sigma")
    for g, m, s in zip(genomes, mu, sigma):
        print(f"{genome_id(g)},{float(m)!r},{float(s)!r}")
    return EXIT_OK


# --------------------------------------------------------------------------
# count / check-iha
# --------------------------------------------------------------------------

def cmd_count(args) -> int:
    gqa = count_attention_configs("gqa", d_model=args.d_model)
    iha = count_attention_configs("iha", d_model=args.d_model)
    if gqa == 0:
        print(f"GQA: 0, IHA: {iha}, ratio undefined (no GQA configs at "
              f"d_model={args.d_model})")
        return EXIT_OK
    print(f"GQA: {gqa}, IHA: {iha}, ratio ≈ {iha / gqa:.1f}×")
    return EXIT_OK


def run_kernel_property_suite(trials: int = 25, seed: int = 0,
                              d_model: int = 96, t_len: int = 12) -> dict[str, float]:
    """Worst observed error per property over random genes and inputs.

    Properties: KV-group replication equivalence (grouped attention equals
    the explicitly replicated per-head form), probability rows stochastic
    with a strictly causal support, future-token invariance, the attn=0
    identity bypass, and bit-level determinism.
    """
    rng = np.random.default_rng(seed)
    worst = {
        "grouped_kv_replication_equivalence": 0.0,
        "rows_stochastic_causal": 0.0,
        "future_token_invariance": 0.0,
        "attn_gate_identity": 0.0,
        "determinism": 0.0,
    }
    for _ in range(trials):
        n_h = int(rng.integers(1, 7))
        divisors = [d for d in range(1, n_h + 1) if n_h % d == 0]
        n_kv = int(divisors[rng.integers(len(divisors))])
        d_qk = int(rng.choice([8, 16, 32]))
        d_v = int(rng.choice([8, 16, 32]))
        gene = LayerGene(1, 1, n_h, n_kv, d_qk, d_v, 64)
        w = random_weights(gene, d_model, rng)
        x = rng.normal(size=(t_len, d_model))

        gene_rep = LayerGene(1, 1, n_h, n_h, d_qk, d_v, 64)
        out = iha_forward(x, gene, w)
        out_rep = iha_forward(x, gene_rep, replicate_kv_groups(gene, w))
        worst["grouped_kv_replication_equivalence"] = max(
            worst["grouped_kv_replication_equivalence"], float(np.abs(out - out_rep).max())
        )

        _, probs = iha_forward(x, gene, w, return_probs=True)
        stoch_err = 0.0 if attention_rows_stochastic(probs) else 1.0
        future = np.triu(np.ones((t_len, t_len)), k=1).astype(bool)
        stoch_err = max(stoch_err, float(np.abs(probs[:, future]).max()))
        worst["rows_stochastic_causal"] = max(worst["rows_stochastic_causal"], stoch_err)

        cut = t_len // 2
        x2 = x.copy()
        x2[cut:] += rng.normal(size=(t_len - cut, d_model))
        out2 = iha_forward(x2, gene, w)
        worst["future_token_invariance"] = max(
            worst["future_token_invariance"], float(np.abs(out[:cut] - out2[:cut]).max())
        )

        gene_off = LayerGene(1, 0, n_h, n_kv, d_qk, d_v, 64)
        worst["attn_gate_identity"] = max(
            worst["attn_gate_identity"], float(np.abs(iha_forward(x, gene_off, w) - x).max())
        )

        worst["determinism"] = max(
            worst["determinism"], float(np.abs(iha_forward(x, gene, w) - out).max())
        )
    return worst


def cmd_check_iha(args) -> int:
    worst = run_kernel_property_suite(trials=args.trials, seed=args.seed)
    all_ok = True
    for name, err in worst.items():
        ok = err < args.tol
        all_ok &= ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} (worst |err| = {err:.3e})")
    print(f"kernel property suite: {'PASS' if all_ok else 'FAIL'} "
          f"({args.trials} trials, tol {args.tol:g})")
    return EXIT_OK if all_ok else EXIT_RUNTIME


# --------------------------------------------------------------------------
# parser / entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ihasearch",
        description="Hardware-aware evolutionary search over decoupled-attention "
                    "transformer architectures.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("search", help="run an NSGA-II search from a JSON config")
    p.add_argument("--config", required=True, help="SearchConfig JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--backend", default=None,
                   help="override backend: analytic:NAME or ring")
    p.add_argument("--evaluator", default=None,
                   help="override evaluator: surrogate or oracle")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing run manifest")
    p.add_argument("--surrogate", default=None,
                   help="encoder checkpoint (.npz); required for evaluator=surrogate")
    p.add_argument("--corpus", default=None,
                   help="labeled corpus JSONL; required when refinement is enabled")
    p.add_argument("--test-frac", type=_FRACTION, default=0.2,
                   help="held-out fraction when splitting --corpus")
    p.add_argument("--split-seed", type=_NON_NEGATIVE_INT, default=0,
                   help="seed for the --corpus split")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("pack", help="chip-grid co-search and ring packing report")
    p.add_argument("--genome", required=True, help="genome JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", default=None,
                   help="JSON file with n_mac / w_core_kb / n_chips_max axes")
    p.add_argument("--prefill-tokens", type=_POSITIVE_INT, default=512)
    p.add_argument("--decode-tokens", type=_POSITIVE_INT, default=256)
    p.add_argument("--top-k", type=_POSITIVE_INT, default=3)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("surrogate", help="train / eval / mc-predict the encoder")
    ssub = p.add_subparsers(dest="surrogate_cmd", required=True)

    q = ssub.add_parser("train", help="fit the encoder on a labeled corpus")
    q.add_argument("--corpus", required=True, help="corpus JSONL file")
    q.add_argument("--out", required=True, help="output directory")
    q.add_argument("--epochs", type=_NON_NEGATIVE_INT, default=200)
    q.add_argument("--batch-size", type=_POSITIVE_INT, default=32)
    q.add_argument("--lr", type=_POSITIVE_FLOAT, default=1e-4)
    q.add_argument("--seed", type=_NON_NEGATIVE_INT, default=100)
    q.add_argument("--test-frac", type=_FRACTION, default=0.2)
    q.add_argument("--split-seed", type=_NON_NEGATIVE_INT, default=0)
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=cmd_surrogate_train)

    q = ssub.add_parser("eval", help="ranking metrics on the held-out split")
    q.add_argument("--corpus", required=True)
    q.add_argument("--checkpoint", required=True, help="encoder .npz checkpoint")
    q.add_argument("--test-frac", type=_FRACTION, default=0.2)
    q.add_argument("--split-seed", type=_NON_NEGATIVE_INT, default=0)
    q.set_defaults(func=cmd_surrogate_eval)

    q = ssub.add_parser("mc", help="MC-dropout mean/std for listed genomes")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--genomes", required=True, help="JSONL file, one genome per line")
    q.add_argument("--n-mc", type=_POSITIVE_INT, default=10)
    q.add_argument("--mc-seed", type=_NON_NEGATIVE_INT, default=0)
    q.set_defaults(func=cmd_surrogate_mc)

    p = sub.add_parser("count", help="design-space sizes and expansion ratio")
    p.add_argument("--d-model", type=_POSITIVE_INT, default=768)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("check-iha", help="attention kernel property suite")
    p.add_argument("--trials", type=_POSITIVE_INT, default=25)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-10)
    p.set_defaults(func=cmd_check_iha)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # backend/runtime failure contract
        log.debug("unhandled failure", exc_info=True)
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
