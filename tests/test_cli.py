"""End-to-end tests for the command-line interface.

Each test drives ``ihasearch.cli.main`` in-process and checks the stable
contract: exit codes (0 ok / 2 input error / 3 runtime error), artifact
schemas, and byte-level determinism of repeated runs.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import xml.dom.minidom
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ihasearch
from ihasearch.cli import main
from ihasearch.genome import (
    ArchGenome,
    GlobalConfig,
    LayerGene,
    count_attention_configs,
    from_json,
    genome_id,
    to_json,
)
from ihasearch.surrogate import (
    EncoderConfig,
    EncoderSurrogate,
    FieldNormalizer,
    make_synthetic_corpus,
    parse_corpus_row,
    save_corpus,
    split_corpus,
    train,
)

GEMMINI_SPEC = json.loads(
    (resources.files("ihasearch.hwcost") / "substrates" / "gemmini.json").read_text())

SMALL_SEARCH_CFG = {
    "population_size": 8,
    "offspring_size": 8,
    "generations": 4,
    "refine_every_generations": 0,
    "evaluator": "oracle",
    "backend": "analytic:gemmini",
    "seed": 3,
}


def smol_genome() -> ArchGenome:
    """A 32-layer, d_model=960 model in the shape of SmolLM2-360M."""
    gene = LayerGene(1, 1, 15, 5, 64, 64, 2560)
    return ArchGenome(
        GlobalConfig(d_model=960, block_size=1024, max_layers=32),
        tuple(gene for _ in range(32)),
    )


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    genomes, labels = make_synthetic_corpus(64, seed=7)
    save_corpus(str(path), genomes, labels)
    return path


@pytest.fixture(scope="module")
def candidates_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cands") / "cands.jsonl"
    genomes, _ = make_synthetic_corpus(4, seed=9)
    path.write_text("".join(to_json(g) + "\n" for g in genomes))
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, corpus_file) -> Path:
    out = tmp_path_factory.mktemp("ckpt")
    rc = main(["surrogate", "train", "--corpus", str(corpus_file),
               "--out", str(out), "--epochs", "5"])
    assert rc == 0
    return out / "encoder.npz"


@pytest.fixture(scope="module")
def genome_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("genome") / "smol.json"
    path.write_text(to_json(smol_genome()) + "\n")
    return path


def write_cfg(tmp_path: Path, **overrides) -> Path:
    cfg = dict(SMALL_SEARCH_CFG, **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


# --------------------------------------------------------------------------
# count / check-iha
# --------------------------------------------------------------------------

class TestCount:
    def test_default_output_exact(self, capsys):
        assert main(["count"]) == 0
        assert capsys.readouterr().out == "GQA: 27, IHA: 11250, ratio ≈ 416.7×\n"

    def test_custom_d_model_matches_enumeration(self, capsys):
        assert main(["count", "--d-model", "512"]) == 0
        out = capsys.readouterr().out
        gqa = count_attention_configs("gqa", d_model=512)
        iha = count_attention_configs("iha", d_model=512)
        assert out == f"GQA: {gqa}, IHA: {iha}, ratio ≈ {iha / gqa:.1f}×\n"


class TestCheckIha:
    def test_suite_passes(self, capsys):
        assert main(["check-iha", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6  # five properties + the summary line
        assert "FAIL" not in out

    def test_failing_suite_exits_3(self, capsys, monkeypatch):
        import ihasearch.cli as cli
        monkeypatch.setattr(cli, "run_kernel_property_suite",
                            lambda **kw: {"broken_property": 1.0})
        assert main(["check-iha"]) == 3
        assert "FAIL" in capsys.readouterr().out


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

class TestSearch:
    def test_artifacts_schema(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "search"
        assert manifest["version"]
        assert (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)
        assert manifest["config"]["population_size"] == 8
        assert manifest["seed"] == 3

        gen_lines = (out / "generations.csv").read_text().splitlines()
        assert gen_lines[0] == "gen,best_val_loss,archive_size,hypervolume"
        assert len(gen_lines) == 1 + SMALL_SEARCH_CFG["generations"]
        hv = [float(l.split(",")[3]) for l in gen_lines[1:]]
        assert all(b >= a for a, b in zip(hv, hv[1:]))

        arch_lines = (out / "archive.csv").read_text().splitlines()
        assert arch_lines[0] == "genome_id,val_loss,e_tok_j,ttft_s,tpot_s,feasible"
        n_archive = len(arch_lines) - 1
        assert n_archive > 0
        assert all(line.endswith(",true") for line in arch_lines[1:])

        genome_docs = sorted((out / "genomes").glob("*.json"))
        assert len(genome_docs) == n_archive
        for doc in genome_docs:
            g = from_json(doc.read_text())
            assert genome_id(g) == doc.stem

        svg = (out / "front.svg").read_text()
        dom = xml.dom.minidom.parseString(svg)
        assert len(dom.getElementsByTagName("circle")) == n_archive
        assert (out / "events.jsonl").exists()

    def test_repeat_run_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["search", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["search", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ["archive.csv", "generations.csv", "front.svg",
                     "events.jsonl", "manifest.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_archive(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["search", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["search", "--config", str(cfg), "--out", str(out2),
                     "--seed", "4"]) == 0
        assert (out1 / "archive.csv").read_bytes() != (out2 / "archive.csv").read_bytes()
        assert json.loads((out2 / "manifest.json").read_text())["seed"] == 4

    def test_manifest_overwrite_guard(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["search", "--config", str(cfg), "--out", str(out),
                     "--force"]) == 0

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, population_size=-3)
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "population_size" in capsys.readouterr().err

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, populaton_size=8)
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "populaton_size" in capsys.readouterr().err

    def test_unparseable_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["search", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["search", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_surrogate_evaluator_requires_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, evaluator="surrogate")
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "--surrogate" in capsys.readouterr().err

    def test_refinement_requires_corpus(self, tmp_path, capsys, checkpoint):
        cfg = write_cfg(tmp_path, evaluator="surrogate", refine_every_generations=2,
                        mc_dropout_passes=3, refine_batch_size=4)
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--surrogate", str(checkpoint)]) == 2
        assert "--corpus" in capsys.readouterr().err

    def test_bad_backend_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--backend", "warp-drive"]) == 2

    @pytest.mark.parametrize("field, value, named", [
        ("crossover_rate", "0.5", "crossover_rate"),
        ("val_loss_max", float("nan"), "val_loss_max"),
        ("replay_ratio", float("inf"), "replay_ratio"),
        ("backend", "analytic:missing.json", "missing.json"),
        ("backend", 5, "backend"),
        ("mutation_rates", 5, "mutation_rates"),
        ("seed", -3, "seed"),
        ("mc_dropout_passes", True, "mc_dropout_passes"),
    ])
    def test_bad_field_value_exits_2(self, tmp_path, capsys, field, value, named):
        cfg = write_cfg(tmp_path, **{field: value})
        out = tmp_path / "x"
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not (out / "archive.csv").exists()

    def test_substrate_file_backend_runs(self, tmp_path, capsys):
        spec = tmp_path / "mine.json"
        spec.write_text(json.dumps(GEMMINI_SPEC))
        cfg = write_cfg(tmp_path, backend=f"analytic:{spec}")
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("field", [k for k, v in GEMMINI_SPEC.items()
                                       if type(v) in (int, float)])
    @pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"), float("-inf"),
                                       0, -1, -2.5])
    def test_bad_substrate_number_exits_2(self, tmp_path, capsys, field, value):
        # each of these ran a search (or an empty one) and exited 0
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(dict(GEMMINI_SPEC, **{field: value})))
        cfg = write_cfg(tmp_path, backend=f"analytic:{spec}")
        out = tmp_path / "x"
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"'{field}' must be a finite number > 0" in capsys.readouterr().err
        assert not (out / "archive.csv").exists()

    def test_surrogate_run_with_refinement_events(self, tmp_path, capsys,
                                                  checkpoint, corpus_file):
        cfg = write_cfg(tmp_path, evaluator="surrogate", refine_every_generations=2,
                        mc_dropout_passes=3, refine_batch_size=4, seed=5)
        out = tmp_path / "run"
        assert main(["search", "--config", str(cfg), "--out", str(out),
                     "--surrogate", str(checkpoint),
                     "--corpus", str(corpus_file)]) == 0
        events = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
        assert [e["t"] for e in events] == [2]
        assert all(np.isfinite(v) for e in events for v in e["labels"])

    def test_ring_backend_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, population_size=6, offspring_size=6,
                        generations=2, backend="ring", val_loss_max=3.5,
                        prefill_tokens=512, decode_tokens=256, seed=11)
        out = tmp_path / "run"
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "archive.csv").read_text().count("\n") >= 1

    def test_runtime_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        import ihasearch.cli as cli
        monkeypatch.setattr(cli, "run_search",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        cfg = write_cfg(tmp_path)
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert "boom" in capsys.readouterr().err


# Generated config fields: a valid value, with each run-size field capped so
# that a search stays a few evaluations long, or a broken one (wrong type,
# out of range, non-finite, unknown name).
_BAD = st.sampled_from([None, "1", [], {}, True, float("nan"), float("inf")])
_RATE = st.floats(0.0, 1.0)
_BAD_SUBSTRATES = ["analytic:@bad_substrate_bool", "analytic:@bad_substrate_nan",
                   "analytic:@bad_substrate_infinite", "analytic:@bad_substrate_zero"]
_CONFIG_FIELDS = {  # name: (valid, broken)
    "population_size": (st.integers(1, 4), st.one_of(st.integers(-1, 0), st.just(2.0), _BAD)),
    "offspring_size": (st.integers(1, 4), st.one_of(st.integers(-1, 0), _BAD)),
    "generations": (st.integers(1, 2), st.one_of(st.integers(-1, 0), _BAD)),
    "crossover_rate": (_RATE, st.one_of(st.sampled_from([-0.1, 1.5]), _BAD)),
    "mutation_rate": (_RATE, st.one_of(st.sampled_from([-0.1, 1.5]), _BAD)),
    "refine_every_generations": (st.integers(0, 2), st.one_of(st.just(-1), _BAD)),
    "refine_batch_size": (st.integers(0, 3), st.one_of(st.just(-1), _BAD)),
    "mc_dropout_passes": (st.integers(1, 3), st.one_of(st.integers(-1, 0), _BAD)),
    "replay_ratio": (st.one_of(st.floats(0.0, 8.0), st.just(1e300)),
                     st.one_of(st.just(-1.0), _BAD)),
    "val_loss_max": (st.floats(-1.0, 6.0), _BAD),
    "prefill_tokens": (st.one_of(st.integers(1, 4096), st.just(10**12)),
                       st.one_of(st.integers(-1, 0), _BAD)),
    "decode_tokens": (st.integers(1, 4096), st.one_of(st.integers(-1, 0), _BAD)),
    # "analytic:@name" names a substrate file of cli_inputs
    "backend": (st.sampled_from(["ring", "analytic:gemmini", "analytic:eyeriss",
                                 "analytic:@substrate"]),
                st.one_of(st.sampled_from(["analytic:missing", "analytic:missing.json",
                                           "analytic:", "gemmini", *_BAD_SUBSTRATES]), _BAD)),
    "evaluator": (st.sampled_from(["oracle", "surrogate"]),
                  st.one_of(st.just("labels"), _BAD)),
    "space": (st.sampled_from(["iha", "gqa"]), st.one_of(st.just("mha"), _BAD)),
    "variation": (st.sampled_from(["nsga", "random"]), st.one_of(st.just("grid"), _BAD)),
    "seed": (st.integers(0, 2**64), st.one_of(st.just(-3), st.just(1.5), _BAD)),
    "mutation_rates": (
        st.dictionaries(st.sampled_from(["deletion", "duplication", "rotation", "perturbation"]),
                        _RATE, max_size=4),
        st.one_of(st.fixed_dictionaries({"swap": _RATE}),
                  st.fixed_dictionaries({"deletion": st.sampled_from([-0.1, 1.5])}),
                  _BAD.filter(lambda v: v != {}))),  # {} means every default rate
}


@st.composite
def fuzzed_search_configs(draw):
    """(config dict, whether a field is broken).  The dict never asks for
    more than 4 parents, 4 offspring and 2 generations; each listed field is
    valid or, one time in four, broken."""
    evaluator = draw(st.sampled_from(["oracle", "surrogate"]))
    refine = draw(st.integers(0, 2)) if evaluator == "surrogate" else 0
    doc = {"population_size": 4, "offspring_size": 4, "generations": 2,
           "evaluator": evaluator, "refine_every_generations": refine}
    any_broken = False
    for name in draw(st.lists(st.sampled_from(sorted(_CONFIG_FIELDS)), max_size=8, unique=True)):
        valid, broken = _CONFIG_FIELDS[name]
        is_broken = draw(st.integers(0, 3)) == 0
        doc[name] = draw(broken if is_broken else valid)
        any_broken |= is_broken
    if draw(st.integers(0, 9)) == 0:
        doc["unknown_field"] = 1
        any_broken = True
    return doc, any_broken


@pytest.fixture(scope="module")
def tiny_surrogate_files(tmp_path_factory) -> tuple[Path, Path]:
    root = tmp_path_factory.mktemp("tiny_surrogate")
    genomes, labels = make_synthetic_corpus(12, seed=2)
    cfg = EncoderConfig(d_enc=8, n_blocks=1, n_heads=2, ffn_mult=1)
    model, _ = train(split_corpus(genomes, labels, seed=0), config=cfg, epochs=1)
    model.save(str(root / "encoder.npz"))
    save_corpus(str(root / "corpus.jsonl"), genomes, labels)
    return root / "encoder.npz", root / "corpus.jsonl"


class TestSearchConfigFuzz:
    @given(case=fuzzed_search_configs(), with_surrogate=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_exit_code_is_0_or_2(self, tiny_surrogate_files, cli_inputs, case, with_surrogate):
        """Never 3; and never a silent 0 when a field is broken."""
        doc, broken = case
        backend = doc.get("backend")
        if isinstance(backend, str) and backend.startswith("analytic:@"):
            doc = dict(doc, backend=f"analytic:{cli_inputs[backend[len('analytic:@'):]]}")
        checkpoint, corpus = tiny_surrogate_files
        extra = ["--surrogate", str(checkpoint), "--corpus", str(corpus)] if with_surrogate else []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["search", "--config", str(path), "--out", str(Path(tmp) / "run"), *extra])
        event(f"exit {code}")
        assert code in ((2,) if broken else (0, 2)), doc


class TestNoStateAcrossRuns:
    ARTIFACTS = ("archive.csv", "generations.csv", "events.jsonl")

    def test_ring_searches_in_one_process_match_fresh_ones(self, tmp_path):
        """The chip memo (``ring._chip``), ``snap_n_kv`` and ``_grid_sets``
        outlive a run.  Ring searches A, B, A in one process, B on another
        space, workload and seed, write the artifacts of A and of B each run
        alone in a fresh interpreter."""
        sizes = dict(population_size=6, offspring_size=6, generations=2, backend="ring",
                     val_loss_max=3.5)
        cfgs = {}
        for name, extra in (("a", dict(prefill_tokens=512, decode_tokens=256, seed=11)),
                            ("b", dict(prefill_tokens=1024, decode_tokens=1024, seed=5,
                                       space="gqa"))):
            (tmp_path / name).mkdir()
            cfgs[name] = write_cfg(tmp_path / name, **sizes, **extra)
        src = str(Path(ihasearch.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for name, cfg in cfgs.items():
            script = ("from ihasearch.cli import main\n"
                      f"raise SystemExit(main(['search', '--config', {str(cfg)!r}, "
                      f"'--out', {str(tmp_path / ('fresh_' + name))!r}]))\n")
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        with contextlib.redirect_stdout(io.StringIO()):
            for run, name in (("a1", "a"), ("b1", "b"), ("a2", "a")):
                assert main(["search", "--config", str(cfgs[name]),
                             "--out", str(tmp_path / run)]) == 0
        for run, name in (("a1", "a"), ("b1", "b"), ("a2", "a")):
            for artifact in self.ARTIFACTS:
                fresh = (tmp_path / f"fresh_{name}" / artifact).read_bytes()
                assert (tmp_path / run / artifact).read_bytes() == fresh, (run, artifact)
        # B is another search, not a repeat of A
        assert (tmp_path / "fresh_a" / "archive.csv").read_bytes() != (
            tmp_path / "fresh_b" / "archive.csv").read_bytes()


class TestScipyOnFirstUse:
    def test_oracle_search_and_pack_load_no_scipy_submodule(self, tmp_path, genome_file):
        """scipy.stats (rank statistics) and scipy.special (the encoder's
        GELU) are imported where they are used, so an oracle search and a
        pack load neither."""
        cfg = write_cfg(tmp_path)
        script = (
            "import sys\n"
            "from ihasearch.cli import main\n"
            f"assert main(['search', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'run')!r}]) == 0\n"
            f"assert main(['pack', '--genome', {str(genome_file)!r}, '--out', {str(tmp_path / 'pack')!r}]) == 0\n"
            "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])\n"
        )
        src = str(Path(ihasearch.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


# --------------------------------------------------------------------------
# pack
# --------------------------------------------------------------------------

class TestPack:
    def test_writes_plan_and_table(self, tmp_path, capsys, genome_file):
        out = tmp_path / "pack"
        assert main(["pack", "--genome", str(genome_file), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert re.search(r"grid: 45 chip configs, \d+ feasible", stdout)
        assert "n_chips" in stdout and "ttft_s" in stdout

        plan_lines = (out / "ring_plan.csv").read_text().splitlines()
        assert plan_lines[0].startswith("stage,layer_start,layer_end")
        assert len(plan_lines) >= 2
        assert (out / "manifest.json").exists()

    def test_top_k_table_mutually_nondominated(self, tmp_path, capsys, genome_file):
        out = tmp_path / "pack"
        assert main(["pack", "--genome", str(genome_file), "--out", str(out)]) == 0
        rows = []
        for line in capsys.readouterr().out.splitlines():
            cells = line.split()
            if len(cells) == 9 and cells[0].isdigit():
                # ttft_s, tpot_s, e_tok_j, area
                rows.append([float(cells[5]), float(cells[6]),
                             float(cells[7]), float(cells[8])])
        assert 1 <= len(rows) <= 3
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                if i != j:
                    assert not (all(x <= y for x, y in zip(a, b))
                                and any(x < y for x, y in zip(a, b))), (i, j)

    def test_invalid_genome_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        g = smol_genome()
        doc = json.loads(to_json(g))
        doc["layers"][0]["n_kv"] = 4  # 4 does not divide n_h=15
        bad.write_text(json.dumps(doc))
        assert main(["pack", "--genome", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "n_kv" in capsys.readouterr().err

    def test_unparseable_genome_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["pack", "--genome", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_oversized_genome_warns_exit0(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        gene = LayerGene(1, 1, 16, 16, 512, 512, 4096)
        g = ArchGenome(GlobalConfig(d_model=768, block_size=8192, max_layers=40),
                       tuple(gene for _ in range(40)))
        huge.write_text(to_json(g))
        out = tmp_path / "pack"
        assert main(["pack", "--genome", str(huge), "--out", str(out),
                     "--prefill-tokens", "4096", "--decode-tokens", "4096"]) == 0
        stdout = capsys.readouterr().out
        assert "warning" in stdout and "0 feasible" in stdout
        assert not (out / "ring_plan.csv").exists()

    def test_custom_grid(self, tmp_path, capsys, genome_file):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"n_mac": [64], "w_core_kb": [192], "n_chips_max": [32]}))
        out = tmp_path / "pack"
        assert main(["pack", "--genome", str(genome_file), "--out", str(out),
                     "--grid", str(grid)]) == 0
        stdout = capsys.readouterr().out
        assert "grid: 1 chip configs" in stdout

    def test_bad_grid_file_exit2(self, tmp_path, capsys, genome_file):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_mac": [64]}))
        assert main(["pack", "--genome", str(genome_file),
                     "--out", str(tmp_path / "x"), "--grid", str(grid)]) == 2

    @pytest.mark.parametrize("axis,values", [
        ("w_core_kb", [0]),  # used to hang in build_chip's core-count loop
        ("w_core_kb", [-24]),
        ("n_mac", [0]),  # used to exit 3
        ("n_chips_max", [0]),  # used to exit 3
        ("n_mac", [True]),
        ("n_chips_max", [8.5]),
        ("w_core_kb", ["96"]),
        ("n_mac", 16),
    ])
    def test_bad_grid_value_exit2(self, tmp_path, capsys, genome_file, axis, values):
        doc = {"n_mac": [16, 64], "w_core_kb": [96], "n_chips_max": [8]}
        doc[axis] = values
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc))
        assert main(["pack", "--genome", str(genome_file),
                     "--out", str(tmp_path / "x"), "--grid", str(grid)]) == 2
        assert axis in capsys.readouterr().err


# --------------------------------------------------------------------------
# surrogate
# --------------------------------------------------------------------------

class TestSurrogateTrain:
    def test_artifacts_and_param_count(self, tmp_path, capsys, corpus_file):
        out = tmp_path / "train"
        assert main(["surrogate", "train", "--corpus", str(corpus_file),
                     "--out", str(out), "--epochs", "3"]) == 0
        assert "203,713 parameters" in capsys.readouterr().out
        assert (out / "encoder.npz").exists()
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,train_l1,test_l1"
        assert len(curve) == 1 + 3 + 1  # header + pre-training row + one per epoch
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["epochs"] == 3 and manifest["seed"] == 100

    def test_same_seed_identical_checkpoints(self, tmp_path, capsys, corpus_file):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["surrogate", "train", "--corpus", str(corpus_file),
                         "--out", str(out), "--epochs", "2"]) == 0
        assert (outs[0] / "encoder.npz").read_bytes() == \
               (outs[1] / "encoder.npz").read_bytes()

    def test_tiny_corpus_exit2(self, tmp_path, capsys):
        small = tmp_path / "small.jsonl"
        genomes, labels = make_synthetic_corpus(4, seed=1)
        save_corpus(str(small), genomes, labels)
        assert main(["surrogate", "train", "--corpus", str(small),
                     "--out", str(tmp_path / "x")]) == 2
        assert "held-out split" in capsys.readouterr().err

    def test_empty_train_split_exit2(self, tmp_path, capsys):
        # 3 rows at --test-frac 0.9 hold every row out; training then
        # failed inside numpy and exited 3
        small = tmp_path / "small.jsonl"
        genomes, labels = make_synthetic_corpus(3, seed=1)
        save_corpus(str(small), genomes, labels)
        out = tmp_path / "x"
        assert main(["surrogate", "train", "--corpus", str(small), "--out", str(out),
                     "--test-frac", "0.9"]) == 2
        assert "train split is empty" in capsys.readouterr().err
        assert not out.exists()  # so no manifest either

    def test_missing_corpus_exit2(self, tmp_path, capsys):
        assert main(["surrogate", "train", "--corpus", str(tmp_path / "no.jsonl"),
                     "--out", str(tmp_path / "x")]) == 2


class TestSurrogateEval:
    def test_metric_block(self, capsys, corpus_file, checkpoint):
        assert main(["surrogate", "eval", "--corpus", str(corpus_file),
                     "--checkpoint", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        for key in ["tau", "rho", "mae", "k_at_1pct", "k_at_5pct", "mae_at_5pct"]:
            assert re.search(rf"^{key}: ", out, re.M), key
        assert "203,713" in out

    def test_perfect_predictions_tau_rho_one(self, tmp_path, capsys, checkpoint,
                                             corpus_file):
        # label every genome with the model's own prediction: the held-out
        # split is then predicted perfectly, so tau = rho = 1 and mae = 0
        model = EncoderSurrogate.load(str(checkpoint))
        genomes = [parse_corpus_row(line)[0] for line in corpus_file.read_text().splitlines()]
        self_labeled = tmp_path / "self.jsonl"
        save_corpus(str(self_labeled), genomes, model.predict_genomes(genomes))
        assert main(["surrogate", "eval", "--corpus", str(self_labeled),
                     "--checkpoint", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        metrics = dict(
            line.split(": ") for line in out.splitlines() if ": " in line
        )
        assert float(metrics["tau"]) == pytest.approx(1.0)
        assert float(metrics["rho"]) == pytest.approx(1.0)
        assert float(metrics["mae"]) == pytest.approx(0.0, abs=1e-12)

    def test_bad_checkpoint_exit2(self, tmp_path, capsys, corpus_file):
        bad = tmp_path / "bad.npz"
        bad.write_text("nonsense")
        assert main(["surrogate", "eval", "--corpus", str(corpus_file),
                     "--checkpoint", str(bad)]) == 2


_CONFIG_EDITS = {
    "unknown_config_key": {"n_experts": 2},
    "n_blocks_mismatch": {"n_blocks": 2},  # over 1-block arrays
    "n_heads_mismatch": {"n_heads": 3},  # over 2-head arrays, d_enc 8
    "p_drop_out_of_range": {"p_drop": 2.0},
}


# json.loads raises RecursionError on this, which used to exit 3
NESTED_JSON = "[" * 100_000


def _broken_checkpoint(src: Path, dst: Path, kind: str) -> Path:
    """A copy of checkpoint src broken in one way."""
    if kind == "truncated":
        data = src.read_bytes()
        dst.write_bytes(data[: len(data) // 2])
        return dst
    if kind == "no_normalizer":
        model = EncoderSurrogate.load(str(src))
        EncoderSurrogate(model.config, model.params).save(str(dst))
        return dst
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    if kind in _CONFIG_EDITS:
        meta["config"].update(_CONFIG_EDITS[kind])
    elif kind == "meta_list":
        meta = [meta]
    elif kind == "meta_nested":
        meta = None  # written as NESTED_JSON below
    elif kind == "long_theta":
        arrays["theta"] = np.append(arrays["theta"], 0.0)
    elif kind == "short_normalizer":
        arrays["norm_lo"] = arrays["norm_lo"][:3]
    else:
        raise KeyError(kind)
    text = NESTED_JSON if kind == "meta_nested" else json.dumps(meta)
    arrays["meta"] = np.frombuffer(text.encode(), dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)
    return dst


BROKEN_CHECKPOINTS = ["long_theta", "short_normalizer", "unknown_config_key", "no_normalizer",
                      "truncated", "meta_list", "meta_nested", "n_blocks_mismatch",
                      "n_heads_mismatch", "p_drop_out_of_range"]


class TestMalformedCheckpoint:
    """A checkpoint that is not a well-formed encoder with a fitted
    normalizer is rejected with exit 2 by every subcommand that loads one."""

    @pytest.fixture(params=BROKEN_CHECKPOINTS)
    def tampered(self, request, tmp_path, tiny_surrogate_files) -> tuple[Path, str]:
        path = _broken_checkpoint(tiny_surrogate_files[0], tmp_path / "tampered.npz",
                                  request.param)
        why = "has no fitted normalizer" if request.param == "no_normalizer" else "does not parse"
        return path, why

    def test_surrogate_eval_exit2(self, capsys, corpus_file, tampered):
        path, why = tampered
        assert main(["surrogate", "eval", "--corpus", str(corpus_file),
                     "--checkpoint", str(path)]) == 2
        assert why in capsys.readouterr().err

    def test_search_exit2(self, tmp_path, capsys, tampered):
        path, why = tampered
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_SEARCH_CFG, evaluator="surrogate")))
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--surrogate", str(path)]) == 2
        assert why in capsys.readouterr().err

    def test_surrogate_mc_exit2(self, capsys, candidates_file, tampered):
        path, why = tampered
        assert main(["surrogate", "mc", "--checkpoint", str(path),
                     "--genomes", str(candidates_file), "--n-mc", "2"]) == 2
        assert why in capsys.readouterr().err


class TestSurrogateMc:
    def test_outputs_and_determinism(self, capsys, checkpoint, candidates_file):
        argv = ["surrogate", "mc", "--checkpoint", str(checkpoint),
                "--genomes", str(candidates_file), "--n-mc", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        lines = first.splitlines()
        assert lines[0] == "genome_id,mu,sigma"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            gid, mu, sigma = line.split(",")
            assert len(gid) == 12
            assert np.isfinite(float(mu))
            assert float(sigma) >= 0.0
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_empty_list_exit2(self, tmp_path, capsys, checkpoint):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["surrogate", "mc", "--checkpoint", str(checkpoint),
                     "--genomes", str(empty)]) == 2

    def test_bad_genome_line_exit2(self, tmp_path, capsys, checkpoint):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"global": {}}\n')
        assert main(["surrogate", "mc", "--checkpoint", str(checkpoint),
                     "--genomes", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err


# --------------------------------------------------------------------------
# flag ranges, loaded genomes and the fuzz of every other subcommand
# --------------------------------------------------------------------------

def run_main(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raises
    on a bad flag; output is swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _invalid_genome_doc() -> dict:
    """A default-space genome whose first layer is active with n_kv=7, n_h=16."""
    doc = json.loads(to_json(make_synthetic_corpus(1, seed=3)[0][0]))
    doc["layers"][0].update(mask=1, n_h=16, n_kv=7)
    return doc


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory, tiny_surrogate_files) -> dict[str, Path]:
    """Input files by name, each one either well formed or broken in one way
    (the broken ones start with "bad_")."""
    root = tmp_path_factory.mktemp("cli_inputs")
    checkpoint, corpus = tiny_surrogate_files
    rows = corpus.read_text().splitlines()
    paths = {"checkpoint": checkpoint, "corpus": corpus}

    def write(name: str, text: str) -> None:
        paths[name] = root / name
        paths[name].write_text(text)

    genomes, _ = make_synthetic_corpus(2, seed=5)
    write("genome", to_json(genomes[0]) + "\n")
    write("genome_list", "".join(to_json(g) + "\n" for g in genomes))
    write("grid", json.dumps({"n_mac": [64], "w_core_kb": [192], "n_chips_max": [32]}))
    bad_row = json.loads(rows[4])
    bad_row["genome"] = _invalid_genome_doc()
    write("bad_corpus_invalid_genome", "\n".join(rows[:4] + [json.dumps(bad_row)] + rows[5:]))
    for name, label in [("string", "3.1"), ("bool", True)]:
        row = json.loads(rows[1])
        row["val_loss"] = label
        write(f"bad_corpus_{name}_label", "\n".join(rows[:1] + [json.dumps(row)] + rows[2:]))
    write("bad_corpus_unparseable", rows[0] + "\n{not json\n")
    write("bad_checkpoint", "nonsense")
    for kind in ("no_normalizer", "truncated", "meta_list", "meta_nested", "n_blocks_mismatch",
                 "p_drop_out_of_range"):
        paths[f"bad_checkpoint_{kind}"] = _broken_checkpoint(
            checkpoint, root / f"bad_checkpoint_{kind}.npz", kind)
    write("bad_corpus_all_nan", "".join(
        json.dumps(dict(json.loads(row), val_loss=float("nan"))) + "\n" for row in rows))
    for kind, value in [("float", 64.9), ("bool", True)]:
        doc = json.loads(to_json(genomes[0]))
        doc["layers"][0]["mask" if kind == "bool" else "d_qk"] = value
        write(f"bad_genome_{kind}_field", json.dumps(doc))
        write(f"bad_genome_list_{kind}_field", to_json(genomes[1]) + "\n" + json.dumps(doc) + "\n")
        row = dict(json.loads(rows[2]), genome=doc)
        write(f"bad_corpus_{kind}_field", "\n".join(rows[:2] + [json.dumps(row)] + rows[3:]))
    write("bad_genome_invalid", json.dumps(_invalid_genome_doc()))
    write("bad_genome_unparseable", "{}")
    write("bad_genome_infinite", to_json(genomes[0]).replace('"d_model":768', '"d_model":Infinity'))
    write("bad_genome_list_invalid", to_json(genomes[0]) + "\n\n"
          + json.dumps(_invalid_genome_doc()) + "\n")
    write("bad_genome_list_empty", "\n")
    write("bad_grid", json.dumps({"n_mac": [0], "w_core_kb": [192], "n_chips_max": [32]}))
    for name, fields in [("substrate", {}), ("bad_substrate_bool", {"mac_count": True}),
                         ("bad_substrate_nan", {"clock_hz": float("nan")}),
                         ("bad_substrate_infinite", {"e_mac_j": float("inf")}),
                         ("bad_substrate_zero", {"dram_bw_bytes_per_s": 0})]:
        paths[name] = root / f"{name}.json"  # a substrate file must end in .json
        paths[name].write_text(json.dumps(dict(GEMMINI_SPEC, **fields)))
    write("bad_nested", NESTED_JSON)
    write("bad_corpus_nested", "\n".join(rows[:1] + [NESTED_JSON] + rows[1:]))
    write("bad_genome_list_nested", to_json(genomes[0]) + "\n" + NESTED_JSON + "\n")
    paths["bad_missing"] = root / "missing.jsonl"
    return paths


class TestFlagRanges:
    @pytest.mark.parametrize("argv", [
        ["pack", "--genome", "@genome", "--out", "@out", "--prefill-tokens", "-1"],  # was exit 3
        ["pack", "--genome", "@genome", "--out", "@out", "--decode-tokens", "0"],  # was exit 3
        ["pack", "--genome", "@genome", "--out", "@out", "--top-k", "0"],  # was a silent 0
        ["count", "--d-model", "0"],  # was a silent 0
        ["count", "--d-model", "-768"],
        ["check-iha", "--tol", "nan"],  # was exit 3
        ["check-iha", "--trials", "-1"],  # was a vacuous pass
        ["check-iha", "--seed", "-1"],  # was exit 3
        ["surrogate", "train", "--corpus", "@corpus", "--out", "@out", "--batch-size", "0"],
        ["surrogate", "train", "--corpus", "@corpus", "--out", "@out", "--test-frac", "1.5"],
        ["surrogate", "train", "--corpus", "@corpus", "--out", "@out", "--test-frac", "-0.1"],
        ["surrogate", "train", "--corpus", "@corpus", "--out", "@out", "--lr", "nan"],
        ["surrogate", "train", "--corpus", "@corpus", "--out", "@out", "--epochs", "-1"],
        ["surrogate", "eval", "--corpus", "@corpus", "--checkpoint", "@checkpoint",
         "--split-seed", "-1"],
        ["surrogate", "mc", "--checkpoint", "@checkpoint", "--genomes", "@genome_list",
         "--n-mc", "0"],
        ["surrogate", "mc", "--checkpoint", "@checkpoint", "--genomes", "@genome_list",
         "--mc-seed", "-1"],
    ])
    def test_out_of_range_flag_exits_2(self, tmp_path, cli_inputs, argv):
        files = dict(cli_inputs, out=tmp_path / "out")
        assert run_main([str(files[a[1:]]) if a.startswith("@") else a for a in argv]) == 2

    def test_help_text_names_the_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "--d-model", "x"])
        assert "must be an integer >= 1, got 'x'" in capsys.readouterr().err


class TestLoadedGenomesValidated:
    @pytest.mark.parametrize("sub", ["train", "eval"])
    def test_corpus_with_invalid_genome_names_its_line(self, tmp_path, capsys, cli_inputs, sub):
        argv = ["surrogate", sub, "--corpus", str(cli_inputs["bad_corpus_invalid_genome"])]
        argv += (["--out", str(tmp_path / "x")] if sub == "train"
                 else ["--checkpoint", str(cli_inputs["checkpoint"])])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "line 5 of corpus" in err and "n_kv: 7 does not divide n_h=16" in err

    @pytest.mark.parametrize("name", ["bad_corpus_string_label", "bad_corpus_bool_label"])
    def test_label_must_be_a_json_number(self, tmp_path, capsys, cli_inputs, name):
        assert main(["surrogate", "train", "--corpus", str(cli_inputs[name]),
                     "--out", str(tmp_path / "x")]) == 2
        assert "line 2 of corpus" in capsys.readouterr().err

    def test_search_refinement_corpus_is_validated(self, tmp_path, capsys, cli_inputs):
        cfg = write_cfg(tmp_path, evaluator="surrogate", refine_every_generations=1)
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--surrogate", str(cli_inputs["checkpoint"]),
                     "--corpus", str(cli_inputs["bad_corpus_invalid_genome"])]) == 2
        assert "line 5 of corpus" in capsys.readouterr().err

    def test_mc_genome_list_invalid_genome_names_its_line(self, capsys, cli_inputs):
        assert main(["surrogate", "mc", "--checkpoint", str(cli_inputs["checkpoint"]),
                     "--genomes", str(cli_inputs["bad_genome_list_invalid"])]) == 2
        err = capsys.readouterr().err
        assert "line 3 of genome list" in err and "n_kv" in err

    def test_non_finite_genome_field_exits_2(self, tmp_path, capsys, cli_inputs):
        # int(Infinity) raises OverflowError, which used to exit 3
        assert main(["pack", "--genome", str(cli_inputs["bad_genome_infinite"]),
                     "--out", str(tmp_path / "x")]) == 2
        assert "does not parse" in capsys.readouterr().err

    def test_all_nan_search_corpus_exits_2(self, tmp_path, capsys, cli_inputs):
        # split_corpus's ValueError used to exit 3 from search only
        cfg = write_cfg(tmp_path, evaluator="surrogate", refine_every_generations=1)
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--surrogate", str(cli_inputs["checkpoint"]),
                     "--corpus", str(cli_inputs["bad_corpus_all_nan"])]) == 2
        assert "no row with a finite label" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, field", [("float", "d_qk"), ("bool", "mask")])
    @pytest.mark.parametrize("route", ["pack", "corpus", "mc"])
    def test_non_integer_genome_field_exits_2(self, tmp_path, capsys, cli_inputs, route, kind,
                                              field):
        # 64.9 used to load as 64 and true as 1, and both passed validate
        argv, where = {
            "pack": (["pack", "--genome", str(cli_inputs[f"bad_genome_{kind}_field"]),
                      "--out", str(tmp_path / "x")], "genome"),
            "corpus": (["surrogate", "train", "--corpus",
                        str(cli_inputs[f"bad_corpus_{kind}_field"]),
                        "--out", str(tmp_path / "x"), "--epochs", "0"], "line 3 of corpus"),
            "mc": (["surrogate", "mc", "--checkpoint", str(cli_inputs["checkpoint"]),
                    "--genomes", str(cli_inputs[f"bad_genome_list_{kind}_field"]),
                    "--n-mc", "1"], "line 2 of genome list"),
        }[route]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert where in err and f"layers[0].{field}" in err

    @pytest.mark.parametrize("route", ["pack", "search", "search_substrate", "train", "mc"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, cli_inputs, route):
        nested = cli_inputs["bad_nested"]
        substrate = tmp_path / "substrate.json"
        substrate.write_text(NESTED_JSON)
        config = write_cfg(tmp_path, backend=f"analytic:{substrate}")
        argv, where = {
            "pack": (["pack", "--genome", str(nested), "--out", str(tmp_path / "x")],
                     "is not valid JSON"),
            "search": (["search", "--config", str(nested), "--out", str(tmp_path / "x")],
                       "is not valid JSON"),
            "search_substrate": (["search", "--config", str(config), "--out", str(tmp_path / "x")],
                                 "cannot load substrate file"),
            "train": (["surrogate", "train", "--corpus", str(cli_inputs["bad_corpus_nested"]),
                       "--out", str(tmp_path / "x"), "--epochs", "0"], "line 2 of corpus"),
            "mc": (["surrogate", "mc", "--checkpoint", str(cli_inputs["checkpoint"]),
                    "--genomes", str(cli_inputs["bad_genome_list_nested"]), "--n-mc", "1"],
                   "line 2 of genome list"),
        }[route]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert where in err and "nested too deeply" in err

    def test_nan_label_still_loads_and_is_dropped(self, tmp_path, capsys, cli_inputs):
        rows = cli_inputs["corpus"].read_text().splitlines()
        row = json.loads(rows[0])
        row["val_loss"] = float("nan")
        corpus = tmp_path / "nan.jsonl"
        corpus.write_text("\n".join([json.dumps(row)] + rows[1:]) + "\n")
        assert main(["surrogate", "eval", "--corpus", str(corpus),
                     "--checkpoint", str(cli_inputs["checkpoint"])]) == 0


class TestTokenBudget:
    """A genome with more active layers than the encoder reads is refused
    where it enters, naming its file and line; this used to exit 3 from
    featurize ("48 active layers exceed the 40-token budget")."""

    @pytest.fixture(scope="class")
    def short_checkpoint(self, tmp_path_factory, cli_inputs) -> Path:
        """A checkpoint that reads at most 8 layers."""
        path = tmp_path_factory.mktemp("short") / "encoder.npz"
        genomes, _ = make_synthetic_corpus(4, seed=1)
        model = EncoderSurrogate.init(EncoderConfig(d_enc=8, n_blocks=1, n_heads=2, ffn_mult=1,
                                                    max_layers=8))
        model.normalizer = FieldNormalizer.fit(genomes)
        model.save(str(path))
        return path

    def test_train_corpus_with_48_active_layers(self, tmp_path, capsys, cli_inputs):
        gene = LayerGene(1, 1, 8, 2, 64, 64, 1024)
        deep = ArchGenome(GlobalConfig(768, 1024, 48), tuple(gene for _ in range(48)))
        rows = cli_inputs["corpus"].read_text().splitlines()
        row = json.dumps({"genome": json.loads(to_json(deep)), "val_loss": 3.0})
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text("\n".join(rows[:2] + [row] + rows[2:]) + "\n")
        assert main(["surrogate", "train", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                     "--epochs", "0"]) == 2
        err = capsys.readouterr().err
        assert f"line 3 of corpus {str(corpus)!r} has 48 active layers" in err
        assert "at most 40" in err

    @pytest.mark.parametrize("sub", ["eval", "mc"])
    def test_surrogate_with_8_layer_checkpoint(self, capsys, cli_inputs, short_checkpoint, sub):
        argv = ["surrogate", sub, "--checkpoint", str(short_checkpoint)]
        argv += (["--corpus", str(cli_inputs["corpus"])] if sub == "eval"
                 else ["--genomes", str(cli_inputs["genome_list"]), "--n-mc", "1"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "line 1 of" in err and "at most 8" in err

    def test_search_with_8_layer_checkpoint(self, tmp_path, capsys, cli_inputs, short_checkpoint):
        cfg = write_cfg(tmp_path, evaluator="surrogate", refine_every_generations=1)
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--surrogate", str(short_checkpoint),
                     "--corpus", str(cli_inputs["corpus"])]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {str(short_checkpoint)!r} reads at most 8 layers" in err
        assert "search genomes have 40" in err


class TestIntsBeyondFloat:
    """Every int up to 2**53 is exact as a float, which the cost models
    compute in.  A larger grid value, workload length or global genome dim
    used to exit 3 ("int too large to convert to float"); each now exits 2
    naming its field or axis, and exactly 2**53 runs."""

    BIG = {"grid": 2**1100, "prefill": 10**400, "d_model": 10**400}

    @staticmethod
    def _argv(route, value, tmp_path, cli_inputs):
        genome = json.loads(cli_inputs["genome"].read_text())
        genome["global"]["d_model"] = value
        genome_file = tmp_path / "genome.json"
        genome_file.write_text(json.dumps(genome) + "\n")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_mac": [value], "w_core_kb": [24], "n_chips_max": [32]}))
        pack = ["pack", "--genome", str(cli_inputs["genome"]), "--out", str(tmp_path / "out")]
        return {
            "pack_grid": (pack + ["--grid", str(grid)], "n_mac"),
            "pack_prefill": (pack + ["--prefill-tokens", str(value)], "prefill_tokens"),
            "pack_genome": (["pack", "--genome", str(genome_file), "--out", str(tmp_path / "out")],
                            "d_model"),
            "mc": (["surrogate", "mc", "--checkpoint", str(cli_inputs["checkpoint"]),
                    "--genomes", str(genome_file), "--n-mc", "1"], "d_model"),
            **{f"search_{backend}": (
                ["search", "--config", str(write_cfg(
                    tmp_path, backend=backend, prefill_tokens=value, population_size=2,
                    offspring_size=2, generations=1)), "--out", str(tmp_path / "run")],
                "prefill_tokens") for backend in ("ring", "analytic:gemmini")},
        }[route]

    ROUTES = ["pack_grid", "pack_prefill", "pack_genome", "mc", "search_ring",
              "search_analytic:gemmini"]

    @pytest.mark.parametrize("route", ROUTES)
    def test_beyond_2_pow_53_exits_2(self, tmp_path, capsys, cli_inputs, route):
        value = {"pack_grid": self.BIG["grid"], "pack_genome": self.BIG["d_model"],
                 "mc": self.BIG["d_model"]}.get(route, self.BIG["prefill"])
        argv, field = self._argv(route, value, tmp_path, cli_inputs)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "2**53" in err and "runtime error" not in err

    @pytest.mark.parametrize("route", ROUTES)
    def test_2_pow_53_runs(self, tmp_path, capsys, cli_inputs, route):
        argv, _ = self._argv(route, 2**53, tmp_path, cli_inputs)
        assert main(argv) == 0


# Subcommand flags as (valid, broken) argv strategies.  Sizes are capped: at
# most 1 epoch, 2 trials or 2 MC passes, and the 12-row corpus.  A file flag
# names an entry of cli_inputs; the broken ones start with "bad_", and the
# binary checkpoint stands in for an undecodable text file.
def _int_flag(lo, hi, broken=("0", "-1", "x", "1.5", "")):
    return st.integers(lo, hi).map(str), st.sampled_from(list(broken))


_BAD_FRACTION = st.sampled_from(["0", "1", "1.5", "-0.1", "nan", "inf", "x"])
_SEED = _int_flag(0, 2**32, broken=("-1", "x", "1.5"))
_BAD_CHECKPOINTS = ["@bad_checkpoint", "@bad_checkpoint_no_normalizer", "@bad_checkpoint_truncated",
                    "@bad_checkpoint_meta_list", "@bad_checkpoint_meta_nested",
                    "@bad_checkpoint_n_blocks_mismatch",
                    "@bad_checkpoint_p_drop_out_of_range", "@bad_missing"]
_SUBCOMMAND_FLAGS = {
    ("count",): {"--d-model": _int_flag(1, 4096, broken=("0", "-768", "x", "1e3"))},
    ("check-iha",): {
        "--trials": _int_flag(1, 2),
        "--seed": _SEED,
        "--tol": (st.sampled_from(["1e-10", "1e-6", "0.5", "1e3"]),
                  st.sampled_from(["nan", "inf", "-inf", "0", "-1e-10", "x"])),
    },
    ("pack",): {
        "--genome": (st.just("@genome"), st.sampled_from(
            ["@bad_genome_invalid", "@bad_genome_unparseable", "@bad_genome_infinite",
             "@bad_genome_float_field", "@bad_genome_bool_field", "@bad_nested", "@bad_missing",
             "@checkpoint"])),
        "--grid": (st.just("@grid"), st.sampled_from(
            ["@bad_grid", "@bad_nested", "@bad_missing", "@checkpoint"])),
        "--prefill-tokens": _int_flag(1, 2048),
        "--decode-tokens": _int_flag(1, 2048),
        "--top-k": _int_flag(1, 5),
    },
    ("surrogate", "train"): {
        "--corpus": (st.just("@corpus"), st.sampled_from(
            ["@bad_corpus_invalid_genome", "@bad_corpus_string_label",
             "@bad_corpus_bool_label", "@bad_corpus_unparseable", "@bad_corpus_all_nan",
             "@bad_corpus_float_field", "@bad_corpus_bool_field", "@bad_corpus_nested",
             "@bad_nested", "@bad_missing", "@checkpoint"])),
        "--epochs": _int_flag(0, 1, broken=("-1", "x")),
        "--batch-size": _int_flag(1, 16),
        "--lr": (st.floats(1e-6, 1e-2).map(repr),
                 st.sampled_from(["nan", "inf", "0", "-1e-3", "x"])),
        "--seed": _SEED,
        "--test-frac": (st.floats(0.1, 0.5).map(repr), _BAD_FRACTION),
        "--split-seed": _SEED,
    },
    ("surrogate", "eval"): {
        "--corpus": (st.just("@corpus"), st.sampled_from(
            ["@bad_corpus_invalid_genome", "@bad_corpus_string_label", "@bad_corpus_all_nan",
             "@bad_corpus_float_field", "@bad_corpus_nested", "@bad_missing"])),
        "--checkpoint": (st.just("@checkpoint"), st.sampled_from(_BAD_CHECKPOINTS)),
        "--test-frac": (st.floats(0.1, 0.5).map(repr), _BAD_FRACTION),
        "--split-seed": _SEED,
    },
    ("surrogate", "mc"): {
        "--checkpoint": (st.just("@checkpoint"), st.sampled_from(_BAD_CHECKPOINTS)),
        "--genomes": (st.just("@genome_list"), st.sampled_from(
            ["@bad_genome_list_invalid", "@bad_genome_list_empty", "@bad_corpus_unparseable",
             "@bad_genome_list_float_field", "@bad_genome_list_bool_field",
             "@bad_genome_list_nested", "@bad_nested", "@bad_missing", "@checkpoint"])),
        "--n-mc": _int_flag(1, 2),
        "--mc-seed": _SEED,
    },
}
# flags always given: the required ones, and those whose default would make
# a run long (200 epochs, 25 trials, 10 MC passes)
_ALWAYS = {"--genome", "--corpus", "--checkpoint", "--genomes", "--epochs", "--trials", "--n-mc"}
_WRITES_OUT = {("pack",), ("surrogate", "train")}


@st.composite
def fuzzed_subcommands(draw):
    """(argv without --out, whether a flag is broken, whether it writes
    --out).  The flags in _ALWAYS are always given; each other flag is left
    out or given.  A given flag is valid or, one time in four, broken."""
    sub = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    flags = _SUBCOMMAND_FLAGS[sub]
    argv, any_broken = list(sub), False
    for flag in sorted(flags):
        if flag not in _ALWAYS and not draw(st.booleans()):
            continue
        valid, broken = flags[flag]
        is_broken = draw(st.integers(0, 3)) == 0
        argv += [flag, draw(broken if is_broken else valid)]
        any_broken |= is_broken
    return argv, any_broken, sub in _WRITES_OUT


class TestSubcommandFuzz:
    @given(case=fuzzed_subcommands())
    @settings(max_examples=300, deadline=None)
    def test_exit_code_is_0_or_2(self, cli_inputs, case):
        """Never 3; and never a silent 0 when a flag or an input file is broken."""
        argv, broken, writes_out = case
        argv = [str(cli_inputs[a[1:]]) if a.startswith("@") else a for a in argv]
        with tempfile.TemporaryDirectory() as tmp:
            code = run_main(argv + (["--out", str(Path(tmp) / "out")] if writes_out else []))
        event(f"{' '.join(a for a in argv[:2] if not a.startswith('-'))} exit {code}")
        assert code in ((2,) if broken else (0, 2)), argv
