"""Schema smoke test for the benchmark: tiny configs, no timing bounds.

    python -m pytest benchmarks/test_smoke.py

Runs every workload with ``--quick`` in both modes and checks that the
result line carries exactly the metrics BENCHMARK.json declares, each with
its declared unit, and that every output check passed.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END, EXPECTED, PER_LAYER, run_check  # noqa: E402
from tracing import SPAN_PROBES, Tracer, _resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 2
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "# env " in proc.stdout and "error_rate = " in proc.stdout


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "benchmarks").mkdir(parents=True)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            (bare / "benchmarks" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "ring-oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_probe():
    sys.path.insert(0, str(ROOT / "src"))
    before = [_resolve(target).__dict__[attr] for target, attr, _ in SPAN_PROBES]
    with Tracer():
        during = [_resolve(target).__dict__[attr] for target, attr, _ in SPAN_PROBES]
    after = [_resolve(target).__dict__[attr] for target, attr, _ in SPAN_PROBES]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_check_search_reproduces_the_recorded_digest(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    check, digest = run_check(WORKLOADS["ring-oracle"], tmp_path)
    assert check.problems == []
    assert digest == json.loads(EXPECTED.read_text())["sha256"]["ring-oracle"]
