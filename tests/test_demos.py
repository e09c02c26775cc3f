"""The quick demos run end to end on the public API.  Demos 01, 02 and 05 build
genes, global configs and workloads by hand; 04 runs the ring co-search
(``profile_model``, ``chip_grid_search``, ``ring_cost``).  Demos 03 and 06
take 10-12 s each and are not run here."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_ring_packing_demo_exits_zero(tmp_path):
    assert "Pareto-best (chip, plan) pairs" in _run_demo("04_ring_packing", tmp_path)


@pytest.mark.parametrize("name, marker", [
    ("01_design_space", "random genomes are always valid"),
    ("02_attention_kernel", "attn=0 output is the input  : True"),
    ("05_search", "final archive"),
])
def test_demo_exits_zero(tmp_path, name, marker):
    assert marker in _run_demo(name, tmp_path)
