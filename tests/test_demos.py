"""The ring co-search demo runs end to end on the public ``hwcost`` API
(``profile_model``, ``chip_grid_search``, ``ring_cost``)."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ring_packing_demo_exits_zero(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "04_ring_packing.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Pareto-best (chip, plan) pairs" in proc.stdout
