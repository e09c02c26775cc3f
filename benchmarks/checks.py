"""Output checks for one ``ihasearch search`` run.

The checks read the written artifacts only.  Dominance is tested by brute
force here rather than through ``ihasearch.metrics``, so a defect in the
program's own Pareto code cannot hide itself.
"""
from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# artifacts that one seed must reproduce byte for byte
DETERMINISTIC = ("archive.csv", "generations.csv", "events.jsonl")
OBJECTIVES = ("val_loss", "e_tok_j", "ttft_s", "tpot_s")


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in DETERMINISTIC:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes() + b"\0")
    return h.hexdigest()


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def check_outputs(out_dir: Path, cfg, n_events: int) -> list[str]:
    """Problems found in one run's artifacts; empty when the run is correct."""
    from ihasearch.genome import from_json, genome_id, validate

    problems = []
    with open(out_dir / "archive.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    points = []
    for row in rows:
        values = tuple(float(row[k]) for k in OBJECTIVES)
        if row["feasible"] != "true" or not all(map(math.isfinite, values)):
            problems.append(f"archive row {row['genome_id']} is not feasible")
        elif values[0] >= cfg.val_loss_max:
            problems.append(f"archive row {row['genome_id']} breaks val_loss_max")
        points.append(values)
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i != j and _dominates(a, b):
                problems.append(f"archive row {rows[i]['genome_id']} dominates "
                                f"row {rows[j]['genome_id']}")

    ids = {row["genome_id"] for row in rows}
    files = {p.stem for p in (out_dir / "genomes").glob("*.json")}
    if files != ids:
        problems.append(f"genomes/ holds {len(files)} files for {len(ids)} archive rows")
    for gid in sorted(files & ids):
        genome = from_json((out_dir / "genomes" / f"{gid}.json").read_text())
        bad = validate(genome)
        if bad:
            problems.append(f"genome {gid} is invalid: {bad[0]}")
        elif genome_id(genome) != gid:
            problems.append(f"genome file {gid} holds genome {genome_id(genome)}")

    with open(out_dir / "events.jsonl") as fh:
        events = sum(1 for line in fh if line.strip())
    if events != n_events:
        problems.append(f"events.jsonl has {events} events, expected {n_events}")
    return problems
