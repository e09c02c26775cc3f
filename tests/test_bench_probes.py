"""The benchmark's per-layer probes still match the package.

``benchmarks/tracing.py`` wraps functions at the module attributes their
callers look up.  A rename or a changed call path in ``ihasearch`` would
otherwise only show when the benchmark runs with tracing on.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from ihasearch import cli

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _originals(tracing):
    return [
        tracing._resolve(target).__dict__.get(attr)
        for target, attr, _ in tracing.SPAN_PROBES
    ]


def test_every_probe_target_resolves(tracing):
    for (target, attr, _), fn in zip(tracing.SPAN_PROBES, _originals(tracing)):
        assert callable(fn), f"{target}.{attr} is not a function of the package"


def test_install_and_restore(tracing):
    before = _originals(tracing)
    tracer = tracing.Tracer()
    with tracer:
        during = _originals(tracing)
        assert all(a is not b for a, b in zip(before, during))
        with pytest.raises(RuntimeError):
            tracer.install()
    assert all(a is b for a, b in zip(before, _originals(tracing)))


def test_search_paths_pass_through_the_probes(tracing, tmp_path, capsys):
    """An NSGA oracle search on each backend records a span for every probe
    outside the encoder surrogate and the two functions no search calls, so
    each probe sits where its caller looks.  A ring search simulates from
    terms it computes once per call, and a pack builds its partition from
    its last probe, so neither ``ring_simulate`` nor
    ``greedy_contiguous_partition`` runs."""
    base = {"population_size": 6, "offspring_size": 4, "generations": 2,
            "refine_every_generations": 0, "evaluator": "oracle", "seed": 1}
    configs = {
        "analytic": dict(base, backend="analytic:gemmini"),
        "ring": dict(base, backend="ring", val_loss_max=3.5,
                     prefill_tokens=512, decode_tokens=256),
    }
    tracer = tracing.Tracer()
    with tracer:
        for name, cfg in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            # looked up at call time, as the benchmark does, so cli.main's probe sees it
            assert cli.main(["search", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    recorded = set(tracer.summary()["calls"])
    surrogate_only = ("surrogate.encoder.", "surrogate.features.", "surrogate.training.")
    not_searched = {"hwcost.ring.ring_simulate", "hwcost.packing.greedy_contiguous_partition"}
    expected = {name for _, _, name in tracing.SPAN_PROBES
                if not name.startswith(surrogate_only)} - not_searched
    assert expected - recorded == set()
    assert recorded & not_searched == set()
