"""Shape checks of the ``BENCH_*.json`` perf artifacts at the repo root.

Each check runs against whatever file is on disk: the committed baseline
in the default suite, and the freshly regenerated file when a CI job
reruns this module right after the bench script that writes it, e.g.::

    python benchmarks/bench_serving_load.py
    python -m pytest tests/test_bench_artifacts.py -k serving
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

from repro.obs.profiler import INSTRUMENTED_MODULES

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str) -> dict:
    with open(ROOT / name) as fh:
        return json.load(fh)


def test_bench_serving():
    payload = _load("BENCH_serving.json")
    assert payload["bench"] == "serving_load"
    assert payload["sweep"], "worker-count sweep missing"
    for row in payload["sweep"]:
        for key in ("workers", "policy", "p50_ms", "p99_ms",
                    "throughput_gps", "hit_rate", "shed_rate"):
            assert key in row, f"sweep row missing {key}"
    rates = payload["hash_vs_random_hit_rate"]
    for workers, pair in rates.items():
        if int(workers) >= 2:
            assert pair["hash"] > pair["random"], (workers, pair)
    assert payload["failover"]["bit_identical"] is True
    assert payload["failover"]["version_mixing"] is False
    assert 0.0 <= payload["open_loop"]["shed_rate"] <= 1.0


def test_bench_sampling():
    payload = _load("BENCH_sampling.json")
    assert payload["bench"] == "sampling"
    assert payload["deterministic"] is True
    for key in ("dataset", "graph_scale", "num_nodes", "num_edges",
                "samples_per_sampler"):
        assert key in payload["config"], f"config missing {key}"
    names = [row["sampler"] for row in payload["sampler_mix"]]
    assert names == ["walk", "neighbor", "edge"], names
    for row in payload["sampler_mix"]:
        for key in ("samples", "seconds", "subgraphs_per_sec",
                    "nodes_per_sec", "subgraph_nodes",
                    "subgraph_edges", "deterministic"):
            assert key in row, f"sampler row missing {key}"
        assert row["deterministic"] is True, row
    for key in ("batches", "batches_per_sec", "nodes_per_sec"):
        assert key in payload["stream"], f"stream missing {key}"


def test_bench_hotpath():
    payload = _load("BENCH_hotpath.json")
    assert payload["bench"] == "hotpath"
    assert payload["rows"], "hot-path rows missing"
    for row in payload["rows"]:
        for key in ("span", "op", "calls", "self_s", "cum_s",
                    "self_share", "bytes_out", "flops"):
            assert key in row, f"row missing {key}"
    assert payload["by_op"], "per-op totals missing"
    # An op renamed or deleted since the baseline was recorded leaves a
    # stale key here; regenerate with `python benchmarks/bench_hotpath.py`.
    labels = {label for name in INSTRUMENTED_MODULES
              for _, label, _ in importlib.import_module(name).PROFILED_OPS}
    stale = set(payload["by_op"]) - labels - {"(other)"}
    assert not stale, f"baseline ops no module profiles: {sorted(stale)}"
    for key in ("dataset", "scale", "epochs", "batch_size", "seed",
                "max_graphs"):
        assert key in payload["config"], f"config missing {key}"
    assert payload["attributed_fraction"] >= 0.90, \
        payload["attributed_fraction"]
    assert abs(sum(r["self_share"] for r in payload["rows"]) - 1.0) < 0.02


def test_bench_runtime():
    payload = _load("BENCH_runtime.json")
    assert payload["bench"] == "runtime_scaling"
    assert isinstance(payload["cpu_count"], int) and payload["cpu_count"] >= 1
    assert isinstance(payload["fork_available"], bool)
    assert isinstance(payload["parallel_viable"], bool)
    assert payload["note"], "verdict note missing"
    assert [row["workload"] for row in payload["rows"]] == \
        ["lipschitz_precompute", "eval_folds"]
    for row in payload["rows"]:
        for key in ("workload", "seconds_workers_1", "seconds_workers_2",
                    "speedup"):
            assert key in row, f"runtime row missing {key}"
        assert row["seconds_workers_1"] > 0 and row["seconds_workers_2"] > 0
        assert abs(row["speedup"] - row["seconds_workers_1"]
                   / row["seconds_workers_2"]) < 0.01, row
