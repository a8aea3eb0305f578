"""Subgraph-sampling benchmark: sampler throughput and stream shape.

Generates a ``community-1m`` slice and measures every sampler end to end
(seeded node selection + induced-subgraph extraction), writing
``BENCH_sampling.json``:

* **sampler mix** — per-sampler nodes/sec, subgraphs/sec and the
  subgraph-size distribution (node/edge mean, min, max, p90) over the
  same seeded stream the trainer consumes;
* **stream throughput** — a full :class:`repro.sampling.SubgraphStream`
  epoch (sampling + batching + normalisation weights) in batches/sec;
* **determinism** — the whole sweep is drawn twice from the same seeds
  and the payload records (and asserts) that both passes were
  bit-identical, so the committed baseline doubles as a regression check
  on the seeding contract.

Scale the graph and sample counts with ``REPRO_SCALE``. Runnable as a
pytest bench or a plain script (``python benchmarks/bench_sampling.py``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data.io import atomic_write
from repro.runtime import task_seeds
from repro.sampling import SubgraphStream, load_node_dataset, make_sampler

_REPO_ROOT = Path(__file__).resolve().parents[1]
_SAMPLERS = ("walk", "neighbor", "edge")


def _size_distribution(sizes: list[int]) -> dict:
    arr = np.asarray(sizes, dtype=float)
    return {
        "mean": round(float(arr.mean()), 2),
        "min": int(arr.min()),
        "max": int(arr.max()),
        "p90": round(float(np.percentile(arr, 90)), 1),
    }


def _bench_sampler(name: str, dataset, num_samples: int, seed: int) -> dict:
    sampler = make_sampler(name, dataset)
    seeds = task_seeds(seed, num_samples)
    started = time.perf_counter()
    graphs = [sampler.sample(s) for s in seeds]
    elapsed = time.perf_counter() - started
    # Second pass from the same seeds: the determinism contract, measured
    # on the exact workload the committed numbers describe.
    replay = [sampler.sample(s) for s in seeds]
    identical = all(
        np.array_equal(a.meta["node_id"], b.meta["node_id"])
        and np.array_equal(a.edge_index, b.edge_index)
        for a, b in zip(graphs, replay))
    assert identical, f"{name} sampler is not seed-deterministic"
    total_nodes = sum(g.num_nodes for g in graphs)
    return {
        "sampler": name,
        "samples": num_samples,
        "seconds": round(elapsed, 4),
        "subgraphs_per_sec": round(num_samples / elapsed, 1),
        "nodes_per_sec": round(total_nodes / elapsed, 1),
        "subgraph_nodes": _size_distribution([g.num_nodes for g in graphs]),
        "subgraph_edges": _size_distribution(
            [g.num_edges // 2 for g in graphs]),
        "deterministic": identical,
    }


def _bench_stream(dataset, samples_per_epoch: int, batch_size: int) -> dict:
    stream = SubgraphStream(make_sampler("walk", dataset),
                            samples_per_epoch=samples_per_epoch,
                            batch_size=batch_size, seed=0,
                            norm_samples=min(50, samples_per_epoch))
    started = time.perf_counter()
    batches = [(batch.num_nodes, float(norms.sum()))
               for batch, norms in stream.batches(epoch=0)]
    elapsed = time.perf_counter() - started
    return {
        "samples_per_epoch": samples_per_epoch,
        "batch_size": batch_size,
        "batches": len(batches),
        "seconds": round(elapsed, 4),
        "batches_per_sec": round(len(batches) / elapsed, 2),
        "nodes_per_sec": round(sum(n for n, _ in batches) / elapsed, 1),
    }


def run_sampling_benchmark(scale: float = 1.0) -> dict:
    graph_scale = 0.02 * scale
    dataset = load_node_dataset("community-1m", seed=0, scale=graph_scale)
    num_samples = max(16, int(64 * scale))
    mix = [_bench_sampler(name, dataset, num_samples, seed=0)
           for name in _SAMPLERS]
    stream = _bench_stream(dataset, samples_per_epoch=num_samples,
                           batch_size=8)
    return {
        "bench": "sampling",
        "config": {
            "dataset": "community-1m",
            "graph_scale": graph_scale,
            "num_nodes": dataset.num_nodes,
            "num_edges": dataset.num_edges // 2,
            "samples_per_sampler": num_samples,
        },
        "cpu_count": os.cpu_count() or 1,
        "sampler_mix": mix,
        "stream": stream,
        "deterministic": all(row["deterministic"] for row in mix),
    }


def _write_payload(payload: dict) -> None:
    out = _REPO_ROOT / "BENCH_sampling.json"
    with atomic_write(out) as tmp:
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")


def test_sampling(benchmark, scale):
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_sampling_benchmark(scale))
    print("\n=== subgraph sampling: throughput by sampler ===")
    for row in payload["sampler_mix"]:
        nodes = row["subgraph_nodes"]
        print(f"{row['sampler']:>9}: {row['nodes_per_sec']:>10.0f} nodes/s  "
              f"{row['subgraphs_per_sec']:>7.1f} subgraphs/s  "
              f"size mean {nodes['mean']:.0f} [{nodes['min']}, "
              f"{nodes['max']}]")
    stream = payload["stream"]
    print(f"stream: {stream['batches_per_sec']:.2f} batches/s "
          f"({stream['nodes_per_sec']:.0f} nodes/s incl. normalisation)")
    assert payload["deterministic"]
    _write_payload(payload)


if __name__ == "__main__":
    _write_payload(run_sampling_benchmark(
        float(os.environ.get("REPRO_SCALE", "1.0"))))
