"""Serving-fleet load benchmark: latency, hit rate, shed rate, failover.

Drives a :class:`repro.fleet.FleetRouter` with a synthetic workload whose
graph popularity is zipfian (a few hot graphs, a long cold tail — the
shape real serving traffic has) and writes ``BENCH_serving.json``:

* **closed loop** — one request in flight at a time, per-request latency
  measured directly: p50/p99 and throughput for every (worker count,
  routing policy) combination in the sweep.
* **hash vs random routing** — the load-bearing comparison: under
  ``policy="hash"`` every digest has one home shard, so the fleet's
  caches partition the corpus and the fleet-wide hit rate approaches a
  single cache with N× capacity; under ``policy="random"`` the same
  replicas act as N independent LRUs that each re-embed whatever lands
  on them. The bench asserts hash routing's hit rate is **strictly
  higher** for every N >= 2.
* **open loop** — Poisson arrivals at ~2× the measured service rate;
  requests whose queueing delay blows a deadline are shed before
  dispatch, giving the shed rate under overload.
* **failover** — one of two replicas is killed mid-load; the remaining
  requests must all complete on the survivor, bit-identical to the
  single-service reference and without mixing model versions.

Scale the request volume with ``REPRO_SCALE``; with ``REPRO_LOG_DIR``
set the whole run is traced through the ambient observer
(``fleet/route`` and per-shard spans). Runnable as a pytest bench or a
plain script (``python benchmarks/bench_serving_load.py``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data.io import atomic_write
from repro.fleet import build_fleet
from repro.gnn import GNNEncoder
from repro.graph import Graph
from repro.obs import current
from repro.serve import EmbeddingService, save_checkpoint

_REPO_ROOT = Path(__file__).resolve().parents[1]
_WORKER_COUNTS = (1, 2, 4)
_POLICIES = ("hash", "random")
_FEATURES = 6
_CACHE_PER_WORKER = 48
_BATCH_SIZE = 8
_ZIPF_EXPONENT = 1.1


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def _make_corpus(rng: np.random.Generator, num_graphs: int) -> list[Graph]:
    """Synthetic request corpus: small chain graphs with random features."""
    graphs = []
    for _ in range(num_graphs):
        n = int(rng.integers(4, 10))
        pairs = np.array([(i, i + 1) for i in range(n - 1)])
        edge_index = np.concatenate([pairs, pairs[:, ::-1]], axis=0).T
        graphs.append(Graph(rng.normal(size=(n, _FEATURES)), edge_index, y=0))
    return graphs


def _zipf_request_stream(rng: np.random.Generator, corpus_size: int,
                         num_requests: int, batch_size: int) -> list[np.ndarray]:
    """Batches of corpus indices drawn from a zipfian popularity curve."""
    ranks = np.arange(1, corpus_size + 1, dtype=float)
    weights = ranks ** -_ZIPF_EXPONENT
    weights /= weights.sum()
    # Decouple popularity rank from corpus order (and therefore from digest
    # space) so hot keys are spread across shards.
    popularity = rng.permutation(corpus_size)
    draws = rng.choice(corpus_size, size=num_requests * batch_size, p=weights)
    indices = popularity[draws]
    return [indices[i * batch_size:(i + 1) * batch_size]
            for i in range(num_requests)]


def _percentiles(latencies: list[float]) -> dict:
    arr = np.asarray(latencies, dtype=float)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 4),
        "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 4),
        "mean_ms": round(float(arr.mean()) * 1e3, 4),
    }


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _closed_loop(router, corpus, stream, reference) -> dict:
    """One request in flight at a time; every row checked against reference."""
    latencies = []
    started = time.perf_counter()
    for batch in stream:
        graphs = [corpus[i] for i in batch]
        t0 = time.perf_counter()
        rows = router.embed(graphs)
        latencies.append(time.perf_counter() - t0)
        assert np.array_equal(rows, reference[batch]), \
            "fleet rows diverged from the single-service reference"
    elapsed = time.perf_counter() - started
    stats = router.stats()
    return {
        "mode": "closed_loop",
        "workers": stats["workers"],
        "policy": stats["policy"],
        "requests": len(stream),
        "graphs": stats["graphs"],
        **_percentiles(latencies),
        "throughput_gps": round(stats["graphs"] / elapsed, 1),
        "hit_rate": round(stats["cache"]["hit_rate"], 4),
        "cache_occupancy": round(stats["cache"]["occupancy"], 4),
        "shed_rate": 0.0,
        "failover": stats["failover"],
    }


def _open_loop(router, corpus, stream, reference, *,
               service_seconds_per_request: float) -> dict:
    """Poisson arrivals at ~2x the service rate; stale requests are shed.

    Single-threaded simulation of an open-loop generator: arrival times
    are drawn up front; a request whose queueing delay already exceeds
    the deadline when the server gets to it is shed before dispatch
    (the client has given up — embedding it would waste the budget of
    every request behind it).
    """
    rng = np.random.default_rng(7)
    mean_interarrival = service_seconds_per_request / 2.0  # ~2x overload
    arrivals = np.cumsum(rng.exponential(mean_interarrival, size=len(stream)))
    deadline = max(4.0 * service_seconds_per_request, 1e-3)
    latencies = []
    shed = 0
    started = time.perf_counter()
    for arrival, batch in zip(arrivals, stream):
        now = time.perf_counter() - started
        if now < arrival:  # idle: the generator hasn't produced it yet
            time.sleep(arrival - now)
            now = time.perf_counter() - started
        if now - arrival > deadline:
            shed += 1
            continue
        rows = router.embed([corpus[i] for i in batch])
        assert np.array_equal(rows, reference[batch])
        latencies.append((time.perf_counter() - started) - arrival)
    return {
        "mode": "open_loop",
        "workers": router.stats()["workers"],
        "policy": router.policy,
        "requests": len(stream),
        "served": len(latencies),
        "shed": shed,
        "shed_rate": round(shed / len(stream), 4),
        "deadline_ms": round(deadline * 1e3, 3),
        "offered_rps": round(1.0 / mean_interarrival, 1),
        **(_percentiles(latencies) if latencies
           else {"p50_ms": None, "p99_ms": None, "mean_ms": None}),
    }


def _failover(checkpoint, corpus, stream, reference) -> dict:
    """Kill one of two replicas mid-load; the survivor must absorb it all."""
    with build_fleet(checkpoint, 2, cache_size=_CACHE_PER_WORKER,
                     policy="hash") as router:
        half = len(stream) // 2
        versions = set()
        for batch in stream[:half]:
            result = router.embed_detailed([corpus[i] for i in batch])
            versions |= result.served_versions()
        router.worker("w0").kill()
        identical = True
        for batch in stream[half:]:
            result = router.embed_detailed([corpus[i] for i in batch])
            versions |= result.served_versions()
            identical &= bool(
                np.array_equal(result.embeddings, reference[batch]))
            assert set(result.workers) == {"w1"}, \
                "dead replica served traffic"
        stats = router.stats()
        return {
            "mode": "failover",
            "workers": 2,
            "killed": "w0",
            "requests": len(stream),
            "failover": stats["failover"],
            "bit_identical": identical,
            "versions": sorted(versions),
            "version_mixing": len(versions) > 1,
        }


# ----------------------------------------------------------------------
def run_serving_benchmark(scale: float = 1.0) -> dict:
    rng = np.random.default_rng(42)
    corpus_size = max(60, int(150 * min(scale, 4.0)))
    num_requests = max(40, int(120 * scale))
    corpus = _make_corpus(rng, corpus_size)
    stream = _zipf_request_stream(rng, corpus_size, num_requests, _BATCH_SIZE)

    tmp = Path(tempfile.mkdtemp(prefix="bench-serving-"))
    encoder = GNNEncoder(_FEATURES, 16, 2, rng=np.random.default_rng(0))
    checkpoint = save_checkpoint(tmp / "bench.npz", encoder,
                                 metadata={"name": "bench-v1"})
    reference = EmbeddingService(
        encoder, cache_size=corpus_size).embed(corpus)

    obs = current()
    sweep = []
    hit_rates: dict[int, dict[str, float]] = {}
    with obs.span("bench/serving_sweep"):
        for workers in _WORKER_COUNTS:
            for policy in _POLICIES:
                with build_fleet(checkpoint, workers,
                                 cache_size=_CACHE_PER_WORKER,
                                 policy=policy) as router:
                    row = _closed_loop(router, corpus, stream, reference)
                sweep.append(row)
                hit_rates.setdefault(workers, {})[policy] = row["hit_rate"]

    # The tentpole claim: consistent-hash sharding beats N independent LRUs.
    for workers, rates in hit_rates.items():
        if workers >= 2:
            assert rates["hash"] > rates["random"], (
                f"hash routing must beat random at {workers} workers: "
                f"{rates['hash']:.3f} vs {rates['random']:.3f}")

    service_seconds = np.mean(
        [r["mean_ms"] for r in sweep if r["workers"] == 2
         and r["policy"] == "hash"]) * 1e-3
    with obs.span("bench/serving_open_loop"), \
            build_fleet(checkpoint, 2, cache_size=_CACHE_PER_WORKER,
                        policy="hash") as router:
        open_loop = _open_loop(router, corpus, stream, reference,
                               service_seconds_per_request=service_seconds)

    with obs.span("bench/serving_failover"):
        failover = _failover(checkpoint, corpus, stream, reference)
    assert failover["bit_identical"] and not failover["version_mixing"]

    return {
        "bench": "serving_load",
        "corpus_graphs": corpus_size,
        "requests": num_requests,
        "batch_size": _BATCH_SIZE,
        "zipf_exponent": _ZIPF_EXPONENT,
        "cache_per_worker": _CACHE_PER_WORKER,
        "cpu_count": os.cpu_count() or 1,
        "sweep": sweep,
        "hash_vs_random_hit_rate": {
            str(workers): rates for workers, rates in hit_rates.items()},
        "open_loop": open_loop,
        "failover": failover,
    }


def _write_payload(payload: dict) -> None:
    out = _REPO_ROOT / "BENCH_serving.json"
    with atomic_write(out) as tmp:
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")


def test_serving_load(benchmark, scale):
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_serving_benchmark(scale))
    print("\n=== serving load: latency / hit rate by worker count ===")
    for row in payload["sweep"]:
        print(f"workers={row['workers']} policy={row['policy']:>6}: "
              f"p50 {row['p50_ms']:7.2f}ms  p99 {row['p99_ms']:7.2f}ms  "
              f"{row['throughput_gps']:8.0f} graphs/s  "
              f"hit rate {row['hit_rate']:.3f}")
    ol = payload["open_loop"]
    print(f"open loop @ {ol['offered_rps']} rps: shed rate "
          f"{ol['shed_rate']:.3f} ({ol['shed']}/{ol['requests']})")
    fo = payload["failover"]
    print(f"failover: {fo['failover']} reroute(s), bit_identical="
          f"{fo['bit_identical']}, versions={fo['versions']}")
    _write_payload(payload)


if __name__ == "__main__":
    _write_payload(run_serving_benchmark(
        float(os.environ.get("REPRO_SCALE", "1.0"))))
