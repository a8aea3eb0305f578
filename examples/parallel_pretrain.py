"""Parallel runtime demo: seed fan-out and the precompute cache.

Walks through the two pieces of ``repro.runtime`` on a small SGCL
workload and demonstrates the determinism contract — every worker count
produces bit-identical numbers, parallelism only moves wall-time:

1. multi-seed unsupervised evaluation fanned out over 2 worker processes
   (``run_unsupervised(workers=2)``) checked against the serial run;
2. Lipschitz-constant precompute under the frozen generator of a
   pre-trained model, served twice from a content-addressed
   ``PrecomputeCache`` — the second pass never touches the encoder.

Run from the repository root::

    PYTHONPATH=src python examples/parallel_pretrain.py

Worker counts can also come from the environment (``REPRO_WORKERS=2``) or
the CLI (``python -m repro pretrain --workers 2``).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.bench import run_unsupervised
from repro.core import SGCLConfig, SGCLTrainer
from repro.data import load_dataset
from repro.runtime import PrecomputeCache, resolve_workers


def main() -> None:
    dataset = load_dataset("MUTAG", seed=0, scale=0.15)
    workers = max(2, resolve_workers())

    # 1. Seed fan-out: serial vs parallel evaluation of the same cells.
    settings = dict(seeds=[0, 1], scale=0.1, epochs=1, folds=3)
    start = time.perf_counter()
    serial = run_unsupervised("SGCL", "MUTAG", workers=1, **settings)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_unsupervised("SGCL", "MUTAG", workers=workers, **settings)
    parallel_s = time.perf_counter() - start
    print(f"unsupervised MUTAG, 2 seeds: serial {serial_s:.1f}s, "
          f"{workers} workers {parallel_s:.1f}s")
    print(f"  serial   mean±std: {serial[0]:.2f} ± {serial[1]:.2f} %")
    print(f"  parallel mean±std: {parallel[0]:.2f} ± {parallel[1]:.2f} %")
    assert serial == parallel, "worker count must never change results"

    # 2. Content-addressed precompute cache for frozen-generator K_V.
    trainer = SGCLTrainer(dataset.num_features,
                          SGCLConfig(epochs=2, batch_size=32, seed=0))
    trainer.pretrain(dataset.graphs)
    cache = PrecomputeCache(Path("runs") / "precompute-cache")
    for attempt in ("cold", "warm"):
        start = time.perf_counter()
        constants = trainer.precompute_lipschitz(
            dataset.graphs, workers=workers, cache=cache)
        seconds = time.perf_counter() - start
        print(f"K_V precompute ({attempt}): {len(constants)} graphs "
              f"in {seconds:.2f}s — cache stats {cache.stats()}")


if __name__ == "__main__":
    main()
