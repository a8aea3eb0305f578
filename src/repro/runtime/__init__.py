"""Parallel runtime: worker pools and the precompute cache.

The execution substrate behind every ``--workers`` flag:

* :class:`ParallelExecutor` — deterministic process-pool map (contiguous
  chunking, per-task seeds derived from the run seed, bounded retries,
  serial fallback when ``workers <= 1`` or the platform lacks ``fork``).
* :class:`PrecomputeCache` — content-addressed on-disk store for static
  per-graph quantities (keys: graph fingerprint + config hash; atomic
  writes).
* :mod:`~repro.runtime.precompute` — fan-out helpers for topology
  statics and frozen-generator Lipschitz constants.

The determinism contract across the subsystem: with a fixed seed, any
worker count (including serial) produces bit-identical results — workers
change wall-time, never numbers. See docs/RUNTIME.md.
"""

from .cache import PrecomputeCache, config_hash, graph_fingerprint
from .executor import (
    ParallelExecutionError,
    ParallelExecutor,
    fork_available,
    resolve_workers,
    task_seeds,
)
from .precompute import (
    generator_spec,
    graph_statics,
    precompute_node_constants,
    precompute_statics,
)

__all__ = [
    "ParallelExecutor",
    "ParallelExecutionError",
    "fork_available",
    "resolve_workers",
    "task_seeds",
    "PrecomputeCache",
    "config_hash",
    "graph_fingerprint",
    "generator_spec",
    "graph_statics",
    "precompute_node_constants",
    "precompute_statics",
]
