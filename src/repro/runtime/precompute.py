"""Fan-out precompute of static per-graph quantities.

Two families of quantities are static enough to precompute and cache:

* **Topology statics** — the topology distance vector ``D_T`` (Eq. 5,
  one entry per single-node drop) and the symmetrically normalized
  adjacency ``D^{-1/2}(A+I)D^{-1/2}``; they depend only on the graph.
* **Lipschitz constants** ``K_V`` under a *frozen* generator — used by the
  Fig. 7 visualisation, ``repro inspect`` and the semantic-identification
  diagnostics, all of which walk a corpus with fixed parameters. The cache
  spec pins the generator's mode and a content hash of its parameters, so
  a fine-tuned generator can never serve stale constants.

Both precompute paths run per graph — never batching several graphs into
one encoder pass — so the results are bit-identical to the serial
one-graph-at-a-time code they replace, with any worker count.
"""

from __future__ import annotations

import numpy as np

from ..graph import Batch, Graph
from ..tensor import no_grad
from .cache import PrecomputeCache, config_hash
from .executor import ParallelExecutor

__all__ = ["graph_statics", "precompute_statics",
           "precompute_node_constants", "generator_spec"]

_STATICS_SPEC = {"kind": "graph_statics", "version": 1}


def graph_statics(graph: Graph) -> dict[str, np.ndarray]:
    """Topology distance vector and normalized adjacency of one graph."""
    from ..core.lipschitz import topology_distance

    adjacency = graph.adjacency() + np.eye(graph.num_nodes)
    inv_sqrt_deg = 1.0 / np.sqrt(adjacency.sum(axis=1))
    return {
        "topology_distance": topology_distance(graph.degrees()),
        "normalized_adjacency":
            adjacency * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :],
    }


def precompute_statics(graphs, *, workers: int | None = None,
                       cache: PrecomputeCache | None = None
                       ) -> list[dict[str, np.ndarray]]:
    """``graph_statics`` for every graph, parallel and optionally cached.

    Returns one dict per input graph, in input order. Cache lookups happen
    in the parent (they are cheap I/O); only the misses fan out.
    """
    return _cached_fan_out(graphs, _STATICS_SPEC, graph_statics,
                           workers=workers, cache=cache)


# ----------------------------------------------------------------------
# Frozen-generator Lipschitz constants
# ----------------------------------------------------------------------
def generator_spec(generator) -> dict:
    """Cache spec pinning a generator's mode + parameter content."""
    return {
        "kind": "lipschitz_kv",
        "version": 1,
        "mode": generator.mode,
        "params": config_hash(generator.state_dict()),
    }


def precompute_node_constants(generator, graphs, *,
                              workers: int | None = None,
                              cache: PrecomputeCache | None = None
                              ) -> list[np.ndarray]:
    """Per-node ``K_V`` of every graph under the generator's current
    parameters; one 1-D array per graph, in input order.

    Forked workers inherit the generator, each computes its graphs'
    constants independently, and results are reassembled in order —
    bit-identical to calling ``generator.node_constants(Batch([g]))`` in a
    loop.
    """
    def constants(graph: Graph) -> dict[str, np.ndarray]:
        with no_grad():
            k_v = generator.node_constants(Batch([graph])).data
        return {"k_v": np.asarray(k_v, dtype=np.float64)}

    spec = generator_spec(generator) if cache is not None else None
    results = _cached_fan_out(graphs, spec, constants, workers=workers,
                              cache=cache)
    return [entry["k_v"] for entry in results]


# ----------------------------------------------------------------------
def _cached_fan_out(graphs, spec: dict | None, job, *,
                    workers: int | None,
                    cache: PrecomputeCache | None) -> list[dict]:
    """``job`` over ``graphs``; ``spec`` keys the cache (unused without)."""
    graphs = list(graphs)
    results: list[dict | None] = [None] * len(graphs)
    missing: list[int] = []
    if cache is not None:
        for index, graph in enumerate(graphs):
            cached = cache.get(graph, spec)
            if cached is not None:
                results[index] = cached
            else:
                missing.append(index)
    else:
        missing = list(range(len(graphs)))
    if missing:
        executor = ParallelExecutor(workers)
        computed = executor.map(job, [graphs[i] for i in missing])
        for index, arrays in zip(missing, computed):
            results[index] = arrays
            if cache is not None:
                cache.put(graphs[index], spec, arrays)
    return results
