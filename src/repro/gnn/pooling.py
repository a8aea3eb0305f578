"""Graph-level readouts (global pooling) over batched node representations.

Each readout routes nodes into graphs like the segment ops do: by a
``node_graph`` index array plus ``num_graphs``, or by a
:class:`~repro.tensor.ScatterPlan` such as
``batch.workspace().pool_plan()``, which carries its own graph count.
"""

from __future__ import annotations

import numpy as np

from ..tensor import (
    ScatterPlan,
    Tensor,
    segment_max,
    segment_mean,
    segment_sum,
)

__all__ = [
    "global_sum_pool",
    "global_mean_pool",
    "global_max_pool",
    "weighted_sum_pool",
    "POOLING_TYPES",
]


def global_sum_pool(x: Tensor, node_graph: np.ndarray | ScatterPlan,
                    num_graphs: int | None = None) -> Tensor:
    """Sum node representations per graph — SGCL's default readout."""
    return segment_sum(x, node_graph, num_graphs)


def global_mean_pool(x: Tensor, node_graph: np.ndarray | ScatterPlan,
                     num_graphs: int | None = None) -> Tensor:
    return segment_mean(x, node_graph, num_graphs)


def global_max_pool(x: Tensor, node_graph: np.ndarray | ScatterPlan,
                    num_graphs: int | None = None) -> Tensor:
    return segment_max(x, node_graph, num_graphs)


def weighted_sum_pool(x: Tensor, weights: Tensor,
                      node_graph: np.ndarray | ScatterPlan,
                      num_graphs: int | None = None) -> Tensor:
    """Sum pooling with per-node scalar weights.

    Implements Eq. 21's ``Pooling(f_k(H, A) ⊙ K_V)``: node representations are
    scaled by their (Lipschitz-constant) semantic scores before pooling.
    """
    weighted = x * weights.reshape(len(weights), 1)
    return segment_sum(weighted, node_graph, num_graphs)


POOLING_TYPES = {
    "sum": global_sum_pool,
    "mean": global_mean_pool,
    "max": global_max_pool,
}
