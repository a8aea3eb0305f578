"""Reusable per-batch message-passing workspaces.

Every GNN layer routes messages over the same edge set of a batch: gather
by source, scatter-add by destination, optionally over the self-looped
edge index with GCN normalisation. The index arithmetic behind those
kernels (flattened bincount bins, segment counts, the looped edge index,
normalisation weights) depends only on the batch's topology — not on
features, parameters, layer, epoch, or forward/backward direction — so it
is computed once here and shared by everything that touches the batch.

Every ``gnn/conv.py`` layer and
:meth:`repro.gnn.GNNEncoder.node_representations` route through one:
:meth:`repro.graph.Batch.workspace` caches one instance per batch, and
single-graph callers build
``MessagePassingWorkspace(graph.edge_index, graph.num_nodes)``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import ScatterPlan
from .transforms import add_self_loops, normalized_adjacency_weights

__all__ = ["MessagePassingWorkspace"]


class MessagePassingWorkspace:
    """Cached scatter plans + derived edge structures for one topology.

    Parameters
    ----------
    edge_index:
        ``(2, E)`` int64 edge array of the (batched) graph.
    num_nodes:
        Total node count (segment count for node-directed scatters).
    node_graph, num_graphs:
        Node→graph routing for the pooling plan; omitted, every node
        belongs to one graph.
    """

    __slots__ = ("edge_index", "num_nodes", "node_graph", "num_graphs",
                 "_plans", "_looped", "_gcn_norm")

    def __init__(self, edge_index: np.ndarray, num_nodes: int,
                 node_graph: np.ndarray | None = None,
                 num_graphs: int | None = None):
        self.edge_index = np.asarray(edge_index, dtype=np.int64)
        self.num_nodes = int(num_nodes)
        if node_graph is None:
            node_graph, num_graphs = np.zeros(self.num_nodes, np.int64), 1
        self.node_graph = node_graph
        self.num_graphs = num_graphs
        self._plans: dict[str, ScatterPlan] = {}
        self._looped: np.ndarray | None = None
        self._gcn_norm: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def looped(self) -> np.ndarray:
        """Edge index with self-loops appended (GCN/GAT convention)."""
        if self._looped is None:
            self._looped = add_self_loops(self.edge_index, self.num_nodes)
        return self._looped

    def gcn_norm(self) -> np.ndarray:
        """Per-edge ``1/sqrt(d_src·d_dst)`` weights over :attr:`looped`."""
        if self._gcn_norm is None:
            self._gcn_norm = normalized_adjacency_weights(
                self.looped, self.num_nodes)
        return self._gcn_norm

    def plan(self, direction: str) -> ScatterPlan:
        """Scatter plan routing edges into nodes.

        ``direction`` is one of ``src`` / ``dst`` (raw edges) or
        ``looped_src`` / ``looped_dst`` (self-looped edges).
        """
        plan = self._plans.get(direction)
        if plan is None:
            if direction == "src":
                index = self.edge_index[0]
            elif direction == "dst":
                index = self.edge_index[1]
            elif direction == "looped_src":
                index = self.looped[0]
            elif direction == "looped_dst":
                index = self.looped[1]
            else:
                raise ValueError(f"unknown plan direction {direction!r}")
            plan = ScatterPlan(index, self.num_nodes)
            self._plans[direction] = plan
        return plan

    def pool_plan(self) -> ScatterPlan:
        """Scatter plan routing nodes into graphs."""
        plan = self._plans.get("pool")
        if plan is None:
            plan = ScatterPlan(self.node_graph, self.num_graphs)
            self._plans["pool"] = plan
        return plan
