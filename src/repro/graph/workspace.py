"""Reusable per-batch message-passing workspaces.

Every GNN layer routes messages over the same edge set of a batch: a
sparse product with the adjacency matrix (GIN, GCN, SAGE), or gather by
source and scatter-add by destination (GAT, whose edge weights are
learned), optionally over the self-looped edge index with GCN
normalisation. The structures behind those kernels (CSR adjacency
matrices, flattened bincount bins, segment counts, the looped edge index,
normalisation weights) depend only on the batch's topology — not on
features, parameters, layer, epoch, or forward/backward direction — so
they are computed once here and shared by everything that touches the
batch.

Every ``gnn/conv.py`` layer and
:meth:`repro.gnn.GNNEncoder.node_representations` route through one:
:meth:`repro.graph.Batch.workspace` caches one instance per batch, and
single-graph callers build
``MessagePassingWorkspace(graph.edge_index, graph.num_nodes)``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..tensor import ScatterPlan
from .transforms import add_self_loops, normalized_adjacency_weights

__all__ = ["MessagePassingWorkspace"]


def _csr(rows: np.ndarray, cols: np.ndarray, size: int,
         weight: np.ndarray | None) -> sparse.csr_array:
    """``(size, size)`` CSR matrix with one stored entry per edge.

    Built by hand rather than from COO: each row keeps its entries in edge
    order, duplicates unmerged, so a product sums them in that order (the
    order ``np.bincount`` adds them in).
    """
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    data = np.ones(len(rows)) if weight is None else weight[order]
    return sparse.csr_array((data, cols[order], indptr), shape=(size, size))


class MessagePassingWorkspace:
    """Cached adjacency matrices, scatter plans and edge structures.

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
                 "_plans", "_adjacency", "_mean_scale", "_looped",
                 "_gcn_norm")

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
        self._adjacency: dict[tuple[bool, bool], sparse.csr_array] = {}
        self._mean_scale: np.ndarray | None = None
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

    def adjacency(self, normalized: bool = False,
                  transpose: bool = False) -> sparse.csr_array:
        """``A`` with ``A[dst, src] = w``, or ``Aᵀ``, for ``propagate``.

        See :func:`repro.tensor.propagate`. ``normalized`` selects the
        self-looped edges weighted by :meth:`gcn_norm` instead of the raw
        edges with unit weights. ``propagate``'s backward pass asks for
        ``Aᵀ`` on first use, so a forward-only caller never builds it.
        """
        key = (normalized, transpose)
        matrix = self._adjacency.get(key)
        if matrix is None:
            edges = self.looped if normalized else self.edge_index
            if edges.size and (edges.min() < 0
                               or edges.max() >= self.num_nodes):
                raise IndexError(
                    f"edge index out of range for {self.num_nodes} nodes")
            src, dst = edges
            rows, cols = (src, dst) if transpose else (dst, src)
            matrix = _csr(rows, cols, self.num_nodes,
                          self.gcn_norm() if normalized else None)
            self._adjacency[key] = matrix
        return matrix

    def mean_scale(self) -> np.ndarray:
        """``(N, 1)`` column of ``1 / max(in-degree, 1)`` over the raw edges.

        Scales :func:`repro.tensor.propagate`'s neighbour sum to a mean
        (SAGE); a node without in-edges keeps a zero sum.
        """
        if self._mean_scale is None:
            counts = np.maximum(np.diff(self.adjacency().indptr), 1.0)
            self._mean_scale = (1.0 / counts)[:, None]
        return self._mean_scale

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
