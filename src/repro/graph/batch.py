"""Disjoint-union batching of graphs (PyG ``Batch`` analogue).

A batch stacks node features of all member graphs, offsets their edge
indices, and keeps a ``node_graph`` vector mapping every node to its graph
id — the index used by segment-based pooling.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import Graph, induced_edges

__all__ = ["Batch"]


class Batch:
    """A batch of graphs as one big disconnected graph."""

    __slots__ = ("x", "edge_index", "node_graph", "num_graphs", "node_offsets",
                 "graphs", "ys", "parent_nodes", "_degrees", "_workspace")

    def __init__(self, graphs: Sequence[Graph]):
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        self.graphs = list(graphs)
        self.num_graphs = len(graphs)
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
        self.node_offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.x = np.concatenate([g.x for g in graphs], axis=0)
        shifted = [g.edge_index + offset
                   for g, offset in zip(graphs, self.node_offsets[:-1])]
        self.edge_index = np.concatenate(shifted, axis=1) if shifted else \
            np.zeros((2, 0), dtype=np.int64)
        self.node_graph = np.repeat(np.arange(self.num_graphs), sizes)
        self.ys = [g.y for g in graphs]
        self.parent_nodes: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._workspace = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    def __len__(self) -> int:
        return self.num_graphs

    def __repr__(self) -> str:
        return (f"Batch(num_graphs={self.num_graphs}, "
                f"num_nodes={self.num_nodes}, num_edges={self.num_edges})")

    # ------------------------------------------------------------------
    def subgraph(self, nodes: np.ndarray) -> "Batch":
        """Induced sub-batch on the sorted global node ids ``nodes``.

        Equals batching each member's :meth:`Graph.subgraph`, from one
        relabel of the batched ``edge_index``; it has no member ``graphs``
        and maps row ``i`` to row ``parent_nodes[i]`` of this batch (which
        is ``None`` on a batch of graphs).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        sub = Batch.__new__(Batch)
        sub.edge_index = induced_edges(self.edge_index, self.num_nodes, nodes)
        sub.graphs = None
        sub.num_graphs = self.num_graphs
        sub.node_graph = self.node_graph[nodes]
        sizes = np.bincount(sub.node_graph, minlength=self.num_graphs)
        sub.node_offsets = np.concatenate([[0], np.cumsum(sizes)])
        sub.x = self.x[nodes]
        sub.ys = self.ys
        sub.parent_nodes = nodes
        sub._degrees = sub._workspace = None
        return sub

    def degrees(self) -> np.ndarray:
        """Per-node out-degrees across the whole batch (float64, cached)."""
        if self._degrees is None:
            degrees = np.bincount(self.edge_index[0], minlength=self.num_nodes)
            self._degrees = degrees.astype(np.float64)
        return self._degrees

    def workspace(self):
        """Cached :class:`~repro.graph.workspace.MessagePassingWorkspace`.

        Built lazily on first use and reused by every encoder pass (any
        layer, any epoch, forward or backward) over this batch — the
        adjacency matrices, scatter plans, self-looped edge index and GCN
        normalisation weights depend only on the batch topology, which is
        immutable.
        """
        if self._workspace is None:
            from .workspace import MessagePassingWorkspace
            self._workspace = MessagePassingWorkspace(
                self.edge_index, self.num_nodes,
                node_graph=self.node_graph, num_graphs=self.num_graphs)
        return self._workspace

    def labels(self) -> np.ndarray:
        """Stack graph labels into an array (int or float matrix)."""
        return np.asarray(self.ys)

    def nodes_of(self, graph_id: int) -> np.ndarray:
        """Global node indices belonging to graph ``graph_id``."""
        return np.arange(self.node_offsets[graph_id],
                         self.node_offsets[graph_id + 1])
