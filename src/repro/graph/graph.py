"""Graph container — the ``G = (V, H, A)`` of the paper's §III.A.

A :class:`Graph` stores node features ``x`` (the initial representation
``H``), a directed ``edge_index`` in COO form (shape ``(2, E)``; undirected
graphs store both directions, PyG-style), an optional label ``y``, and an
arbitrary metadata dict for generator-side ground truth (e.g. which nodes
belong to the planted semantic motif).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

import numpy as np

__all__ = ["Graph", "update_graph_hash"]


@lru_cache(maxsize=32)
def _dtype_tag(dtype: np.dtype) -> bytes:
    # ``str(dtype)`` costs more than hashing a small graph's bytes.
    return str(dtype).encode()


def update_graph_hash(hasher, graph: Graph) -> None:
    """Feed ``graph``'s features and edges (not labels) to ``hasher``.

    Serving digests, precompute-cache keys and run-manifest fingerprints
    all hash this layout and are persisted, so it must never change.
    """
    for tag, array in ((b"x", graph.x), (b"e", graph.edge_index)):
        hasher.update(tag)
        hasher.update(str(array.shape).encode())
        hasher.update(_dtype_tag(array.dtype))
        hasher.update(np.ascontiguousarray(array).tobytes())


def induced_edges(edge_index: np.ndarray, num_nodes: int,
                  keep: np.ndarray) -> np.ndarray:
    """Edges of ``edge_index`` between kept nodes, relabelled to positions
    in ``keep`` (an int64 index array); edge order is preserved."""
    if keep.size and (keep.min() < 0 or keep.max() >= num_nodes):
        raise ValueError("keep indices out of range")
    relabel = -np.ones(num_nodes, dtype=np.int64)
    relabel[keep] = np.arange(keep.size)
    src, dst = edge_index
    surviving = (relabel[src] >= 0) & (relabel[dst] >= 0)
    return np.stack([relabel[src[surviving]], relabel[dst[surviving]]])


class Graph:
    """A single attributed graph.

    Parameters
    ----------
    x:
        Node feature matrix, shape ``(num_nodes, num_features)``.
    edge_index:
        ``(2, E)`` int array of directed edges ``src → dst``. Undirected
        graphs must contain both orientations of every edge.
    y:
        Optional label — an int (graph classification) or a float vector
        (multi-task binary labels, NaN marks missing entries).
    meta:
        Optional metadata (planted motif mask, scaffold id, …). Never used by
        models; used by tests, benches and visualisation.
    """

    __slots__ = ("x", "edge_index", "y", "meta", "_degrees")

    def __init__(self, x: np.ndarray, edge_index: np.ndarray,
                 y: Any = None, meta: dict | None = None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D (nodes × features), got {x.shape}")
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.size == 0:
            edge_index = edge_index.reshape(2, 0)
        if edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
        if edge_index.size and (edge_index.min() < 0
                                or edge_index.max() >= x.shape[0]):
            raise ValueError("edge_index references nodes outside [0, num_nodes)")
        self.x = x
        self.edge_index = edge_index
        self.y = y
        self.meta = meta or {}
        self._degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of directed edge entries (2× undirected edge count)."""
        return self.edge_index.shape[1]

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    def __repr__(self) -> str:
        return (f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
                f"num_features={self.num_features}, y={self.y!r})")

    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Out-degree of every node (== in-degree for undirected graphs).

        Computed lazily once per graph and cached (graphs are treated as
        immutable after construction; every transform in this codebase
        builds a new :class:`Graph`). The returned array is marked
        read-only so a caller cannot poison the cache in place.
        """
        if self._degrees is None:
            degrees = np.bincount(self.edge_index[0],
                                  minlength=self.num_nodes).astype(np.float64)
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix ``A`` (paper Eq. 5 distances use it)."""
        adjacency = np.zeros((self.num_nodes, self.num_nodes))
        adjacency[self.edge_index[0], self.edge_index[1]] = 1.0
        return adjacency

    def copy(self) -> "Graph":
        return Graph(self.x.copy(), self.edge_index.copy(), self.y,
                     dict(self.meta))

    # ------------------------------------------------------------------
    def subgraph(self, keep: np.ndarray) -> "Graph":
        """Induced subgraph on the node index array ``keep``.

        This is the node-dropping primitive Φ of Definition 3: dropped
        nodes disappear together with all incident edges; surviving nodes
        are relabelled to ``0..len(keep)-1`` preserving order.
        """
        keep = np.asarray(keep, dtype=np.int64)
        new_edges = induced_edges(self.edge_index, self.num_nodes, keep)
        meta = dict(self.meta)
        meta["parent_nodes"] = keep.copy()
        return Graph(self.x[keep], new_edges, self.y, meta)

    def drop_nodes(self, drop: np.ndarray) -> "Graph":
        """Complement of :meth:`subgraph` — drop the listed nodes."""
        drop_set = np.zeros(self.num_nodes, dtype=bool)
        drop_set[np.asarray(drop, dtype=np.int64)] = True
        return self.subgraph(np.flatnonzero(~drop_set))

    def to_networkx(self):
        """Convert to ``networkx.Graph`` (undirected view) for kernels/inspection."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(zip(*self.edge_index))
        return graph

    @staticmethod
    def from_networkx(nx_graph, x: np.ndarray | None = None,
                      y: Any = None, meta: dict | None = None) -> "Graph":
        """Build from ``networkx`` (nodes must be 0..n-1); symmetric edges."""
        import networkx as nx

        nodes = sorted(nx_graph.nodes())
        if nodes != list(range(len(nodes))):
            nx_graph = nx.convert_node_labels_to_integers(nx_graph, ordering="sorted")
        edges = np.array(list(nx_graph.edges()), dtype=np.int64).reshape(-1, 2)
        both = np.concatenate([edges, edges[:, ::-1]], axis=0).T
        if x is None:
            x = np.ones((nx_graph.number_of_nodes(), 1))
        return Graph(x, both, y, meta)
