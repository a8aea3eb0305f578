"""Graph convolution layers: GIN, GCN, GraphSAGE, GAT.

All layers share the signature ``forward(x, workspace, node_weight=None)``
where ``x`` is the ``(N, d)`` node-feature Tensor and ``workspace`` the
:class:`repro.graph.MessagePassingWorkspace` of a (possibly batched)
graph: its cached adjacency matrices (GIN, GCN, SAGE, through
:func:`repro.tensor.propagate`) and scatter plans (GAT) are the layer's
only view of the topology, so a layer performs no per-call index
arithmetic. Use
:meth:`repro.graph.Batch.workspace` for a batch, or
``MessagePassingWorkspace(graph.edge_index, graph.num_nodes)`` for one
graph.

``node_weight`` implements the paper's perturbation-mask mechanism (Eq. 14):
a per-node multiplier applied to both a node's own contribution and to the
messages it sends. With a binary mask this *is* node dropping inside the
encoder; with soft values it is the differentiable relaxation used to train
the augmentation-probability head.
"""

from __future__ import annotations

import numpy as np

from ..graph import MessagePassingWorkspace
from ..nn import Linear, MLP, Module, Parameter
from ..tensor import Tensor, gather, propagate, segment_softmax, segment_sum

__all__ = ["GINConv", "GCNConv", "SAGEConv", "GATConv", "CONV_TYPES"]


def _apply_node_weight(x: Tensor, node_weight: Tensor | None) -> Tensor:
    if node_weight is None:
        return x
    return x * node_weight.reshape(len(node_weight), 1)


class GINConv(Module):
    """Graph Isomorphism Network layer (Xu et al., 2019).

    ``h'_i = MLP((1 + ε) h_i + Σ_{j∈N(i)} h_j)`` with a learnable ε and a
    2-layer MLP with BatchNorm — the encoder SGCL and all GCL baselines use.
    """

    def __init__(self, in_dim: int, out_dim: int, *, rng: np.random.Generator,
                 batch_norm: bool = True):
        super().__init__()
        self.eps = Parameter(np.zeros(1))
        self.mlp = MLP([in_dim, out_dim, out_dim], rng=rng,
                       batch_norm=batch_norm)

    def forward(self, x: Tensor, workspace: MessagePassingWorkspace,
                node_weight: Tensor | None = None) -> Tensor:
        x = _apply_node_weight(x, node_weight)
        combined = x * (1.0 + self.eps) + propagate(x, workspace)
        out = self.mlp(combined)
        return _apply_node_weight(out, node_weight)


class GCNConv(Module):
    """Graph Convolutional Network layer (Kipf & Welling, 2017).

    Symmetric-normalised aggregation with self-loops: ``H' = D̂^{-1/2} Â
    D̂^{-1/2} H W``.
    """

    def __init__(self, in_dim: int, out_dim: int, *, rng: np.random.Generator):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, workspace: MessagePassingWorkspace,
                node_weight: Tensor | None = None) -> Tensor:
        x = _apply_node_weight(x, node_weight)
        transformed = self.linear(x)
        out = propagate(transformed, workspace, normalized=True)
        return _apply_node_weight(out.relu(), node_weight)


class SAGEConv(Module):
    """GraphSAGE layer with mean aggregation (Hamilton et al., 2017)."""

    def __init__(self, in_dim: int, out_dim: int, *, rng: np.random.Generator):
        super().__init__()
        self.self_linear = Linear(in_dim, out_dim, rng=rng)
        self.neigh_linear = Linear(in_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, workspace: MessagePassingWorkspace,
                node_weight: Tensor | None = None) -> Tensor:
        x = _apply_node_weight(x, node_weight)
        neighbours = propagate(x, workspace) * workspace.mean_scale()
        out = self.self_linear(x) + self.neigh_linear(neighbours)
        return _apply_node_weight(out.relu(), node_weight)


class GATConv(Module):
    """Graph attention layer (Veličković et al., 2018), ``heads`` averaged.

    Attention logits ``e_ij = LeakyReLU(a_s·Wh_i + a_d·Wh_j)`` are
    softmax-normalised over each destination's incoming edges (self-loops
    added).
    """

    def __init__(self, in_dim: int, out_dim: int, *, rng: np.random.Generator,
                 heads: int = 1, negative_slope: float = 0.2):
        super().__init__()
        self.heads = heads
        self.negative_slope = negative_slope
        self.linears = [Linear(in_dim, out_dim, rng=rng, bias=False)
                        for _ in range(heads)]
        self.att_src = [Parameter(rng.normal(0, 0.1, size=out_dim))
                        for _ in range(heads)]
        self.att_dst = [Parameter(rng.normal(0, 0.1, size=out_dim))
                        for _ in range(heads)]

    def forward(self, x: Tensor, workspace: MessagePassingWorkspace,
                node_weight: Tensor | None = None) -> Tensor:
        x = _apply_node_weight(x, node_weight)
        src_plan = workspace.plan("looped_src")
        dst_plan = workspace.plan("looped_dst")
        num_edges = len(src_plan.index)
        head_outputs = []
        for linear, a_src, a_dst in zip(self.linears, self.att_src, self.att_dst):
            h = linear(x)
            # Per-node scores once, then scalar gathers per edge — one
            # (N,d)@(d,) matvec instead of two (E,d) gathers and matvecs.
            logits = gather(h @ a_src, src_plan) + gather(h @ a_dst, dst_plan)
            logits = logits.leaky_relu(self.negative_slope)
            alpha = segment_softmax(logits, dst_plan)
            messages = gather(h, src_plan) * alpha.reshape(num_edges, 1)
            head_outputs.append(segment_sum(messages, dst_plan))
        out = head_outputs[0]
        for extra in head_outputs[1:]:
            out = out + extra
        out = out * (1.0 / self.heads)
        return _apply_node_weight(out.relu(), node_weight)


CONV_TYPES = {
    "gin": GINConv,
    "gcn": GCNConv,
    "sage": SAGEConv,
    "gat": GATConv,
}
