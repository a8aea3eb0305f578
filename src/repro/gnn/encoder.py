"""Configurable multi-layer GNN encoder + projection head.

``GNNEncoder`` is the ``f(·,·;θ)`` of the paper: a stack of graph
convolutions producing node representations ``H^{(l)}``, with a pooled
graph-level readout. SGCL instantiates two of these with identical
architecture but unshared parameters (``f_q`` for the Lipschitz generator,
``f_k`` for representation learning), and every baseline reuses the same
class so comparisons are encoder-matched (paper §VI.A.2).
"""

from __future__ import annotations

import numpy as np

from ..graph import Batch, MessagePassingWorkspace
from ..nn import MLP, Module
from ..tensor import Tensor, concatenate
from .conv import CONV_TYPES
from .pooling import POOLING_TYPES, weighted_sum_pool

__all__ = ["GNNEncoder", "ProjectionHead"]


class GNNEncoder(Module):
    """Multi-layer GNN producing node and graph representations.

    Parameters
    ----------
    in_dim:
        Input feature dimension ``d^(0)``.
    hidden_dim:
        Hidden width ``d^(l)`` (paper: 32 for TU, 300 for transfer).
    num_layers:
        Number of graph convolutions (paper: 3 for TU, 5 for transfer).
    conv:
        One of ``gin``, ``gcn``, ``sage``, ``gat`` (Fig. 6 sweep).
    pooling:
        One of ``sum`` (default, as in GIN/SGCL), ``mean``, ``max``.
    jk:
        Jumping-knowledge style: ``last`` uses the final layer's node
        representations; ``cat`` concatenates all layers (as in GraphCL's
        released evaluation encoder).
    """

    def __init__(self, in_dim: int, hidden_dim: int, num_layers: int, *,
                 rng: np.random.Generator, conv: str = "gin",
                 pooling: str = "sum", jk: str = "last",
                 batch_norm: bool = True):
        super().__init__()
        if conv not in CONV_TYPES:
            raise ValueError(f"unknown conv {conv!r}; choose from {sorted(CONV_TYPES)}")
        if pooling not in POOLING_TYPES:
            raise ValueError(f"unknown pooling {pooling!r}")
        if jk not in ("last", "cat"):
            raise ValueError(f"jk must be 'last' or 'cat', got {jk!r}")
        self.conv_name = conv
        self.jk = jk
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.batch_norm = batch_norm
        self.pooling_name = pooling
        conv_cls = CONV_TYPES[conv]
        dims = [in_dim] + [hidden_dim] * num_layers
        conv_kwargs = {"batch_norm": batch_norm} if conv == "gin" else {}
        self.convs = [conv_cls(d_in, d_out, rng=rng, **conv_kwargs)
                      for d_in, d_out in zip(dims[:-1], dims[1:])]

    # ------------------------------------------------------------------
    def spec(self) -> dict:
        """Constructor arguments needed to rebuild this encoder.

        Stored in checkpoint headers so a serving process can reconstruct
        the architecture without the original training script.
        """
        return {
            "in_dim": self.in_dim,
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
            "conv": self.conv_name,
            "pooling": self.pooling_name,
            "jk": self.jk,
            "batch_norm": self.batch_norm,
        }

    @classmethod
    def from_spec(cls, spec: dict, *,
                  rng: np.random.Generator | None = None) -> "GNNEncoder":
        """Rebuild an encoder from :meth:`spec` output (weights random until
        a ``state_dict`` is loaded)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(spec["in_dim"], spec["hidden_dim"], spec["num_layers"],
                   rng=rng, conv=spec["conv"], pooling=spec["pooling"],
                   jk=spec["jk"], batch_norm=spec["batch_norm"])

    # ------------------------------------------------------------------
    @property
    def out_dim(self) -> int:
        """Dimension of node/graph representations this encoder emits."""
        if self.jk == "cat":
            return self.hidden_dim * len(self.convs)
        return self.hidden_dim

    def node_representations(self, x: Tensor,
                             workspace: MessagePassingWorkspace,
                             node_weight: Tensor | None = None) -> Tensor:
        """Run the conv stack; ``node_weight`` is the Eq. 14 mask/soft weight.

        ``workspace`` (cached adjacency matrices and scatter plans for this
        topology) is shared by all layers; see
        :meth:`repro.graph.Batch.workspace`.
        """
        layer_outputs = []
        h = x
        for conv in self.convs:
            h = conv(h, workspace, node_weight=node_weight)
            layer_outputs.append(h)
        if self.jk == "cat":
            return concatenate(layer_outputs, axis=1)
        return layer_outputs[-1]

    def forward(self, batch: Batch, node_weight: Tensor | None = None) -> Tensor:
        """Node representations for a batch (Tensor of shape ``(N, out_dim)``)."""
        return self.node_representations(Tensor(batch.x), batch.workspace(),
                                         node_weight=node_weight)

    def graph_representations(self, batch: Batch,
                              node_weight: Tensor | None = None,
                              pool_weights: Tensor | None = None) -> Tensor:
        """Pooled graph-level representations of shape ``(num_graphs, out_dim)``.

        ``pool_weights`` (per-node scalars) switches to weighted sum pooling —
        Eq. 21's semantic-score readout.
        """
        nodes = self.forward(batch, node_weight=node_weight)
        pool_plan = batch.workspace().pool_plan()
        if pool_weights is not None:
            return weighted_sum_pool(nodes, pool_weights, pool_plan)
        return POOLING_TYPES[self.pooling_name](nodes, pool_plan)


class ProjectionHead(Module):
    """2-layer MLP projection head ``Proj(·)`` (paper §IV.D, following [20]).

    Thrown away after pre-training; downstream tasks consume the encoder's
    pooled output directly.
    """

    def __init__(self, in_dim: int, out_dim: int | None = None, *,
                 rng: np.random.Generator):
        super().__init__()
        out_dim = out_dim or in_dim
        self.net = MLP([in_dim, in_dim, out_dim], rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
