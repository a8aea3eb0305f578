"""RGCL (Li et al., ICML 2022) — rationale-aware graph contrastive learning.

A *rationale generator* scores every node's probability of belonging to the
graph's rationale (the label-relevant substructure); the rationale view keeps
high-probability nodes, the complement view keeps the rest. InfoNCE pulls
the anchor towards its rationale view; the complement acts as a negative.
The node scorer is trained through a soft node-weighting pathway (the
Gumbel relaxation of the original, simplified to probability weighting).
"""

from __future__ import annotations

import numpy as np

from ..core.augmentation import batch_node_drop
from ..core.losses import complement_loss, semantic_info_nce
from ..gnn import GNNEncoder, ProjectionHead
from ..graph import Batch
from ..nn import MLP
from ..tensor import Tensor, gather
from .base import BasePretrainer

__all__ = ["RGCL"]


class RGCL(BasePretrainer):
    """RGCL with an MLP rationale scorer on generator-GNN representations."""

    def __init__(self, in_dim: int, *, keep_ratio: float = 0.9,
                 tau: float = 0.2, lambda_c: float = 0.1, **kwargs):
        self.keep_ratio = keep_ratio
        self.tau = tau
        self.lambda_c = lambda_c
        self._in_dim = in_dim
        super().__init__(in_dim, **kwargs)

    def _build(self, rng: np.random.Generator) -> None:
        self.projection = ProjectionHead(self.encoder.out_dim, rng=rng)
        self.rationale_encoder = GNNEncoder(
            self._in_dim, self.encoder.hidden_dim, 2, rng=rng, conv="gin")
        self.rationale_scorer = MLP(
            [self.encoder.hidden_dim, self.encoder.hidden_dim, 1], rng=rng)

    # ------------------------------------------------------------------
    def node_probabilities(self, batch: Batch) -> Tensor:
        """Per-node rationale probabilities (Fig. 7 comparison uses these)."""
        reps = self.rationale_encoder(batch)
        return self.rationale_scorer(reps).sigmoid().reshape(batch.num_nodes)

    def step(self, batch: Batch) -> Tensor:
        probabilities = self.node_probabilities(batch)
        p = probabilities.data
        views, complements = batch_node_drop(
            batch, self.keep_ratio, 1.0 - p + 1e-6, p + 1e-6, self.rng)
        soft = gather(probabilities, views.parent_nodes)
        z_anchor = self.projection(self.encoder.graph_representations(batch))
        z_view = self.projection(self.encoder.graph_representations(
            views, node_weight=soft))
        z_complement = self.projection(self.encoder.graph_representations(
            complements))
        loss = semantic_info_nce(z_anchor, z_view, self.tau)
        return loss + self.lambda_c * complement_loss(
            z_anchor, z_view, z_complement, self.tau)
