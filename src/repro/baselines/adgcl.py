"""AD-GCL (Suresh et al., NeurIPS 2021) — adversarial edge-drop augmentation.

A learnable edge scorer produces per-edge keep weights; the *augmenter* is
trained to maximise the InfoNCE loss (removing as much redundant information
as possible) while the encoder minimises it — alternating adversarial steps.
Edges are kept softly via their Bernoulli keep probability (the relaxation
the original uses during training).
"""

from __future__ import annotations

import numpy as np

from ..core.losses import semantic_info_nce
from ..gnn import POOLING_TYPES, GNNEncoder, ProjectionHead
from ..graph import Batch
from ..nn import Adam, MLP
from ..tensor import Tensor, concatenate, gather, segment_sum
from .base import BasePretrainer

__all__ = ["ADGCL"]


class ADGCL(BasePretrainer):
    """AD-GCL with a two-layer edge scorer and alternating updates."""

    def __init__(self, in_dim: int, *, tau: float = 0.2,
                 augmenter_lr: float = 1e-3, reg_lambda: float = 5.0,
                 **kwargs):
        self.tau = tau
        self.augmenter_lr = augmenter_lr
        self.reg_lambda = reg_lambda
        super().__init__(in_dim, **kwargs)
        if self.encoder.conv_name != "gin":
            raise ValueError("ADGCL's weighted message passing requires GIN")
        augmenter_params = (self.edge_scorer.parameters()
                            + self.scorer_encoder.parameters())
        self._augmenter_optimizer = Adam(augmenter_params,
                                         lr=self.augmenter_lr)
        # The main optimiser must not touch augmenter parameters.
        encoder_params = (self.encoder.parameters()
                          + self.projection.parameters())
        self.optimizer = Adam(encoder_params, lr=self.lr)

    def _build(self, rng: np.random.Generator) -> None:
        self.projection = ProjectionHead(self.encoder.out_dim, rng=rng)
        self.scorer_encoder = GNNEncoder(self.in_dim, self.encoder.hidden_dim,
                                         2, rng=rng, conv="gin")
        self.edge_scorer = MLP([2 * self.encoder.hidden_dim,
                                self.encoder.hidden_dim, 1], rng=rng)

    # ------------------------------------------------------------------
    def _edge_keep_weights(self, batch: Batch) -> Tensor:
        node_reps = self.scorer_encoder(batch)
        workspace = batch.workspace()
        pair = concatenate([gather(node_reps, workspace.plan("src")),
                            gather(node_reps, workspace.plan("dst"))], axis=1)
        return self.edge_scorer(pair).sigmoid().reshape(batch.num_edges)

    def _view_embeddings(self, batch: Batch, keep: Tensor) -> Tensor:
        """Encode with per-edge soft weights by scaling messages.

        The encoder's GIN layers, with each message scaled by its edge's
        keep weight, then the encoder's own pooling.
        """
        workspace = batch.workspace()
        h = Tensor(batch.x)
        for conv in self.encoder.convs:
            messages = (gather(h, workspace.plan("src"))
                        * keep.reshape(batch.num_edges, 1))
            agg = segment_sum(messages, workspace.plan("dst"))
            h = conv.mlp(h * (1.0 + conv.eps) + agg)
        pool = POOLING_TYPES[self.encoder.pooling_name]
        return self.projection(pool(h, workspace.pool_plan()))

    def _anchor_embeddings(self, batch: Batch) -> Tensor:
        return self.projection(self.encoder.graph_representations(batch))

    # ------------------------------------------------------------------
    def step(self, batch: Batch) -> Tensor:
        # 1) Augmenter ascent step: maximise loss (+ keep-ratio regulariser).
        keep = self._edge_keep_weights(batch)
        z_anchor = self._anchor_embeddings(batch)
        z_view = self._view_embeddings(batch, keep)
        loss_adv = semantic_info_nce(z_anchor, z_view, self.tau)
        regulariser = keep.mean()
        augmenter_objective = -loss_adv + self.reg_lambda * (
            regulariser - 0.7) ** 2.0
        self._augmenter_optimizer.zero_grad()
        self.optimizer.zero_grad()
        augmenter_objective.backward()
        self._augmenter_optimizer.step()
        # 2) Encoder descent step on fresh forward with updated augmenter.
        keep = self._edge_keep_weights(batch).detach()
        z_anchor = self._anchor_embeddings(batch)
        z_view = self._view_embeddings(batch, keep)
        return semantic_info_nce(z_anchor, z_view, self.tau)
