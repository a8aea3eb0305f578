"""The SGCL model (paper Fig. 2): generator tower + representation tower.

Components
----------
* ``f_q`` — the Lipschitz-constant-generator GNN (wrapped in
  :class:`LipschitzConstantGenerator`) plus the augmentation-probability
  head ``σ(h_i w^T)`` of Eq. 18.
* ``f_k`` — the representation GNN with sum pooling and a 2-layer
  projection head (Eq. 21–23). Same architecture as ``f_q``, unshared
  parameters.

The anchor readout weights node representations by their Lipschitz
constants (Eq. 21); views are pooled unweighted (Eq. 22–23). ``K_V`` is
normalised to mean 1 within each graph before weighting so the readout
scale does not drift with graph size (Eq. 21 as written is
scale-sensitive; normalisation keeps training stable and preserves the
relative semantic scores, which is all Eq. 21 uses).
"""

from __future__ import annotations

import numpy as np

from ..graph import Batch
from ..gnn import GNNEncoder, ProjectionHead
from ..nn import Module, Parameter
from ..obs import current
from ..tensor import Tensor, gather, segment_mean
from .augmentation import augmentation_probability_mask, lipschitz_augment
from .config import SGCLConfig
from .lipschitz import LipschitzConstantGenerator
from .losses import (
    complement_loss,
    graph_likelihood_loss,
    semantic_info_nce,
    weight_regularizer,
)

__all__ = ["SGCLModel", "SemanticScores"]


class SemanticScores:
    """Per-node semantic quantities for one batch (generator outputs).

    Attributes
    ----------
    constants:
        ``K_V`` — Lipschitz constants, differentiable Tensor, shape ``(N,)``.
    head_scores:
        ``σ(h_i w^T)`` — probability-head outputs, Tensor, shape ``(N,)``.
    binary:
        ``C_i`` (Eq. 17) — 1 for semantic-related nodes, ndarray.
    keep_probability:
        ``P(v_i)`` (Eq. 18) — keep probabilities, ndarray.
    """

    __slots__ = ("constants", "head_scores", "binary", "keep_probability")

    def __init__(self, constants: Tensor, head_scores: Tensor,
                 binary: np.ndarray, keep_probability: np.ndarray):
        self.constants = constants
        self.head_scores = head_scores
        self.binary = binary
        self.keep_probability = keep_probability


class SGCLModel(Module):
    """Semantic-aware Graph Contrastive Learning model."""

    def __init__(self, in_dim: int, config: SGCLConfig, *,
                 rng: np.random.Generator):
        super().__init__()
        self.config = config
        encoder_kwargs = dict(hidden_dim=config.hidden_dim,
                              num_layers=config.num_layers,
                              conv=config.conv, pooling=config.pooling)
        # The generator GNN runs without BatchNorm: its Lipschitz statistic
        # measures representation *magnitudes*, which per-feature batch
        # normalisation erases as its running statistics adapt (DESIGN.md §5).
        generator_kwargs = dict(encoder_kwargs, conv=config.generator_conv)
        f_q = GNNEncoder(in_dim, rng=rng, batch_norm=False,
                         **generator_kwargs)
        self.generator = LipschitzConstantGenerator(
            f_q, rng=rng, mode=config.lipschitz_mode)
        self.prob_weight = Parameter(rng.normal(0, 0.1, size=f_q.out_dim))
        # Edge weight w of the paper's edge-probability model (Eq. 2); also
        # the W whose norm Theorem 1 bounds.
        self.edge_weight = Parameter(rng.normal(0, 0.1, size=f_q.out_dim))
        self.f_k = GNNEncoder(in_dim, rng=rng, **encoder_kwargs)
        self.projection = ProjectionHead(self.f_k.out_dim, rng=rng)

    # ------------------------------------------------------------------
    @property
    def encoder(self) -> GNNEncoder:
        """The representation encoder ``f_k`` used for downstream tasks."""
        return self.f_k

    # ------------------------------------------------------------------
    def semantic_scores(self, batch: Batch) -> SemanticScores:
        """Run the generator tower: ``K_V``, ``C`` and ``P(V)`` (Eq. 11–18).

        The binarisation threshold ``K̄`` (Eq. 16) is the per-graph mean, so
        every graph keeps its own semantic/non-semantic partition.
        """
        constants = self.generator.node_constants(batch)
        reps = self.generator.node_representations(batch)
        if self.config.detach_semantics:
            constants = constants.detach()
            reps = reps.detach()
        head_scores = (reps @ self.prob_weight).sigmoid()
        per_graph_mean = segment_mean(constants,
                                      batch.workspace().pool_plan())
        binary = (constants.data
                  >= per_graph_mean.data[batch.node_graph]).astype(np.float64)
        keep = augmentation_probability_mask(binary, head_scores.data)
        return SemanticScores(constants, head_scores, binary, keep)

    # ------------------------------------------------------------------
    def generate_views(self, batch: Batch, scores: SemanticScores,
                       rng: np.random.Generator) -> tuple[Batch, Batch]:
        """Positive views Ĝ (Eq. 19) and complements Ĝ^c (Eq. 20) of every
        graph, as two :meth:`Batch.subgraph` views of ``batch``.

        The ``augmentation`` config switches between the full Lipschitz
        augmentation, uniformly random node dropping (ablation *w/o VG*) and
        a learnable view generator without the Lipschitz binarisation
        (ablation *w/o LGA*).
        """
        mode = self.config.augmentation
        if mode == "random":
            probability = np.full(batch.num_nodes, 0.5)
        elif mode == "learnable":
            probability = scores.head_scores.data
        else:
            probability = scores.keep_probability
        with current().span("augment/sample"):
            return lipschitz_augment(batch, probability, self.config.rho, rng)

    # ------------------------------------------------------------------
    def anchor_embeddings(self, batch: Batch, scores: SemanticScores) -> Tensor:
        """``z_G`` (Eq. 21): K_V-weighted sum pooling + projection."""
        with current().span("model/anchor_embed"):
            if self.config.use_semantic_readout:
                constants = scores.constants
                pool_plan = batch.workspace().pool_plan()
                mean = segment_mean(constants, pool_plan)
                weights = constants * gather((mean + 1e-12) ** -1.0,
                                             pool_plan)
                pooled = self.f_k.graph_representations(batch,
                                                        pool_weights=weights)
            else:  # ablation w/o SRL
                pooled = self.f_k.graph_representations(batch)
            return self.projection(pooled)

    def view_embeddings(self, views: Batch,
                        soft_weights: Tensor | None = None) -> Tensor:
        """``z_Ĝ`` (Eq. 22–23): plain sum pooling + projection.

        ``soft_weights`` (per surviving node, aligned with ``views``) is
        the straight-through relaxation that lets gradient reach the
        probability head — see DESIGN.md §5.
        """
        with current().span("model/view_embed"):
            pooled = self.f_k.graph_representations(views,
                                                    node_weight=soft_weights)
            return self.projection(pooled)

    # ------------------------------------------------------------------
    def _soft_view_weights(self, views: Batch,
                           scores: SemanticScores) -> Tensor:
        """Gather each surviving view node's keep probability (Tensor).

        Semantic-related nodes have P=1 so they pass unscaled; kept
        semantic-unrelated nodes are scaled by σ(h w^T), through which the
        probability head receives gradient.
        """
        binary = Tensor(scores.binary)
        keep_tensor = binary + (1.0 - binary) * scores.head_scores
        return gather(keep_tensor, views.parent_nodes)

    def view_stats(self, batch: Batch, scores: SemanticScores,
                   views: Batch) -> dict[str, float]:
        """The ``K_V`` summary and realised ``drop_fraction`` of one step."""
        constants = scores.constants.data
        stats = {f"k_v_{name}": float(getattr(constants, name)())
                 for name in ("mean", "std", "min", "max")}
        stats["drop_fraction"] = 1.0 - views.num_nodes / batch.num_nodes
        return stats

    def objective_tail(self, batch: Batch, total: Tensor,
                       stats: dict[str, float], rng: np.random.Generator,
                       contrast: tuple[Tensor, Tensor, Batch] | None = None
                       ) -> tuple[Tensor, dict[str, float]]:
        """Add Eq. 27's ``λ_g·L_g``, ``λ_c·L_c`` (only given ``contrast =
        (z_anchor, z_view, complements)``) and ``λ_W·Θ_W`` to ``total``;
        record each term and the final ``loss`` in ``stats``."""
        config = self.config
        if config.lambda_g > 0:
            # Generator tower objective: maximise the paper's graph
            # likelihood (Eq. 2–3) so f_q's representations encode structure
            # and the Lipschitz constants measure semantic relevance rather
            # than initialisation noise (DESIGN.md §5).
            reps = self.generator.node_representations(batch)
            loss_g = graph_likelihood_loss(reps, batch.edge_index,
                                           batch.degrees(),
                                           self.edge_weight, rng)
            total = total + config.lambda_g * loss_g
            stats["loss_g"] = loss_g.item()
        if contrast and config.lambda_c > 0:
            z_anchor, z_view, complements = contrast
            z_complement = self.view_embeddings(complements)
            loss_c = complement_loss(z_anchor, z_view, z_complement,
                                     config.tau)
            total = total + config.lambda_c * loss_c
            stats["loss_c"] = loss_c.item()
        if config.lambda_w > 0:
            reg = weight_regularizer(self)
            total = total + config.lambda_w * reg
            stats["theta_w"] = reg.item()
        stats["loss"] = total.item()
        return total, stats

    # ------------------------------------------------------------------
    def loss(self, batch: Batch, rng: np.random.Generator
             ) -> tuple[Tensor, dict[str, float]]:
        """Full SGCL objective (Eq. 27) for one batch.

        Returns the loss Tensor and a stats dict (component values).
        """
        scores = self.semantic_scores(batch)
        views, complements = self.generate_views(batch, scores, rng)
        z_anchor = self.anchor_embeddings(batch, scores)
        z_view = self.view_embeddings(
            views, soft_weights=self._soft_view_weights(views, scores))
        loss_s = semantic_info_nce(z_anchor, z_view, self.config.tau)
        stats = {"loss_s": loss_s.item(),
                 **self.view_stats(batch, scores, views)}
        return self.objective_tail(batch, loss_s, stats, rng,
                                   (z_anchor, z_view, complements))
