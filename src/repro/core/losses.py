"""Contrastive objectives (paper §IV.D, Eq. 24–27).

Similarities are cosine (unit-normalised dot products) divided by the
temperature τ, as in the released GraphCL/RGCL implementations the paper
builds on.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module
from ..nn.functional import edge_likelihood, info_nce
from ..tensor import Tensor

__all__ = ["semantic_info_nce", "complement_loss", "weight_regularizer",
           "graph_likelihood_loss", "sample_negative_pairs"]


def sample_negative_pairs(n: int, num: int, edge_index: np.ndarray,
                          rng: np.random.Generator, *, max_rounds: int = 100
                          ) -> tuple[np.ndarray, np.ndarray]:
    """``num`` uniformly sampled node pairs that are true non-edges.

    Self-pairs and observed edges are rejected and resampled from the
    provided ``rng`` (bounded rounds, fully deterministic given the rng
    state). On near-complete graphs the pool of non-edges can be smaller
    than ``num`` — any slot still invalid after ``max_rounds`` is dropped,
    so the returned arrays may be shorter than requested (possibly empty
    for complete graphs).
    """
    observed = np.unique(edge_index[0].astype(np.int64) * n + edge_index[1])
    src = rng.integers(n, size=num)
    dst = rng.integers(n, size=num)
    for _ in range(max_rounds):
        invalid = (src == dst) | np.isin(src * n + dst, observed)
        if not invalid.any():
            break
        resample = int(invalid.sum())
        src[invalid] = rng.integers(n, size=resample)
        dst[invalid] = rng.integers(n, size=resample)
    valid = (src != dst) & ~np.isin(src * n + dst, observed)
    return src[valid], dst[valid]


def graph_likelihood_loss(reps: Tensor, edge_index: np.ndarray,
                          degrees: np.ndarray, edge_weight: Tensor,
                          rng: np.random.Generator) -> Tensor:
    """Negative log graph probability under the paper's edge model (Eq. 2–3).

    ``P(e_ij) = δ((h_i/d_i + h_j/d_j)·w)`` for observed edges; an equal
    number of uniformly sampled *true* non-edges act as negatives (the
    standard contrastive estimate of the likelihood — without them the
    model could satisfy Eq. 3 by scoring *every* pair as an edge).
    Negatives are drawn by :func:`sample_negative_pairs`, which rejects
    self-pairs and observed edges — naive uniform pairs would label real
    edges as negatives and bias the generator objective. This is the
    generator tower's training signal, computed by the fused
    :func:`~repro.nn.functional.edge_likelihood`.
    """
    num_edges = edge_index.shape[1]
    n = len(reps)
    if num_edges == 0 or n < 2:
        return Tensor(0.0)
    src, dst = edge_index
    neg_src, neg_dst = sample_negative_pairs(n, num_edges, edge_index, rng)
    # On a complete graph no non-edge exists and the positives stand alone.
    return edge_likelihood(
        reps, edge_weight, np.maximum(degrees, 1.0),
        np.concatenate([src, neg_src]), np.concatenate([dst, neg_dst]),
        np.concatenate([np.ones(num_edges), np.zeros(len(neg_src))]))


def semantic_info_nce(z_anchor: Tensor, z_view: Tensor, tau: float,
                      weights: np.ndarray | None = None) -> Tensor:
    """Semantic-aware loss ``L_s`` (Eq. 24), averaged over the rows.

    ``L_s(G_i) = −log [ exp(s_ii/τ) / Σ_{j≠i} exp(s_ij/τ) ]`` where ``s_ij``
    is the similarity between anchor ``G_i`` and view ``Ĝ_j``. The positive
    pair is excluded from the denominator, exactly as written in Eq. 24 (and
    as GraphCL's released code does).

    Rows are graphs in the graph-level objective and matched nodes in the
    node-level one (:mod:`repro.sampling.pretrain`), where row ``i`` of
    both inputs is the same node in the anchor and augmented subgraph.
    With ``weights`` (there the GraphSAINT ``α_v``), per-row terms are
    scaled by ``weights / mean(weights)`` — mean-1 within the batch, so
    only the relative sampling bias is corrected, not the loss scale.
    Fewer than 2 rows, or weights that are non-finite, negative, of the
    wrong length or zero on average, raise ``ValueError``.
    """
    return info_nce(z_anchor, z_view, tau, weights=weights)


def complement_loss(z_anchor: Tensor, z_view: Tensor,
                    z_complement: Tensor, tau: float) -> Tensor:
    """Complement loss ``L_c`` (Eq. 25), averaged over the batch.

    The non-semantic complement samples ``Ĝ^c`` act as extra negatives:
    ``L_c(G_i) = −log [ exp(s_ii/τ) / (exp(s_ii/τ) + Σ_c exp(sim(G_i, Ĝ^c)/τ)) ]``.
    """
    return info_nce(z_anchor, z_view, tau, complement=z_complement)


def weight_regularizer(module: Module) -> Tensor:
    """``Θ_W = ‖W‖`` (Eq. 26): L2 norm over all trainable parameters."""
    return module.weight_norm()
