"""Composite op chains the fused ops in ``repro.nn.functional`` and
``repro.tensor.propagate`` replace.

Each is built from Tensor primitives only, so autograd derives its
gradient; the fused ops' hand-written vjps are checked against them in
``tests/nn/test_fused_ops.py`` and ``tests/tensor/test_segment.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import l2_normalize
from repro.tensor import Tensor, gather, segment_sum


def info_nce(z_anchor: Tensor, z_view: Tensor, tau: float, *,
             complement: Tensor | None = None,
             weights: np.ndarray | None = None) -> Tensor:
    """Eq. 24 (``complement is None``) or Eq. 25, as separate tape nodes."""
    n = len(z_anchor)
    anchors = l2_normalize(z_anchor)
    if complement is None:
        sims = (anchors @ l2_normalize(z_view).T) * (1.0 / tau)
        positives = sims[(np.arange(n), np.arange(n))]
        masked = sims + Tensor(np.where(np.eye(n, dtype=bool), -1e9, 0.0))
        row_max = Tensor(masked.data.max(axis=1, keepdims=True))
        log_denominator = ((masked - row_max).exp().sum(axis=1)).log() \
            + row_max.reshape(n)
    else:
        positives = ((anchors * l2_normalize(z_view)).sum(axis=1)) \
            * (1.0 / tau)
        negative_sims = (anchors @ l2_normalize(complement).T) * (1.0 / tau)
        stacked = np.concatenate(
            [positives.data[:, None], negative_sims.data], axis=1)
        row_max = stacked.max(axis=1, keepdims=True)
        m = Tensor(row_max.reshape(n))
        denominator = (positives - m).exp() \
            + (negative_sims - Tensor(row_max)).exp().sum(axis=1)
        log_denominator = denominator.log() + m
    per_row = log_denominator - positives
    if weights is not None:
        scale = np.asarray(weights, dtype=np.float64)
        per_row = per_row * Tensor(scale / scale.mean())
    return per_row.mean()


def edge_likelihood(h: Tensor, w: Tensor, degrees: np.ndarray,
                    src: np.ndarray, dst: np.ndarray,
                    targets: np.ndarray) -> Tensor:
    """Pair logits gathered per pair from ``h / d`` (O(E·d) gathers)."""
    scaled = h / Tensor(degrees.reshape(len(h), 1))
    logits = (gather(scaled, src) + gather(scaled, dst)) @ w
    return (logits.softplus() - logits * Tensor(targets)).mean()


def propagate(x: Tensor, workspace, normalized: bool = False) -> Tensor:
    """Per-edge messages by ``gather``, summed per destination."""
    if not normalized:
        return segment_sum(gather(x, workspace.plan("src")),
                           workspace.plan("dst"))
    messages = (gather(x, workspace.plan("looped_src"))
                * Tensor(workspace.gcn_norm()[:, None]))
    return segment_sum(messages, workspace.plan("looped_dst"))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    out = x @ weight
    return out if bias is None else out + bias


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float
               ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    centered = x - mean
    var = (centered * centered).mean(axis=0)
    normalised = centered * (var + eps) ** -0.5
    return normalised * gamma + beta, mean.data, var.data


def parameter_norm(params) -> Tensor:
    total = None
    for param in params:
        contribution = (param * param).sum()
        total = contribution if total is None else total + contribution
    if total is None:
        return Tensor(0.0)
    return (total + 1e-12).sqrt()
