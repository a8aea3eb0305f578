"""Loss functions and miscellaneous functional ops."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, as_tensor
from ..tensor.tensor import _flops_matmul

__all__ = [
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "l2_normalize",
    "cosine_similarity_matrix",
    "info_nce",
    "edge_likelihood",
    "linear",
    "batch_norm",
    "parameter_norm",
]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``targets`` under row-wise ``logits``.

    ``targets`` must be finite: an unlabeled row (NaN label, as
    ``GraphDataset.labels()`` produces for ``y=None`` graphs) would
    otherwise be cast to an arbitrary garbage class index by the int64
    conversion. Callers must filter unlabeled rows first.
    """
    targets = np.asarray(targets)
    if targets.dtype.kind == "f" and not np.isfinite(targets).all():
        raise ValueError(
            "cross_entropy received non-finite targets (unlabeled rows?); "
            "filter them out before computing the loss — int casting would "
            "silently turn NaN into a garbage class index")
    targets = targets.astype(np.int64)
    log_probs = logits.log_softmax(axis=-1)
    rows = np.arange(len(targets))
    picked = log_probs[(rows, targets)]
    return -picked.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets,
                                     mask: np.ndarray | None = None) -> Tensor:
    """Stable sigmoid BCE, optionally masked (for multi-task labels with
    missing entries, as in MoleculeNet-style datasets).

    ``loss = softplus(x) - x*y`` elementwise; masked mean over valid entries.
    Masked-out target entries are zero-filled *before* the ``x*y`` product:
    missing labels are stored as NaN, and ``0 * NaN`` is NaN, so computing
    the product first would poison the loss (and every gradient) even
    though the mask later zeroes the entry's weight.
    """
    targets = as_tensor(targets)
    if mask is None:
        elementwise = logits.softplus() - logits * targets
        return elementwise.mean()
    mask = np.asarray(mask, dtype=np.float64)
    safe_targets = Tensor(np.where(mask > 0, targets.data, 0.0))
    elementwise = logits.softplus() - logits * safe_targets
    valid = max(mask.sum(), 1.0)
    return (elementwise * Tensor(mask)).sum() * (1.0 / valid)


def mse_loss(prediction: Tensor, target) -> Tensor:
    target = as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows onto the unit sphere (used before InfoNCE similarities)."""
    norms = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norms


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarity between rows of ``a`` and rows of ``b``."""
    return l2_normalize(a) @ l2_normalize(b).T


# ----------------------------------------------------------------------
# Fused ops: one tape node each, with a hand-written vjp
# ----------------------------------------------------------------------
# Forward arithmetic follows the composite op chains these replace, step
# for step where possible. A vjp never writes into a buffer its forward
# pass saved, so a ``retain_graph=True`` second pass sees the same state.
def _unit_rows(x: np.ndarray, eps: float = 1e-12
               ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``x`` scaled to unit length, and their norms (``(n, 1)``)."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True) + eps)
    return x / norms, norms


def _unit_rows_vjp(grad: np.ndarray, x: np.ndarray,
                   norms: np.ndarray) -> np.ndarray:
    """Gradient through :func:`_unit_rows` w.r.t. ``x``."""
    radial = (((-grad) * x) / norms ** 2).sum(axis=-1, keepdims=True) \
        * 0.5 / np.maximum(norms, 1e-12)
    out = grad / norms
    out += (2.0 * radial) * x
    return out


def _row_scale(weights, n: int) -> np.ndarray | None:
    """``weights / mean(weights)``, or a ``ValueError`` for unusable ones."""
    if weights is None:
        return None
    scale = np.asarray(weights, dtype=np.float64)
    if scale.shape != (n,):
        raise ValueError(f"InfoNCE weights need one entry per row ({n}), "
                         f"got shape {scale.shape}")
    if not np.isfinite(scale).all():
        raise ValueError("InfoNCE weights must be finite")
    if (scale < 0).any():
        raise ValueError("InfoNCE weights must be non-negative")
    mean = scale.mean()
    if mean == 0:
        raise ValueError("InfoNCE weights have a zero mean; at least one "
                         "row needs a positive weight")
    return scale / mean


def info_nce(anchor: Tensor, view: Tensor, tau: float, *,
             complement: Tensor | None = None,
             weights: np.ndarray | None = None) -> Tensor:
    """InfoNCE over cosine similarities, as one tape node.

    Row ``i`` pairs ``anchor[i]`` with its positive ``view[i]``; with
    ``s_ij`` the cosine similarity over ``τ``, its term is
    ``log Σ_{j∈C(i)} exp(s_ij) − s_ii``. The candidate set ``C(i)`` is

    * every view row but ``i`` when ``complement`` is ``None`` — Eq. 24,
      the positive is left out of the denominator;
    * the positive plus every ``complement`` row otherwise — Eq. 25.

    The loss is the mean term. With ``weights`` each term is scaled by
    ``weights / mean(weights)``; weights that are non-finite, negative,
    of the wrong length or zero on average raise ``ValueError``.

    The node keeps the unit rows and one ``exp`` buffer of the candidate
    similarities (``n × n`` or ``n × len(complement)``) for backward.
    """
    n = len(anchor)
    if complement is None and n < 2:
        raise ValueError("InfoNCE needs at least 2 rows (graphs or nodes) "
                         "per batch")
    scale = _row_scale(weights, n)
    inv_tau = 1.0 / tau
    unit_a, norm_a = _unit_rows(anchor.data)
    unit_v, norm_v = _unit_rows(view.data)
    diagonal = np.arange(n)
    if complement is None:
        # exp(s_ij − max_j) over j ≠ i; the positive is masked by −1e9.
        exp_sims = unit_a @ unit_v.T
        exp_sims *= inv_tau
        positives = exp_sims[diagonal, diagonal]
        exp_sims[diagonal, diagonal] -= 1e9
        row_max = exp_sims.max(axis=1)
        exp_sims -= row_max[:, None]
        np.exp(exp_sims, out=exp_sims)
        denominator = exp_sims.sum(axis=1)
    else:
        unit_c, norm_c = _unit_rows(complement.data)
        positives = (unit_a * unit_v).sum(axis=1) * inv_tau
        exp_sims = unit_a @ unit_c.T
        exp_sims *= inv_tau
        row_max = (np.maximum(positives, exp_sims.max(axis=1))
                   if exp_sims.shape[1] else positives)
        exp_sims -= row_max[:, None]
        np.exp(exp_sims, out=exp_sims)
        exp_positive = np.exp(positives - row_max)
        denominator = exp_positive + exp_sims.sum(axis=1)
    per_row = (np.log(denominator) + row_max) - positives
    if scale is not None:
        per_row = per_row * scale
    value = per_row.sum() * (1.0 / n)

    def backward(out: Tensor) -> None:
        grad = np.broadcast_to(out.grad * (1.0 / n), (n,))
        if scale is not None:
            grad = grad * scale
        d_sims = exp_sims * (grad / denominator)[:, None]
        if complement is None:
            d_sims[diagonal, diagonal] -= grad
            d_sims *= inv_tau
            g_a = d_sims @ unit_v
            g_v = (unit_a.T @ d_sims).T if view.requires_grad else None
        else:
            d_positive = exp_positive * (grad / denominator) - grad
            d_positive *= inv_tau
            d_sims *= inv_tau
            g_a = d_sims @ unit_c
            g_a += d_positive[:, None] * unit_v
            g_v = d_positive[:, None] * unit_a
            if complement.requires_grad:
                complement._accumulate(_unit_rows_vjp(
                    (unit_a.T @ d_sims).T, complement.data, norm_c),
                    own=True)
        if anchor.requires_grad:
            anchor._accumulate(_unit_rows_vjp(g_a, anchor.data, norm_a),
                               own=True)
        if view.requires_grad:
            view._accumulate(_unit_rows_vjp(g_v, view.data, norm_v),
                             own=True)

    parents = (anchor, view) if complement is None \
        else (anchor, view, complement)
    return Tensor._make(np.asarray(value), parents, backward)


def edge_likelihood(h: Tensor, w: Tensor, degrees: np.ndarray,
                    src: np.ndarray, dst: np.ndarray,
                    targets: np.ndarray) -> Tensor:
    """Mean BCE with logits of pair scores ``(h_i/d_i + h_j/d_j)·w``.

    The edge model of Eq. 2 as one tape node. The score of pair
    ``(i, j)`` splits into ``t_i + t_j`` with ``t = (h/d)·w``, so the
    projection runs once per node and each pair costs two scalar
    gathers — O(E) instead of O(E·d). ``degrees`` must be positive.
    """
    n = len(h)
    scaled = h.data / degrees.reshape(n, 1)
    per_node = scaled @ w.data
    logits = per_node[src] + per_node[dst]
    count = len(logits)
    with np.errstate(invalid="ignore"):  # NaN logits: the guard reports
        value = (np.logaddexp(0.0, logits) - logits * targets).sum() \
            * (1.0 / count)

    def backward(out: Tensor) -> None:
        grad = np.broadcast_to(out.grad * (1.0 / count), (count,))
        d_logits = grad / (1.0 + np.exp(-np.clip(logits, -60, 60))) \
            - grad * targets
        d_node = np.bincount(src, d_logits, minlength=n) \
            + np.bincount(dst, d_logits, minlength=n)
        w._accumulate(scaled.T @ d_node, own=True)
        if h.requires_grad:
            h._accumulate(np.outer(d_node, w.data) / degrees.reshape(n, 1),
                          own=True)

    return Tensor._make(np.asarray(value), (h, w), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` for a 2-D ``x``, as one tape node."""
    out = x.data @ weight.data
    if bias is not None:
        out += bias.data

    def backward(node: Tensor) -> None:
        grad = node.grad
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T, own=True)
        weight._accumulate(x.data.T @ grad, own=True)
        if bias is not None:
            bias._accumulate(grad.sum(axis=0), own=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float
               ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch normalisation over rows, as one tape node.

    Returns the output and the batch mean and (biased) variance, from
    which the caller updates its running statistics. The vjp is the
    closed form ``dx = (ĝ − mean(ĝ) − x̂·mean(ĝ·x̂)) / σ`` with
    ``ĝ = grad·γ`` and ``x̂`` the normalised input.
    """
    n = len(x)
    mean = x.data.sum(axis=0) * (1.0 / n)
    normalised = x.data - mean
    var = (normalised * normalised).sum(axis=0) * (1.0 / n)
    inv_std = (var + eps) ** -0.5
    normalised *= inv_std
    out = normalised * gamma.data
    out += beta.data

    def backward(node: Tensor) -> None:
        grad = node.grad
        gamma._accumulate((grad * normalised).sum(axis=0), own=True)
        beta._accumulate(grad.sum(axis=0), own=True)
        if x.requires_grad:
            g_hat = grad * gamma.data
            dx = g_hat - g_hat.sum(axis=0) * (1.0 / n)
            dx -= normalised * ((g_hat * normalised).sum(axis=0) * (1.0 / n))
            dx *= inv_std
            x._accumulate(dx, own=True)

    return Tensor._make(out, (x, gamma, beta), backward), mean, var


def parameter_norm(params) -> Tensor:
    """``sqrt(Σ_p ‖p‖² + 1e-12)`` over a sequence of Tensors, one tape node.

    The paper's Θ_W = ‖W‖ (Eq. 26) over a module's parameters; an empty
    sequence gives 0.
    """
    params = list(params)
    if not params:
        return Tensor(0.0)
    total = 0.0
    for param in params:
        total = total + (param.data * param.data).sum()
    value = np.sqrt(total + 1e-12)

    def backward(out: Tensor) -> None:
        scale = 2.0 * (out.grad * 0.5 / np.maximum(value, 1e-12))
        for param in params:
            param._accumulate(scale * param.data, own=True)

    return Tensor._make(value, params, backward)


# ----------------------------------------------------------------------
# Profiler op table (consumed by repro.obs.profiler)
# ----------------------------------------------------------------------
def _flops_per_input(args, kwargs, out) -> float:
    """A handful of elementwise passes over the first argument."""
    x = args[0]
    size = x.data.size if isinstance(x, Tensor) else np.size(x)
    return float(size)


def _flops_info_nce(args, kwargs, out) -> float:
    """The candidate similarity matmul: 2·d per anchor/candidate pair."""
    anchor, view = args[0], args[1]
    complement = kwargs.get("complement")
    candidates = view if complement is None else complement
    return 2.0 * anchor.shape[-1] * len(anchor) * len(candidates)


def _flops_params(args, kwargs, out) -> float:
    """One multiply-add per parameter entry."""
    return 2.0 * sum(param.data.size for param in args[0])


#: Loss/functional ops profiled by :class:`repro.obs.profiler.OpProfiler`.
#: The first five are compositions of Tensor primitives, so their self
#: time is Python glue and the heavy lifting shows up under the
#: primitives. The rest are fused: one tape node each, all of their work
#: counted as their own self time.
PROFILED_OPS = [
    ("cross_entropy", "cross_entropy", _flops_per_input),
    ("binary_cross_entropy_with_logits", "bce_with_logits", _flops_per_input),
    ("mse_loss", "mse_loss", _flops_per_input),
    ("l2_normalize", "l2_normalize", _flops_per_input),
    ("cosine_similarity_matrix", "cosine_similarity", _flops_per_input),
    ("info_nce", "info_nce", _flops_info_nce),
    ("edge_likelihood", "edge_likelihood", _flops_per_input),
    ("linear", "linear", _flops_matmul),
    ("batch_norm", "batch_norm", _flops_per_input),
    ("parameter_norm", "parameter_norm", _flops_params),
]
