"""Gather / scatter / segment reductions — the message-passing kernels.

PyTorch Geometric implements GNN message passing with ``torch.index_select``
and ``scatter_*``; these functions are the numpy/autodiff equivalents. All of
them are differentiable with respect to the value tensor (never with respect
to the integer index arrays or edge weights).

Routing
-------
Every op takes its routing as either a 1-D integer index array or a
:class:`ScatterPlan`, and normalises it to a plan once at the top:

* ``segment_*(values, index, num_segments=None)`` — with an index array,
  ``num_segments`` is required (it may exceed ``index.max()+1`` when a
  batch contains empty graphs); a plan carries its own segment count.
* ``gather(values, index)`` routes rows of ``values``, so its segment count
  is ``len(values)``.

:func:`propagate` is the exception: it routes over a whole topology, taken
from a :class:`repro.graph.MessagePassingWorkspace`.

Kernel strategy
---------------
Scatter-adds run through ``np.bincount`` on a flattened ``(row, column)``
index rather than ``np.add.at``. Both accumulate bins in input order, so
results are bit-identical, but ``bincount`` avoids ``add.at``'s generic
buffered-ufunc path (~6× faster at message-passing sizes on a 2-vCPU
x86 host). The flattened index depends only on ``(index, feature_width)``,
so a :class:`ScatterPlan` caches it — one plan per (edge set, direction)
serves every layer, epoch, and backward pass that routes over those edges.
An index array gets a throwaway plan that does the same arithmetic.

Message passing with constant edge weights (GIN's sum, SAGE's sum before
its mean, GCN's normalised sum) skips the (E, d) message array altogether:
:func:`propagate` is one sparse product ``A @ x`` forward and ``Aᵀ @ g``
backward, with both CSR matrices cached on the workspace. Their rows list
each destination's (resp. source's) edges in edge order, duplicates kept,
so every row sums its terms in the order ``np.bincount`` would and the
result is bit-identical to the ``gather`` → ``segment_sum`` chain.
Building a CSR matrix costs a stable argsort and scipy's constructor
(~20 µs on the same host), more than a :class:`ScatterPlan`; plans stay
on ``bincount`` because many are built for one use only.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "ScatterPlan",
    "gather",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "propagate",
]


def _bincount_rows(flat: np.ndarray, values: np.ndarray,
                   length: int) -> np.ndarray:
    out = np.bincount(flat, weights=values.reshape(-1), minlength=length)
    if out.shape[0] != length:
        raise IndexError("segment index out of range for num_segments")
    return out


class ScatterPlan:
    """Reusable scatter-add recipe for one (index, num_segments) routing.

    Precomputes (lazily, per feature width) the flattened bin index that
    turns an N-D row scatter into a single 1-D ``np.bincount``, and caches
    segment counts. Build one per edge direction on a batch and pass it as
    the routing argument of :func:`gather` / :func:`segment_sum` /
    :func:`segment_softmax` — forward and backward passes then skip all
    index arithmetic.
    """

    __slots__ = ("index", "num_segments", "_flat", "_counts")

    def __init__(self, index: np.ndarray, num_segments: int):
        index = np.asarray(index)
        if index.ndim != 1:
            raise ValueError(f"index must be 1-D, got shape {index.shape}")
        if index.size and index.min() < 0:
            raise IndexError("segment index must be non-negative")
        self.index = index.astype(np.int64, copy=False)
        self.num_segments = int(num_segments)
        self._flat: dict[int, np.ndarray] = {}
        self._counts: np.ndarray | None = None

    def flat_index(self, width: int) -> np.ndarray:
        flat = self._flat.get(width)
        if flat is None:
            flat = (self.index[:, None] * width
                    + np.arange(width, dtype=np.int64)).ravel()
            self._flat[width] = flat
        return flat

    def counts(self) -> np.ndarray:
        """Number of rows routed to each segment (float64)."""
        if self._counts is None:
            self._counts = np.bincount(
                self.index, minlength=self.num_segments).astype(np.float64)
        return self._counts

    def scatter_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` rows into ``num_segments`` bins (fresh float64)."""
        if values.ndim == 1:
            return _bincount_rows(self.index, values, self.num_segments)
        width = int(np.prod(values.shape[1:]))
        out = _bincount_rows(self.flat_index(width), values,
                             self.num_segments * width)
        return out.reshape((self.num_segments,) + values.shape[1:])


def _route(index: np.ndarray | ScatterPlan,
           num_segments: int | None) -> ScatterPlan:
    """Normalise a routing argument (index array or plan) to a plan."""
    if isinstance(index, ScatterPlan):
        if num_segments is not None and num_segments != index.num_segments:
            raise ValueError(f"plan routes into {index.num_segments} "
                             f"segments, not {num_segments}")
        return index
    if num_segments is None:
        raise TypeError("num_segments is required with an index array")
    return ScatterPlan(index, num_segments)


def gather(values: Tensor, index: np.ndarray | ScatterPlan) -> Tensor:
    """Select rows ``values[index]``; gradient scatter-adds back.

    A plan must route into ``len(values)`` segments; the backward scatter
    then reuses its cached flat index.
    """
    values = as_tensor(values)
    plan = _route(index, len(values.data))

    def backward(out: Tensor) -> None:
        values._accumulate(plan.scatter_sum(out.grad), own=True)

    return Tensor._make(values.data[plan.index], (values,), backward)


def segment_sum(values: Tensor, index: np.ndarray | ScatterPlan,
                num_segments: int | None = None) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets given by ``index``.

    ``out[s] = sum_{i : index[i] == s} values[i]`` — the core aggregation of
    every GNN layer (messages → destination nodes) and of graph pooling
    (nodes → graphs).
    """
    values = as_tensor(values)
    plan = _route(index, num_segments)

    def backward(out: Tensor) -> None:
        values._accumulate(out.grad[plan.index], own=True)

    return Tensor._make(plan.scatter_sum(values.data), (values,), backward)


def segment_mean(values: Tensor, index: np.ndarray | ScatterPlan,
                 num_segments: int | None = None) -> Tensor:
    """Mean-aggregate rows per segment; empty segments yield zeros."""
    plan = _route(index, num_segments)
    totals = segment_sum(values, plan)
    counts = np.maximum(plan.counts(), 1.0)
    return totals * Tensor(1.0 / counts).reshape(
        (plan.num_segments,) + (1,) * (totals.ndim - 1))


def segment_max(values: Tensor, index: np.ndarray | ScatterPlan,
                num_segments: int | None = None,
                fill: float = 0.0) -> Tensor:
    """Max-aggregate rows per segment.

    Empty segments are filled with ``fill``. Gradient flows to the (first)
    argmax element per segment/feature, matching scatter-max semantics.
    """
    values = as_tensor(values)
    plan = _route(index, num_segments)
    index = plan.index
    data = np.full((plan.num_segments,) + values.shape[1:], -np.inf,
                   dtype=np.float64)
    np.maximum.at(data, index, values.data)
    empty = ~np.isfinite(data)
    data = np.where(empty, fill, data)

    def backward(out: Tensor) -> None:
        # Route gradient to entries equal to their segment max; split ties.
        winners = (values.data == data[index]) & ~empty[index]
        tie_counts = plan.scatter_sum(winners.astype(np.float64))
        tie_counts = np.maximum(tie_counts, 1.0)
        grad = np.where(winners, out.grad[index] / tie_counts[index], 0.0)
        values._accumulate(grad, own=True)

    return Tensor._make(data, (values,), backward)


def segment_softmax(values: Tensor, index: np.ndarray | ScatterPlan,
                    num_segments: int | None = None) -> Tensor:
    """Softmax over groups of rows sharing the same segment (GAT attention).

    Implemented as a composition of differentiable primitives, so it needs no
    bespoke vjp: ``softmax_i = exp(v_i - max_seg) / sum_seg exp(...)``. After
    the max shift every non-empty segment's denominator includes an exp(0)=1
    term, so no epsilon is needed and rows sum to exactly 1 (matching
    ``Tensor.softmax``).
    """
    values = as_tensor(values)
    plan = _route(index, num_segments)
    shifted = values - gather(segment_max(values, plan), plan)
    exps = shifted.exp()
    return exps / gather(segment_sum(exps, plan), plan)


def propagate(x: Tensor, workspace, normalized: bool = False) -> Tensor:
    """Sum each node's incoming messages: ``out = A @ x``.

    ``out[i] = Σ_{e : dst_e = i} w_e · x[src_e]`` over the edges of
    ``workspace`` (a :class:`repro.graph.MessagePassingWorkspace`), in edge
    order. With ``normalized=False`` the edges are the raw edge index and
    ``w_e = 1`` (GIN, SAGE); with ``normalized=True`` they are the
    self-looped edges weighted by the workspace's ``gcn_norm()`` (GCN's
    ``D̂^{-1/2} Â D̂^{-1/2}``). The weights are constants; the
    gradient ``Aᵀ @ g`` flows to ``x`` only. ``x`` is 1-D or 2-D with one
    row per node.
    """
    x = as_tensor(x)

    def backward(out: Tensor) -> None:
        transposed = workspace.adjacency(normalized, transpose=True)
        x._accumulate(transposed @ out.grad, own=True)

    return Tensor._make(workspace.adjacency(normalized) @ x.data, (x,),
                        backward)


# ----------------------------------------------------------------------
# Profiler op table (consumed by repro.obs.profiler)
# ----------------------------------------------------------------------
def _flops_scatter(args, kwargs, out) -> float:
    """One add/compare per scattered input row element."""
    values = args[0]
    size = values.data.size if isinstance(values, Tensor) else np.size(values)
    return float(size)


def _flops_propagate(args, kwargs, out) -> float:
    """One multiply-add per stored edge and feature column."""
    x, workspace = args[0], args[1]
    normalized = kwargs.get("normalized", len(args) > 2 and args[2])
    width = x.data[0].size if len(x.data) else 0
    return 2.0 * workspace.adjacency(normalized).nnz * width


def _flops_gather(args, kwargs, out) -> float:
    """Data movement only."""
    return 0.0


#: Module-level functions profiled by :class:`repro.obs.profiler.OpProfiler`.
#: The composite ops (``segment_mean``, ``segment_softmax``) are built from
#: the primitives below, so their *self* time in a profile excludes the
#: nested ``segment_sum``/``gather``/``exp`` calls, which report separately.
PROFILED_OPS = [
    ("gather", "gather", _flops_gather),
    ("segment_sum", "segment_sum", _flops_scatter),
    ("segment_mean", "segment_mean", _flops_scatter),
    ("segment_max", "segment_max", _flops_scatter),
    ("segment_softmax", "segment_softmax", _flops_scatter),
    ("propagate", "propagate", _flops_propagate),
]
