"""Autodiff substrate: :class:`Tensor`, primitive ops, and segment kernels."""

from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    no_grad,
    stack,
    where,
)
from .segment import (
    ScatterPlan,
    gather,
    propagate,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "ScatterPlan",
    "gather",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "propagate",
]
