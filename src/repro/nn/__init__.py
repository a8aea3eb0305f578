"""Neural-network substrate: modules, layers, losses, optimisers."""

from .module import Module, Parameter
from .layers import (
    BatchNorm1d,
    Dropout,
    Embedding,
    Identity,
    Linear,
    MLP,
    ReLU,
    Sequential,
)
from .functional import (
    batch_norm,
    binary_cross_entropy_with_logits,
    cosine_similarity_matrix,
    cross_entropy,
    edge_likelihood,
    info_nce,
    l2_normalize,
    linear,
    mse_loss,
    parameter_norm,
)
from .optim import SGD, Adam, Optimizer
from .schedulers import CosineAnnealingLR, LRScheduler, StepLR, WarmupLR
from . import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "BatchNorm1d",
    "Dropout",
    "Sequential",
    "Embedding",
    "Identity",
    "ReLU",
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
    "SGD",
    "Adam",
    "Optimizer",
    "LRScheduler",
    "StepLR",
    "CosineAnnealingLR",
    "WarmupLR",
    "init",
]
