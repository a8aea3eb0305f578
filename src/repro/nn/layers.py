"""Standard neural-network layers built on the autodiff substrate."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from . import init
from .functional import batch_norm, linear
from .module import Module, Parameter

__all__ = [
    "Linear",
    "MLP",
    "BatchNorm1d",
    "Dropout",
    "Sequential",
    "Embedding",
    "Identity",
    "ReLU",
]


class Linear(Module):
    """Affine map ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to include the additive bias term.
    rng:
        Seeded generator for initialisation (required — no global RNG use).
    """

    def __init__(self, in_features: int, out_features: int, *,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Apply submodules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)


class BatchNorm1d(Module):
    """Batch normalisation over the leading (row) dimension.

    Keeps running statistics for eval mode, matching the GIN reference
    implementation used in GraphCL/SGCL encoders.
    """

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, num_features: int, *, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if self.training and x.shape[0] > 1:
            out, mean, var = batch_norm(x, self.gamma, self.beta, self.eps)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
            return out
        normalised = (x - self.running_mean) * (
            1.0 / np.sqrt(self.running_var + self.eps))
        return normalised * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    A seeded generator must be supplied so runs are reproducible.
    """

    def __init__(self, p: float, *, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class MLP(Module):
    """Multi-layer perceptron with ReLU activations.

    Used for GIN update functions and projection heads. ``batch_norm=True``
    inserts BatchNorm after every hidden Linear, as in the GIN paper.
    """

    def __init__(self, dims: list[int], *, rng: np.random.Generator,
                 batch_norm: bool = False, final_activation: bool = False):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least [in, out] dims")
        layers: list[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng=rng))
            is_last = i == len(dims) - 2
            if not is_last or final_activation:
                if batch_norm:
                    layers.append(BatchNorm1d(d_out))
                layers.append(ReLU())
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class Embedding(Module):
    """Integer-index embedding table (for categorical atom/bond features)."""

    def __init__(self, num_embeddings: int, embedding_dim: int, *,
                 rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init.xavier_uniform((num_embeddings, embedding_dim), rng))

    def forward(self, index: np.ndarray) -> Tensor:
        index = np.asarray(index, dtype=np.int64)
        if index.min(initial=0) < 0 or (index.size and index.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        from ..tensor import gather
        return gather(self.weight, index)
