"""Name → method factory registry used by the benchmark harness.

Neural methods share the interface ``method = make_method(name, in_dim,
**overrides)`` → a :class:`~repro.core.trainer.PretrainLoop` with
``.pretrain(graphs, epochs)`` and ``.encoder`` (the SGCL rows are
:class:`~repro.core.SGCLTrainer` instances, their options
:class:`~repro.core.SGCLConfig` fields); kernel methods are exposed through
:func:`kernel_feature_map`.
"""

from __future__ import annotations

from typing import Callable

from ..core import SGCLConfig, SGCLTrainer
from .adgcl import ADGCL
from .autogcl import AutoGCL
from .graphcl import GraphCL
from .infograph import InfoGraph
from .joao import JOAOv2
from .kernels import dgk_features, graphlet_features, wl_features
from .pretrain import GAE, DGI, AttrMasking, ContextPred, NoPretrain
from .rgcl import RGCL
from .simgrace import SimGRACE

__all__ = ["make_method", "kernel_feature_map", "NEURAL_METHODS",
           "KERNEL_METHODS"]


def _sgcl_variant(**fixed):
    def factory(in_dim: int, **overrides):
        # An unknown option is a TypeError from the dataclass constructor.
        return SGCLTrainer(in_dim, SGCLConfig(**{**fixed, **overrides}))

    return factory


NEURAL_METHODS: dict[str, Callable] = {
    "InfoGraph": InfoGraph,
    "GraphCL": GraphCL,
    "JOAOv2": JOAOv2,
    "AD-GCL": ADGCL,
    "SimGRACE": SimGRACE,
    "RGCL": RGCL,
    "AutoGCL": AutoGCL,
    "AttrMasking": AttrMasking,
    "ContextPred": ContextPred,
    "GAE": GAE,
    "Infomax": DGI,
    "No Pre-Train": NoPretrain,
    "SGCL": _sgcl_variant(),
    # Table V ablation rows.
    "SGCL w/o VG": _sgcl_variant(augmentation="random"),
    "SGCL w/o LGA": _sgcl_variant(augmentation="learnable"),
    "SGCL w/o SRL": _sgcl_variant(use_semantic_readout=False),
    "SGCL w/o Lc": _sgcl_variant(lambda_c=0.0),
    "SGCL w/o LW": _sgcl_variant(lambda_w=0.0),
}

KERNEL_METHODS: dict[str, Callable] = {
    "GL": graphlet_features,
    "WL": wl_features,
    "DGK": dgk_features,
}


def make_method(name: str, in_dim: int, **overrides):
    """Instantiate a neural pre-training method by its paper name."""
    if name not in NEURAL_METHODS:
        raise KeyError(
            f"unknown method {name!r}; available: {sorted(NEURAL_METHODS)}")
    return NEURAL_METHODS[name](in_dim, **overrides)


def kernel_feature_map(name: str, graphs):
    """Explicit feature map of a kernel method by its paper name."""
    if name not in KERNEL_METHODS:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(KERNEL_METHODS)}")
    return KERNEL_METHODS[name](graphs)
