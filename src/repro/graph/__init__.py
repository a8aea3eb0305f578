"""Graph data substrate: containers, batching, transforms."""

from .graph import Graph, update_graph_hash
from .batch import Batch
from .workspace import MessagePassingWorkspace
from .transforms import (
    add_self_loops,
    constant_features,
    degree_features,
    normalized_adjacency_weights,
    one_hot,
)

__all__ = [
    "Graph",
    "update_graph_hash",
    "Batch",
    "MessagePassingWorkspace",
    "add_self_loops",
    "one_hot",
    "degree_features",
    "constant_features",
    "normalized_adjacency_weights",
]
