"""Serving subsystem: checkpoints, cached embedding inference, registry.

Turns a pre-trained encoder into a long-lived artifact and a service:
``save_checkpoint``/``load_checkpoint`` persist model + config + optimizer
state to a versioned ``.npz`` bundle; :class:`EmbeddingService` answers
``embed(graphs)`` through a content-addressed LRU cache and a micro-batching
queue; :class:`ModelRegistry` names several checkpoints under one directory.
Each service measures its traffic (hit rates, batch sizes, latency
percentiles via ``service.stats()``) in a plain
:class:`repro.obs.MetricsRegistry`, so serving metrics land in the same
substrate as training telemetry.
"""

from .checkpoint import (
    SCHEMA_VERSION,
    Checkpoint,
    CheckpointIntegrityError,
    load_checkpoint,
    load_trainer,
    read_checkpoint_header,
    save_checkpoint,
    verify_checkpoint,
)
from .registry import ModelRegistry
from .service import EmbeddingService, PendingEmbedding, graph_digest

__all__ = [
    "SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointIntegrityError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
    "verify_checkpoint",
    "load_trainer",
    "EmbeddingService",
    "PendingEmbedding",
    "graph_digest",
    "ModelRegistry",
]
