"""Node-level linear probe for subgraph-sampled pre-training.

The graph-level protocols score pooled embeddings; the node-level
workload is scored by how linearly separable per-node embeddings are.
A node's probe embedding is the same object the serving path returns —
the pooled readout of its deterministic ego-net
(:func:`repro.sampling.ego_subgraph`) — so the probe measures exactly
the representation the fleet serves, and a probe run can share the
service's content-addressed cache with production traffic.
"""

from __future__ import annotations

import numpy as np

from ..graph import Batch
from ..obs import current
from ..tensor import no_grad
from .linear_model import LogisticRegression
from .metrics import accuracy

__all__ = ["embed_nodes", "node_linear_probe"]


def embed_nodes(encoder, dataset, node_ids, *, seed: int = 0, hops: int = 2,
                fanout: int = 10, batch_size: int = 64,
                service=None) -> np.ndarray:
    """Frozen per-node embeddings (one row per id, request order).

    Each id resolves to its seeded ego-net, pooled by the encoder in eval
    mode under ``no_grad``. Passing a :class:`repro.serve.
    EmbeddingService` (or a fleet router) routes through its cache
    instead; ``encoder`` is ignored in that case.
    """
    from ..sampling import ego_subgraph

    node_ids = np.atleast_1d(np.asarray(node_ids, dtype=np.int64))
    graphs = [ego_subgraph(dataset, node_id, seed=seed, hops=hops,
                           fanout=fanout) for node_id in node_ids]
    if service is not None:
        return service.embed(graphs)
    chunks = []
    with encoder.evaluating(), no_grad(), current().span("eval/embed_nodes"):
        for start in range(0, len(graphs), batch_size):
            batch = Batch(graphs[start:start + batch_size])
            chunks.append(encoder.graph_representations(batch).data)
    return np.concatenate(chunks, axis=0)


def node_linear_probe(encoder, dataset, *, num_nodes: int = 1000,
                      train_fraction: float = 0.5, seed: int = 0,
                      hops: int = 2, fanout: int = 10,
                      service=None) -> dict[str, float]:
    """Logistic-regression probe on frozen per-node embeddings.

    Draws ``num_nodes`` distinct nodes with ``default_rng(seed)``, splits
    them ``train_fraction`` / rest, standardises with train statistics
    only and fits :class:`LogisticRegression` on the train labels.
    Returns ``{"accuracy", "train_accuracy", "num_train", "num_test"}``.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    num_nodes = min(num_nodes, dataset.num_nodes)
    chosen = rng.choice(dataset.num_nodes, size=num_nodes, replace=False)
    # Unlabeled nodes (NaN label) can't supervise or score the probe;
    # drop them before splitting so both halves are fully labeled.
    chosen_labels = np.asarray(dataset.y[chosen], dtype=np.float64)
    finite = np.isfinite(chosen_labels)
    if not finite.all():
        chosen = chosen[finite]
        num_nodes = len(chosen)
        if num_nodes < 2:
            raise ValueError("fewer than 2 labeled nodes drawn; "
                             "cannot fit the probe")
    split = max(1, int(round(num_nodes * train_fraction)))
    split = min(split, num_nodes - 1)
    train_ids, test_ids = chosen[:split], chosen[split:]
    embeddings = embed_nodes(encoder, dataset, chosen, seed=seed, hops=hops,
                             fanout=fanout, service=service)
    labels = dataset.y[chosen]
    with current().span("eval/node_probe"):
        mu = embeddings[:split].mean(axis=0)
        sigma = embeddings[:split].std(axis=0) + 1e-8
        train_x = (embeddings[:split] - mu) / sigma
        test_x = (embeddings[split:] - mu) / sigma
        model = LogisticRegression(C=1.0)
        model.fit(train_x, labels[:split])
        return {
            "accuracy": accuracy(labels[split:], model.predict(test_x)),
            "train_accuracy": accuracy(labels[:split],
                                       model.predict(train_x)),
            "num_train": int(len(train_ids)),
            "num_test": int(len(test_ids)),
        }
