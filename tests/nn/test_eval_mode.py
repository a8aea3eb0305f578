"""``Module.evaluating``: eval mode for a block, the caller's mode after.

Every inference helper that switches an encoder to eval mode must hand it
back in the mode it came in: an encoder left in training mode by mistake
runs BatchNorm on batch statistics and updates its running ones on the
next forward.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LipschitzConstantGenerator, theory
from repro.data import load_dataset
from repro.eval import embed_dataset, embed_nodes
from repro.eval.protocol import _eval_logits
from repro.gnn import GNNEncoder
from repro.graph import Batch
from repro.nn import Linear
from repro.sampling import load_node_dataset


def _graph_encoder():
    dataset = load_dataset("MUTAG", seed=0, scale=0.1)
    encoder = GNNEncoder(dataset.num_features, 8, 2,
                         rng=np.random.default_rng(0))
    return dataset, encoder


def _representation_distance():
    dataset, encoder = _graph_encoder()
    graph = dataset[0]
    kept = np.arange(graph.num_nodes - 1)
    return encoder, lambda: theory.representation_distance(
        encoder, graph, kept)


def _embed_dataset():
    dataset, encoder = _graph_encoder()
    return encoder, lambda: embed_dataset(encoder, dataset)


def _eval_logits_call():
    dataset, encoder = _graph_encoder()
    head = Linear(encoder.out_dim, dataset.num_classes,
                  rng=np.random.default_rng(1))
    return encoder, lambda: _eval_logits(encoder, head, dataset, [0, 1, 2])


def _embed_nodes():
    dataset = load_node_dataset("community-1m", seed=0, scale=0.0005)
    encoder = GNNEncoder(dataset.num_features, 8, 2,
                         rng=np.random.default_rng(0))
    return encoder, lambda: embed_nodes(encoder, dataset, [3, 17])


def _node_constants():
    dataset, encoder = _graph_encoder()
    generator = LipschitzConstantGenerator(encoder,
                                           rng=np.random.default_rng(1))
    batch = Batch(dataset.graphs[:4])
    return encoder, lambda: generator.node_constants(batch)


ENTRY_POINTS = {
    "representation_distance": _representation_distance,
    "embed_dataset": _embed_dataset,
    "eval_logits": _eval_logits_call,
    "embed_nodes": _embed_nodes,
    "node_constants": _node_constants,
}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_inference_helpers_restore_the_callers_mode(entry, training):
    encoder, call = ENTRY_POINTS[entry]()
    encoder.train(training)
    call()
    assert encoder.training is training
    assert all(m.training is training for m in encoder.modules())


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_evaluating_restores_the_mode_when_the_block_raises(training):
    _, encoder = _graph_encoder()
    encoder.train(training)
    with pytest.raises(RuntimeError, match="inside"):
        with encoder.evaluating():
            assert not any(m.training for m in encoder.modules())
            raise RuntimeError("inside")
    assert encoder.training is training
