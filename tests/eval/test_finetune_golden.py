"""Golden values of the fine-tune protocols and generator adaptation.

Each case pins, as ``float.hex``, the returned score (or history) and every
per-batch training loss, recorded by wrapping the loss function the
protocol calls. A change to batching, RNG use, update order or arithmetic
shows up here as a changed value, not as a slightly different accuracy.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core import SGCLConfig, SGCLModel, adapt_generator
from repro.core import adaptation
from repro.data import GraphDataset, load_dataset, scaffold_split
from repro.eval import finetune_classifier, finetune_multitask, protocol
from repro.gnn import GNNEncoder


def _record(monkeypatch, module, name) -> list[str]:
    """Wrap ``module.name`` so every loss it returns is logged as hex."""
    losses: list[str] = []
    inner = getattr(module, name)

    def wrapped(*args, **kwargs):
        loss = inner(*args, **kwargs)
        losses.append(loss.item().hex())
        return loss

    monkeypatch.setattr(module, name, wrapped)
    return losses


def _digest(values) -> str:
    return hashlib.sha256(",".join(values).encode()).hexdigest()[:16]


def _encoder(dataset):
    return GNNEncoder(dataset.num_features, 16, 2,
                      rng=np.random.default_rng(3))


def test_finetune_classifier_mutag(monkeypatch):
    losses = _record(monkeypatch, protocol, "cross_entropy")
    dataset = load_dataset("MUTAG", seed=0, scale=0.3)
    order = np.random.default_rng(0).permutation(len(dataset))
    cut = int(0.8 * len(dataset))
    score = finetune_classifier(_encoder(dataset), dataset, order[:cut],
                                order[cut:], epochs=5, batch_size=16,
                                rng=np.random.default_rng(1))
    assert score.hex() == "0x1.aaaaaaaaaaaabp-2"
    assert len(losses) == 15
    assert _digest(losses) == "6bc36adf2e4edd1e"


def test_finetune_classifier_skips_unlabelled_batches(monkeypatch):
    from _helpers import make_path, make_triangle

    rng = np.random.default_rng(7)
    losses = _record(monkeypatch, protocol, "cross_entropy")
    graphs = [(make_triangle if i % 2 == 0 else make_path)(rng, y=i % 2)
              for i in range(10)]
    graphs += [make_triangle(rng, y=None) for _ in range(6)]
    dataset = GraphDataset("toy", graphs, num_classes=2)
    indices = np.arange(len(graphs))
    score = finetune_classifier(GNNEncoder(4, 8, 2, rng=rng), dataset,
                                indices, indices, epochs=3, batch_size=3,
                                rng=np.random.default_rng(0))
    assert score.hex() == "0x1.3333333333333p-1"
    assert len(losses) == 16  # 2 of 18 batches hold only unlabelled graphs
    assert _digest(losses) == "c3aaa71404a626fe"


def test_finetune_multitask_bbbp(monkeypatch):
    losses = _record(monkeypatch, protocol,
                     "binary_cross_entropy_with_logits")
    dataset = load_dataset("BBBP", seed=0, scale=0.05)
    score = finetune_multitask(_encoder(dataset), dataset,
                               scaffold_split(dataset), epochs=4,
                               batch_size=16, rng=np.random.default_rng(1))
    assert score.hex() == "0x1.0329161f9add4p-1"
    assert len(losses) == 20
    assert _digest(losses) == "d16bb8edb3771229"


def test_adapt_generator_history_and_weights(monkeypatch):
    losses = _record(monkeypatch, adaptation, "graph_likelihood_loss")
    dataset = load_dataset("MUTAG", seed=0, scale=0.2)
    model = SGCLModel(dataset.num_features,
                      SGCLConfig(hidden_dim=16, num_layers=2),
                      rng=np.random.default_rng(3))
    history = adapt_generator(model, dataset.graphs, epochs=3,
                              batch_size=16, seed=0)
    assert [value.hex() for value in history] == [
        "0x1.601f3b848b7b7p-1", "0x1.601dcde9c8a71p-1",
        "0x1.5fa8cecbaf8e9p-1"]
    assert len(losses) == 9
    assert _digest(losses) == "d93540b5b58e6afb"
    weights = hashlib.sha256()
    for _, value in sorted(model.generator.encoder.state_dict().items()):
        weights.update(np.ascontiguousarray(value).tobytes())
    weights.update(model.edge_weight.data.tobytes())
    assert weights.hexdigest()[:16] == "9c53eb5c34ecc51e"
