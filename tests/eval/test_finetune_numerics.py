"""Degenerate fine-tunes end in a typed error, never in a score.

The NaN probe: an encoder whose first-layer weight is all NaN. Every
training batch is skipped by the loop's guard, and the evaluation logits
are NaN — which argmax would read as class 0 and ROC-AUC as a degenerate
split, so both protocols must raise instead of reporting a score.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import GraphDataset, load_dataset, scaffold_split
from repro.eval import finetune_classifier, finetune_multitask
from repro.gnn import GNNEncoder
from repro.graph import Graph
from repro.obs import MemorySink, Observer
from repro.validate import NumericsError


def _poisoned(dataset) -> GNNEncoder:
    encoder = GNNEncoder(dataset.num_features, 8, 2,
                         rng=np.random.default_rng(0))
    encoder.parameters()[0].data[...] = np.nan
    return encoder


def _transfer():
    dataset = load_dataset("BBBP", seed=0, scale=0.04)
    finetune_multitask(_poisoned(dataset), dataset, scaffold_split(dataset),
                       epochs=2, rng=np.random.default_rng(0))


def _semi_supervised():
    dataset = load_dataset("MUTAG", seed=0, scale=0.3)
    indices = np.arange(len(dataset))
    finetune_classifier(_poisoned(dataset), dataset, indices, indices,
                        epochs=2, rng=np.random.default_rng(0))


@pytest.mark.parametrize("run", [_transfer, _semi_supervised])
def test_nan_encoder_raises_after_skipping_every_batch(run):
    sink = MemorySink()
    with Observer(sinks=[sink]).activate(), \
            pytest.warns(RuntimeWarning, match=r"no batch was trained "
                                               r"\(\d+ skipped\)") as caught, \
            pytest.raises(NumericsError, match="evaluation logits"):
        run()
    # The guard's report is the only warning: numpy's own "invalid value"
    # on a NaN logit would repeat it.
    assert not [w for w in caught if "invalid value" in str(w.message)]
    rows = sink.of_kind("epoch")
    assert len(rows) >= 1
    for row in rows:
        assert np.isnan(row["loss"])
        assert row["num_batches"] == 0
        assert row["skipped_batches"] > 0


def test_single_class_validation_split_still_scores_chance():
    """Finite scores on a one-class split keep the 0.5 selection fallback."""
    rng = np.random.default_rng(0)
    graphs = [Graph(rng.normal(size=(3, 4)),
                    np.array([[0, 1, 1, 2], [1, 0, 2, 1]]),
                    y=np.array([float(i < 4)])) for i in range(12)]
    dataset = GraphDataset("toy", graphs, num_classes=1, task="multitask")
    encoder = GNNEncoder(4, 8, 2, rng=rng)
    # train on both classes, validate on one-class graphs, test on both
    splits = (np.arange(8), np.arange(4, 8), np.arange(2, 6))
    auc = finetune_multitask(encoder, dataset, splits, epochs=2,
                             rng=np.random.default_rng(1))
    assert 0.0 <= auc <= 1.0


def test_unlabelled_test_split_is_an_error_not_a_nan_score():
    from _helpers import make_triangle

    rng = np.random.default_rng(0)
    graphs = [make_triangle(rng, y=i % 2) for i in range(4)]
    graphs += [make_triangle(rng, y=None) for _ in range(2)]
    dataset = GraphDataset("toy", graphs, num_classes=2)
    with pytest.raises(ValueError, match="no labelled test graph"):
        finetune_classifier(GNNEncoder(4, 8, 2, rng=rng), dataset,
                            np.arange(4), np.arange(4, 6), epochs=1,
                            rng=np.random.default_rng(1))
