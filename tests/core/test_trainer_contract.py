"""The contract every pre-training method keeps: one shared epoch loop.

SGCL, node-level SGCL and the baselines (GAE stands in for them) must
agree on per-epoch checkpoints, graceful stops, all-skipped epochs and
``epoch`` events; every registered neural method takes the same
``observer=``/``checkpoint_dir=`` arguments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GAE, NEURAL_METHODS, make_method
from repro.core import SGCLConfig, SGCLTrainer
from repro.data import load_dataset
from repro.obs import MemorySink, Observer
from repro.sampling import (NodeSGCLTrainer, SubgraphStream,
                            load_node_dataset, make_sampler)
from repro.serve.checkpoint import read_checkpoint_header
from repro.validate.faults import inject_nan_loss


@pytest.fixture(scope="module")
def mutag():
    return load_dataset("MUTAG", seed=0, scale=0.1)


@pytest.fixture(scope="module")
def nodes():
    return load_node_dataset("community-1m", seed=0, scale=0.0005)


def _sgcl(mutag, nodes):
    config = SGCLConfig(hidden_dim=8, num_layers=2, batch_size=8, seed=0)
    return SGCLTrainer(mutag.num_features, config), mutag.graphs


def _node_sgcl(mutag, nodes):
    config = SGCLConfig(hidden_dim=8, num_layers=2, seed=0)
    stream = SubgraphStream(
        make_sampler("walk", nodes, roots=8, walk_length=4),
        samples_per_epoch=4, batch_size=2, seed=1, norm_samples=10)
    return NodeSGCLTrainer(nodes.num_features, config), stream


def _gae(mutag, nodes):
    return GAE(mutag.num_features, hidden_dim=8, num_layers=2, batch_size=8,
               seed=0), mutag.graphs


#: method name on ``epoch`` events → (trainer, its data)
TRAINERS = {"SGCL": _sgcl, "SGCL-node": _node_sgcl, "GAE": _gae}


@pytest.fixture(params=sorted(TRAINERS))
def case(request, mutag, nodes):
    trainer, data = TRAINERS[request.param](mutag, nodes)
    return request.param, trainer, data


class _Recorder(Observer):
    """Keeps every event; optionally requests a stop after N epochs."""

    def __init__(self, trainer=None, stop_after: int | None = None):
        super().__init__(sinks=[MemorySink()])
        self._trainer = trainer
        self._stop_after = stop_after
        self.kinds: list[str] = []

    def event(self, kind, **fields):
        self.kinds.append(kind)
        if kind == "epoch" and self.kinds.count("epoch") == self._stop_after:
            self._trainer.request_stop()
        return super().event(kind, **fields)


def test_latest_and_best_written_every_epoch(case, tmp_path):
    _, trainer, data = case
    for epoch in (1, 2):
        trainer.pretrain(data, epochs=1, checkpoint_dir=tmp_path)
        for name in ("latest.npz", "best.npz"):
            assert (tmp_path / name).exists(), (epoch, name)
        latest = read_checkpoint_header(tmp_path / "latest.npz")
        assert latest["metadata"]["history"] == trainer.history
        assert len(trainer.history) == epoch


def test_request_stop_ends_the_run_at_an_epoch_boundary(case):
    _, trainer, data = case
    recorder = _Recorder(trainer, stop_after=1)
    history = trainer.pretrain(data, epochs=3, observer=recorder)
    assert len(history) == 1
    assert recorder.kinds == ["epoch", "pretrain_stopped"]
    assert trainer.stop_requested
    # The next call clears the flag and trains normally.
    assert len(trainer.pretrain(data, epochs=1)) == 2
    assert not trainer.stop_requested


def test_all_skipped_epoch_is_a_nan_row_with_a_warning(case, tmp_path):
    _, trainer, data = case
    with inject_nan_loss(trainer, batches=range(10 ** 6),
                         attr="_batch_loss"), \
            pytest.warns(RuntimeWarning, match="no batch was trained"):
        history = trainer.pretrain(data, epochs=1, checkpoint_dir=tmp_path)
    row = history[0]
    assert np.isnan(row["loss"])
    assert row["num_batches"] == 0
    assert row["skipped_batches"] > 0
    assert row["epoch"] == 1 and "epoch_seconds" in row
    assert (tmp_path / "latest.npz").exists()
    assert not (tmp_path / "best.npz").exists()  # NaN never wins best


def test_epoch_event_carries_the_method_name(case):
    method, trainer, data = case
    sink = MemorySink()
    trainer.pretrain(data, epochs=2, observer=Observer(sinks=[sink]))
    events = sink.of_kind("epoch")
    assert [event["method"] for event in events] == [method, method]
    assert [event["epoch"] for event in events] == [1, 2]
    assert [event["loss"] for event in events] == \
        [row["loss"] for row in trainer.history]


@pytest.mark.parametrize("name", sorted(NEURAL_METHODS))
def test_every_method_takes_observer_and_checkpoint_dir(name, mutag,
                                                        tmp_path):
    model = make_method(name, mutag.num_features, seed=0, batch_size=8,
                        hidden_dim=8, num_layers=2)
    sink = MemorySink()
    history = model.pretrain(mutag.graphs, epochs=1,
                             observer=Observer(sinks=[sink]),
                             checkpoint_dir=tmp_path)
    epochs = 0 if name == "No Pre-Train" else 1
    assert len(history) == len(sink.of_kind("epoch")) == epochs
    assert (tmp_path / "latest.npz").exists() == bool(epochs)
