"""The contract every training job keeps: one shared epoch loop.

SGCL, node-level SGCL and the baselines (GAE stands in for them) must
agree on per-epoch checkpoints, graceful stops, all-skipped epochs and
``epoch`` events; every registered neural method takes the same
``observer=``/``checkpoint_dir=`` arguments. The loop's closure clients
(the two fine-tunes and generator adaptation) keep the ``epoch`` event
and all-skipped-epoch parts of the contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GAE, NEURAL_METHODS, make_method
from repro.core import (SGCLConfig, SGCLModel, SGCLTrainer, adapt_generator,
                        adaptation)
from repro.data import load_dataset, scaffold_split
from repro.eval import finetune_classifier, finetune_multitask, protocol
from repro.gnn import GNNEncoder
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


# ----------------------------------------------------------------------
# Closure clients: the fine-tunes and generator adaptation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bbbp():
    return load_dataset("BBBP", seed=0, scale=0.04)


def _encoder(dataset):
    return GNNEncoder(dataset.num_features, 8, 2,
                      rng=np.random.default_rng(0))


def _transfer(mutag, bbbp):
    finetune_multitask(_encoder(bbbp), bbbp, scaffold_split(bbbp), epochs=2,
                       batch_size=8, rng=np.random.default_rng(0))


def _semi_supervised(mutag, bbbp):
    indices = np.arange(len(mutag))
    finetune_classifier(_encoder(mutag), mutag, indices, indices, epochs=2,
                        batch_size=8, rng=np.random.default_rng(0))


def _adapt(mutag, bbbp):
    model = SGCLModel(mutag.num_features,
                      SGCLConfig(hidden_dim=8, num_layers=2),
                      rng=np.random.default_rng(0))
    return adapt_generator(model, mutag.graphs, epochs=2, batch_size=8)


#: method name on ``epoch`` events → (module, loss function it calls, run);
#: ``run`` returns the client's loss history, or None if it returns a score
CLIENTS = {
    "finetune/transfer": (protocol, "binary_cross_entropy_with_logits",
                          _transfer),
    "finetune/semi-supervised": (protocol, "cross_entropy",
                                 _semi_supervised),
    "adapt_generator": (adaptation, "graph_likelihood_loss", _adapt),
}


@pytest.fixture(params=sorted(CLIENTS))
def client(request, mutag, bbbp, monkeypatch):
    """(method, recorded batch losses, poison switch, run)."""
    module, name, run = CLIENTS[request.param]
    inner = getattr(module, name)
    losses: list[float] = []
    poison = {"on": False}

    def recording(*args, **kwargs):
        loss = inner(*args, **kwargs)
        losses.append(loss.item())
        return loss * float("nan") if poison["on"] else loss

    monkeypatch.setattr(module, name, recording)
    return request.param, losses, poison, lambda: run(mutag, bbbp)


class _EpochMarks(Observer):
    """Notes how many batch losses were recorded at each ``epoch`` event."""

    def __init__(self, losses: list[float]):
        self.sink = MemorySink()
        super().__init__(sinks=[self.sink])
        self._losses = losses
        self.marks = [0]

    def event(self, kind, **fields):
        if kind == "epoch":
            self.marks.append(len(self._losses))
        return super().event(kind, **fields)


def test_closure_client_emits_one_epoch_event_per_epoch(client):
    method, losses, _, run = client
    observer = _EpochMarks(losses)
    with observer.activate():
        history = run()
    events = observer.sink.of_kind("epoch")
    assert [event["method"] for event in events] == [method, method]
    assert [event["epoch"] for event in events] == [1, 2]
    expected = [float(np.mean(losses[start:stop])) for start, stop
                in zip(observer.marks, observer.marks[1:])]
    assert [event["loss"] for event in events] == expected
    if history is not None:
        assert history == expected


def test_closure_client_nan_loss_is_a_nan_row_with_a_warning(client):
    _, _, poison, run = client
    poison["on"] = True
    sink = MemorySink()
    with Observer(sinks=[sink]).activate(), \
            pytest.warns(RuntimeWarning, match="no batch was trained"):
        history = run()
    events = sink.of_kind("epoch")
    assert len(events) == 2
    for event in events:
        assert np.isnan(event["loss"])
        assert event["num_batches"] == 0
        assert event["skipped_batches"] > 0
    if history is not None:
        assert all(np.isnan(value) for value in history)


def test_adapt_generator_epoch_without_graphs_is_nan_with_a_warning(mutag):
    model = SGCLModel(mutag.num_features,
                      SGCLConfig(hidden_dim=8, num_layers=2),
                      rng=np.random.default_rng(0))
    with pytest.warns(RuntimeWarning, match=r"no batch was trained "
                                            r"\(0 skipped\)"):
        history = adapt_generator(model, [], epochs=2)
    assert len(history) == 2 and all(np.isnan(value) for value in history)
