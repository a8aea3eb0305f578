"""Crash-safe auto-resume: integrity checks, discovery fallback, signals."""

from __future__ import annotations

import json
import signal

import numpy as np
import pytest
from _helpers import make_path, make_triangle

from repro.core import SGCLConfig, SGCLTrainer
from repro.data import load_dataset
from repro.obs import Observer
from repro.resilience import (
    find_latest_checkpoint,
    interrupt_guard,
    resume_trainer,
)
from repro.sampling import (NodeSGCLTrainer, SubgraphStream,
                            load_node_dataset, make_sampler)
from repro.serve import CheckpointIntegrityError, load_checkpoint, verify_checkpoint
from repro.serve.checkpoint import read_checkpoint_header
from repro.validate.faults import corrupt_checkpoint


@pytest.fixture
def graphs(rng):
    return [make_triangle(rng, y=i % 2) for i in range(4)] + \
        [make_path(rng, n=4 + i % 3, y=i % 2) for i in range(4)]


def _trainer(epochs=1):
    return SGCLTrainer(4, SGCLConfig(epochs=epochs, batch_size=4, seed=0))


# ----------------------------------------------------------------------
# Checkpoint integrity (sha256 checksum)
# ----------------------------------------------------------------------
def test_checkpoint_header_carries_checksum(tmp_path, graphs):
    trainer = _trainer()
    trainer.pretrain(graphs)
    path = trainer.save_checkpoint(tmp_path / "ck.npz")
    header = read_checkpoint_header(path)
    assert len(header["checksum"]) == 64  # sha256 hex
    assert verify_checkpoint(path)


def test_tampered_payload_fails_integrity_check(tmp_path, graphs):
    """A bit flip the zip container still accepts is caught by the sha256."""
    trainer = _trainer()
    trainer.pretrain(graphs)
    path = trainer.save_checkpoint(tmp_path / "ck.npz")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key].copy() for key in archive.files}
    key = next(k for k in arrays if k.startswith("model/"))
    arrays[key] = arrays[key] + 1e-3  # silent parameter corruption
    np.savez(path, **arrays)
    with pytest.raises(CheckpointIntegrityError, match="sha256"):
        load_checkpoint(path)
    assert not verify_checkpoint(path)


def test_pre_checksum_bundles_still_load(tmp_path, graphs):
    trainer = _trainer()
    trainer.pretrain(graphs)
    path = trainer.save_checkpoint(tmp_path / "old.npz")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key].copy() for key in archive.files}
    header = json.loads(bytes(arrays["__header__"]).decode())
    del header["checksum"]
    arrays["__header__"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    load_checkpoint(path)  # no checksum -> nothing to compare
    assert verify_checkpoint(path)


@pytest.mark.parametrize("mode", ["truncate", "garbage", "empty"])
def test_on_disk_corruption_never_verifies(tmp_path, graphs, mode):
    trainer = _trainer()
    trainer.pretrain(graphs)
    path = trainer.save_checkpoint(tmp_path / "ck.npz")
    corrupt_checkpoint(path, mode=mode)
    assert not verify_checkpoint(path)


# ----------------------------------------------------------------------
# Discovery and fallback
# ----------------------------------------------------------------------
def test_find_latest_prefers_most_trained_valid_checkpoint(tmp_path, graphs):
    trainer = _trainer()
    for epoch in (1, 2, 3):
        trainer.pretrain(graphs, epochs=1)
        trainer.save_checkpoint(tmp_path / f"epoch-{epoch:04d}.npz")
    assert find_latest_checkpoint(tmp_path).name == "epoch-0003.npz"


def test_find_latest_falls_back_past_corrupt_checkpoints(tmp_path, graphs):
    trainer = _trainer()
    for epoch in (1, 2, 3):
        trainer.pretrain(graphs, epochs=1)
        trainer.save_checkpoint(tmp_path / f"epoch-{epoch:04d}.npz")
    corrupt_checkpoint(tmp_path / "epoch-0003.npz", mode="garbage")
    observer = Observer()
    with observer.activate():
        best = find_latest_checkpoint(tmp_path)
    assert best.name == "epoch-0002.npz"
    assert observer.metrics.count("resilience/corrupt_checkpoints") >= 1


def test_find_latest_handles_missing_and_empty_dirs(tmp_path):
    assert find_latest_checkpoint(tmp_path / "nope") is None
    assert find_latest_checkpoint(tmp_path) is None
    assert resume_trainer(tmp_path) is None


def test_every_checkpoint_corrupt_returns_none(tmp_path, graphs):
    trainer = _trainer()
    trainer.pretrain(graphs)
    trainer.save_checkpoint(tmp_path / "only.npz")
    corrupt_checkpoint(tmp_path / "only.npz", mode="empty")
    observer = Observer()
    with observer.activate():
        assert find_latest_checkpoint(tmp_path) is None
    assert observer.metrics.count("resilience/corrupt_checkpoints") == 1


# ----------------------------------------------------------------------
# Interrupted-then-resumed == uninterrupted (the acceptance criterion)
# ----------------------------------------------------------------------
class _StopAfter(Observer):
    """Observer that requests a graceful stop after N epoch events."""

    def __init__(self, trainer, epochs):
        super().__init__()
        self._trainer = trainer
        self._remaining = epochs

    def event(self, kind, **fields):
        if kind == "epoch":
            self._remaining -= 1
            if self._remaining == 0:
                self._trainer.request_stop()
        return super().event(kind, **fields)


def _comparable(history):
    """History rows minus wall-clock timing and observer-dependent extras
    (``grad_norm`` is only recorded when an observer is enabled); every
    remaining field is a pure function of the seed."""
    return [{k: v for k, v in row.items()
             if k not in ("epoch_seconds", "grad_norm")}
            for row in history]


def test_interrupted_then_resumed_matches_uninterrupted(tmp_path, graphs):
    config = SGCLConfig(epochs=4, batch_size=4, seed=0)
    reference = SGCLTrainer(4, config)
    reference.pretrain(graphs)

    interrupted = SGCLTrainer(4, config)
    stopper = _StopAfter(interrupted, epochs=2)
    interrupted.pretrain(graphs, observer=stopper)
    assert len(interrupted.history) == 2  # stopped at the epoch boundary
    interrupted.save_emergency_checkpoint(tmp_path)

    resumed = resume_trainer(tmp_path)
    assert resumed is not None
    assert len(resumed.history) == 2
    resumed.pretrain(graphs, epochs=2)

    assert _comparable(resumed.history) == _comparable(reference.history)
    original = reference.model.state_dict()
    restored = resumed.model.state_dict()
    assert set(original) == set(restored)
    assert all(np.array_equal(original[k], restored[k]) for k in original)


def _graph_level():
    dataset = load_dataset("MUTAG", seed=0, scale=0.1)
    config = SGCLConfig(epochs=3, batch_size=32, seed=0)
    return (lambda: SGCLTrainer(dataset.num_features, config),
            lambda: dataset.graphs)


def _node_level():
    dataset = load_node_dataset("community-1m", seed=0, scale=0.0005)
    config = SGCLConfig(hidden_dim=8, num_layers=2, epochs=3, seed=0)
    sampler = make_sampler("walk", dataset, roots=8, walk_length=4)
    return (lambda: NodeSGCLTrainer(dataset.num_features, config),
            lambda: SubgraphStream(sampler, samples_per_epoch=4,
                                   batch_size=2, seed=1, norm_samples=10))


@pytest.mark.parametrize("level", ["graph", "node"])
def test_resume_equivalence(level, tmp_path):
    """3 epochs in one go == 1 epoch, resume from the checkpoint
    directory, 2 more: same history, same weights, bit for bit."""
    make_trainer, make_data = {"graph": _graph_level,
                               "node": _node_level}[level]()
    reference = make_trainer()
    reference.pretrain(make_data())

    make_trainer().pretrain(make_data(), epochs=1, checkpoint_dir=tmp_path)
    resumed = resume_trainer(tmp_path)
    assert type(resumed) is type(reference)
    resumed.pretrain(make_data(), epochs=2, checkpoint_dir=tmp_path)

    assert len(resumed.history) == len(reference.history) == 3
    assert _comparable(resumed.history) == _comparable(reference.history)
    original = reference.model.state_dict()
    restored = resumed.model.state_dict()
    assert set(original) == set(restored)
    assert all(np.array_equal(original[k], restored[k]) for k in original)


def test_equal_epochs_and_mtime_break_ties_on_filename(tmp_path, graphs):
    """Coarse filesystem timestamps must not make resume nondeterministic.

    Two checkpoints with the same epoch count written within one
    timestamp granule used to resume in directory-iteration order; the
    filename leg (descending) pins the winner: ``latest.npz`` beats any
    ``epoch-*.npz`` twin.
    """
    trainer = _trainer()
    trainer.pretrain(graphs, epochs=1)
    a = trainer.save_checkpoint(tmp_path / "epoch-0001.npz")
    b = trainer.save_checkpoint(tmp_path / "latest.npz")
    stamp = 1_700_000_000
    import os
    os.utime(a, (stamp, stamp))
    os.utime(b, (stamp, stamp))
    assert find_latest_checkpoint(tmp_path).name == "latest.npz"
    # and the ordering is content-driven, not name-driven, when epochs differ
    trainer.pretrain(graphs, epochs=1)
    c = trainer.save_checkpoint(tmp_path / "epoch-0002.npz")
    os.utime(c, (stamp, stamp))
    assert find_latest_checkpoint(tmp_path).name == "epoch-0002.npz"


def test_resume_picks_emergency_over_stale_latest(tmp_path, graphs):
    """latest.npz from an older run must lose to a more-trained emergency."""
    trainer = _trainer()
    trainer.pretrain(graphs, epochs=1)
    trainer.save_checkpoint(tmp_path / "latest.npz")
    trainer.pretrain(graphs, epochs=1)
    trainer.save_emergency_checkpoint(tmp_path)
    assert find_latest_checkpoint(tmp_path).name == "emergency.npz"


# ----------------------------------------------------------------------
# Signal trapping
# ----------------------------------------------------------------------
def test_interrupt_guard_graceful_then_hard():
    stops = []
    observer = Observer()
    with observer.activate():
        with interrupt_guard(on_interrupt=lambda: stops.append(1)) as state:
            assert not state.interrupted
            signal.raise_signal(signal.SIGINT)
            assert state.interrupted
            assert state.signal_name == "SIGINT"
            assert stops == [1]
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)
    assert observer.metrics.count("resilience/interrupts") == 1


def test_interrupt_guard_restores_previous_handlers():
    before = signal.getsignal(signal.SIGINT)
    with interrupt_guard():
        assert signal.getsignal(signal.SIGINT) is not before
    assert signal.getsignal(signal.SIGINT) is before


def test_interrupt_guard_sigterm_requests_stop(graphs):
    trainer = _trainer()
    with interrupt_guard(on_interrupt=trainer.request_stop) as state:
        signal.raise_signal(signal.SIGTERM)
    assert state.signal_name == "SIGTERM"
    assert trainer.stop_requested
    # A fresh pretrain call clears the stale flag and runs normally
    # (request_stop only targets the loop that is running when it fires).
    history = trainer.pretrain(graphs, epochs=1)
    assert len(history) == 1
    assert not trainer.stop_requested
