"""NumericsGuard behaviour: unit checks, trainer wiring, fault injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GAE
from repro.core import SGCLConfig, SGCLTrainer
from repro.obs import JSONLSink, Observer, load_events, render_report
from repro.validate import NumericsError, NumericsGuard, global_grad_norm
from repro.validate.faults import inject_nan_loss

from _helpers import make_path, make_triangle


def _corpus(rng, n=8):
    return [make_triangle(rng) if i % 2 else make_path(rng, n=4 + i % 3)
            for i in range(n)]


class _FakeParam:
    def __init__(self, grad):
        self.grad = np.asarray(grad, dtype=np.float64)


# ----------------------------------------------------------------------
# Guard unit behaviour
# ----------------------------------------------------------------------
def test_finite_stats_pass_without_side_effects():
    observer = Observer()
    guard = NumericsGuard(policy="raise", observer=observer)
    assert guard.check_loss({"loss": 1.0, "loss_s": 0.3})
    assert guard.flagged_batches == 0
    assert observer.metrics.count("numerics/nonfinite_batches") == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_policy_raise_aborts_on_nonfinite_loss(bad):
    guard = NumericsGuard(policy="raise")
    with pytest.raises(NumericsError, match="non-finite loss"):
        guard.check_loss({"loss": bad})


def test_policy_skip_counts_and_blocks():
    observer = Observer()
    guard = NumericsGuard(policy="skip", observer=observer)
    assert guard.check_loss({"loss": float("nan"), "loss_s": 1.0}) is False
    assert guard.skipped_batches == 1
    assert observer.metrics.count("numerics/skipped_batches") == 1
    assert observer.metrics.count("numerics/nonfinite_batches") == 1


def test_policy_warn_proceeds_with_warning():
    guard = NumericsGuard(policy="warn")
    with pytest.warns(RuntimeWarning, match="non-finite loss"):
        proceed = guard.check_loss({"loss": float("nan")})
    assert proceed is True
    assert guard.skipped_batches == 0


def test_unknown_policy_and_bad_clip_rejected():
    with pytest.raises(ValueError, match="unknown numerics policy"):
        NumericsGuard(policy="panic")
    with pytest.raises(ValueError, match="grad_clip must be positive"):
        NumericsGuard(grad_clip=0.0)


def test_nonfinite_grad_norm_is_flagged():
    guard = NumericsGuard(policy="skip")
    assert guard.guard_gradients([], float("nan")) is False
    assert guard.skipped_batches == 1


def test_grad_clip_rescales_to_the_cap():
    params = [_FakeParam([3.0, 0.0]), _FakeParam([0.0, 4.0])]
    norm = global_grad_norm(params)
    assert norm == pytest.approx(5.0)
    guard = NumericsGuard(grad_clip=1.0)
    assert guard.guard_gradients(params, norm)
    assert guard.clipped_batches == 1
    assert global_grad_norm(params) == pytest.approx(1.0)
    # Below the cap nothing moves.
    assert guard.guard_gradients(params, global_grad_norm(params))
    assert guard.clipped_batches == 1


def test_global_grad_norm_without_grads_is_zero():
    empty = _FakeParam([])
    empty.grad = None
    assert global_grad_norm([empty]) == 0.0
    assert global_grad_norm([]) == 0.0


# ----------------------------------------------------------------------
# SGCLTrainer wiring (fault-injection acceptance criterion)
# ----------------------------------------------------------------------
def _config(**overrides):
    defaults = dict(epochs=1, batch_size=4, hidden_dim=8, num_layers=2,
                    seed=7)
    defaults.update(overrides)
    return SGCLConfig(**defaults)


def test_injected_nan_loss_is_skipped_not_fatal(rng):
    graphs = _corpus(rng)
    observer = Observer()
    trainer = SGCLTrainer(4, _config(numerics_policy="skip"))
    with inject_nan_loss(trainer.model, batches={0}):
        history = trainer.pretrain(graphs, observer=observer)
    row = history[-1]
    assert row["skipped_batches"] == 1
    assert row["num_batches"] == 1
    assert np.isfinite(row["loss"])
    assert observer.metrics.count("numerics/skipped_batches") == 1


def test_injected_nan_loss_raises_under_strict_policy(rng):
    trainer = SGCLTrainer(4, _config(numerics_policy="raise"))
    with inject_nan_loss(trainer.model, batches={0}):
        with pytest.raises(NumericsError):
            trainer.pretrain(_corpus(rng))


def test_injection_restores_the_real_loss_method(rng):
    trainer = SGCLTrainer(4, _config())
    bound = trainer.model.loss
    with inject_nan_loss(trainer.model, batches={0}):
        assert trainer.model.loss is not bound
    assert "loss" not in vars(trainer.model)


def test_guard_is_neutral_without_faults(rng):
    """Same seed, any policy, grad-norm telemetry on/off → identical runs."""
    graphs = _corpus(rng)
    histories = []
    for policy in ("raise", "skip", "warn"):
        trainer = SGCLTrainer(4, _config(numerics_policy=policy, epochs=2))
        histories.append(trainer.pretrain(graphs))
    reference = [{k: v for k, v in row.items() if k != "epoch_seconds"}
                 for row in histories[0]]
    for history in histories[1:]:
        stripped = [{k: v for k, v in row.items() if k != "epoch_seconds"}
                    for row in history]
        assert stripped == reference
    assert all(row["skipped_batches"] == 0 for row in reference)


def test_grad_clip_fires_in_training(rng):
    observer = Observer()
    trainer = SGCLTrainer(4, _config(grad_clip=1e-6))
    trainer.pretrain(_corpus(rng), observer=observer)
    assert observer.metrics.count("numerics/clipped_batches") > 0


# ----------------------------------------------------------------------
# Baseline loop wiring
# ----------------------------------------------------------------------
def test_baseline_guard_skips_injected_nan(rng):
    graphs = _corpus(rng)
    observer = Observer()
    model = GAE(4, hidden_dim=8, num_layers=2, batch_size=4, seed=3,
                numerics_policy="skip")
    with inject_nan_loss(model, batches={0}, attr="step"):
        history = model.pretrain(graphs, epochs=1, observer=observer)
    assert np.isfinite(history[-1]["loss"])
    assert observer.metrics.count("numerics/skipped_batches") == 1


def test_baseline_raise_policy(rng):
    model = GAE(4, hidden_dim=8, num_layers=2, batch_size=4, seed=3,
                numerics_policy="raise")
    with inject_nan_loss(model, batches={0}, attr="step"):
        with pytest.raises(NumericsError):
            model.pretrain(_corpus(rng), epochs=1)


# ----------------------------------------------------------------------
# Empty epochs stay well-formed (satellite 4)
# ----------------------------------------------------------------------
def test_empty_epoch_yields_well_formed_row(rng):
    trainer = SGCLTrainer(4, _config(batch_size=1))
    with pytest.warns(RuntimeWarning, match="no batch was trained"):
        history = trainer.pretrain(_corpus(rng, n=3))
    row = history[0]
    assert np.isnan(row["loss"])
    assert row["num_batches"] == 0
    assert row["skipped_batches"] == 0
    assert row["epoch"] == 1
    assert "epoch_seconds" in row


def test_empty_epoch_never_wins_best_checkpoint(rng, tmp_path):
    trainer = SGCLTrainer(4, _config(batch_size=1))
    with pytest.warns(RuntimeWarning):
        trainer.pretrain(_corpus(rng, n=3), checkpoint_dir=tmp_path)
    assert not (tmp_path / "best.npz").exists()


def test_empty_epoch_report_renders(rng, tmp_path):
    sink = JSONLSink(tmp_path / "events.jsonl")
    observer = Observer([sink])
    trainer = SGCLTrainer(4, _config(batch_size=1))
    with observer.activate(), pytest.warns(RuntimeWarning):
        trainer.pretrain(_corpus(rng, n=3))
    sink.close()
    events = load_events(tmp_path / "events.jsonl")
    text = render_report(events)
    assert "nan" in text.lower()


def test_baseline_empty_epoch_is_nan_not_zero(rng):
    model = GAE(4, hidden_dim=8, num_layers=2, batch_size=1, seed=3)
    model.needs_pairs = True  # force the <2-graph skip path
    with pytest.warns(RuntimeWarning, match="no batch was trained"):
        history = model.pretrain(_corpus(rng, n=3), epochs=1)
    assert np.isnan(history[0]["loss"])


def test_history_with_nan_row_round_trips_checkpoints(rng, tmp_path):
    trainer = SGCLTrainer(4, _config(batch_size=1))
    with pytest.warns(RuntimeWarning):
        trainer.pretrain(_corpus(rng, n=3))
    path = trainer.save_checkpoint(tmp_path / "trainer.npz")
    restored = SGCLTrainer.from_checkpoint(path)
    assert restored._best_loss == float("inf")
    assert np.isnan(restored.history[0]["loss"])
