"""Crash-safe training resume: checkpoint discovery + signal trapping.

Two pieces turn a checkpoint directory into a crash-safe training run:

* :func:`find_latest_checkpoint` scans a directory for the most advanced
  **valid** checkpoint — candidates are ranked by how many epochs they
  carry, every candidate is integrity-verified (header parse + sha256
  checksum via :func:`repro.serve.verify_checkpoint`), and corrupt or
  truncated bundles are skipped (counted under
  ``resilience/corrupt_checkpoints``) so a partially written file never
  poisons a resume — discovery falls back to the previous valid one.
* :func:`interrupt_guard` traps SIGINT/SIGTERM for the enclosed block.
  The first signal requests a *graceful* stop (the training loop finishes
  the current epoch, then exits cleanly so an emergency checkpoint can be
  written at an epoch boundary — keeping resumed histories bit-identical
  to uninterrupted runs); a second signal raises ``KeyboardInterrupt``
  for callers who really mean it.

``repro pretrain --checkpoint-dir DIR --resume`` wires both together; see
docs/RESILIENCE.md for the full failure matrix.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from ..obs import current

__all__ = ["find_latest_checkpoint", "resume_trainer", "interrupt_guard",
           "InterruptState"]


def _checkpoint_epochs(path: Path) -> int | None:
    """Epochs recorded in a bundle's header; None if unreadable."""
    from ..serve.checkpoint import read_checkpoint_header

    try:
        header = read_checkpoint_header(path)
    except Exception:  # noqa: BLE001 — any unreadable bundle is a non-candidate
        return None
    history = header.get("metadata", {}).get("history", [])
    return len(history) if isinstance(history, list) else 0


def find_latest_checkpoint(directory: str | Path,
                           pattern: str = "*.npz") -> Path | None:
    """Most advanced *valid* checkpoint under ``directory`` (or None).

    Candidates are ranked by (epochs trained, modification time,
    filename) and verified in that order; the first one that passes a
    full integrity check (readable archive, schema version, sha256
    checksum) wins. The filename leg breaks mtime ties deterministically
    — on filesystems with coarse timestamps, ``latest.npz`` and
    ``epoch-0003.npz`` written in the same second would otherwise
    resume in directory-iteration order.
    Corrupt, truncated or unreadable bundles are skipped and counted
    under ``resilience/corrupt_checkpoints`` — a crash mid-write therefore
    falls back to the previous valid checkpoint instead of raising.
    """
    from ..serve.checkpoint import verify_checkpoint

    directory = Path(directory)
    if not directory.is_dir():
        return None
    obs = current()
    ranked: list[tuple[int, float, Path]] = []
    for path in directory.glob(pattern):
        epochs = _checkpoint_epochs(path)
        if epochs is None:
            obs.increment("resilience/corrupt_checkpoints")
            continue
        ranked.append((epochs, path.stat().st_mtime, path))
    ranked.sort(key=lambda entry: (entry[0], entry[1], entry[2].name),
                reverse=True)
    for _, _, path in ranked:
        if verify_checkpoint(path):
            return path
        obs.increment("resilience/corrupt_checkpoints")
    return None


def resume_trainer(directory: str | Path):
    """Rebuild a trainer from the latest valid checkpoint under
    ``directory``; None when no valid checkpoint exists.

    Bundles tagged ``node_level`` come back as a
    :class:`~repro.sampling.NodeSGCLTrainer`, all others as an
    :class:`~repro.core.SGCLTrainer`. The resumed trainer's continued
    ``pretrain`` is bit-identical to a run that never stopped (see
    :meth:`SGCLTrainer.from_checkpoint`).
    """
    from ..core.trainer import SGCLTrainer
    from ..sampling import NodeSGCLTrainer
    from ..serve.checkpoint import read_checkpoint_header

    path = find_latest_checkpoint(directory)
    if path is None:
        return None
    metadata = read_checkpoint_header(path).get("metadata", {})
    cls = NodeSGCLTrainer if metadata.get("node_level") else SGCLTrainer
    trainer = cls.from_checkpoint(path)
    current().event("resume", checkpoint=str(path),
                    epochs_done=len(trainer.history))
    return trainer


class InterruptState:
    """Handle yielded by :func:`interrupt_guard`.

    ``interrupted`` flips to True on the first trapped signal;
    ``signal_name`` records which one arrived.
    """

    def __init__(self):
        self.interrupted = False
        self.signal_name: str | None = None


@contextmanager
def interrupt_guard(on_interrupt: Callable[[], None] | None = None, *,
                    signals: tuple = (signal.SIGINT, signal.SIGTERM)):
    """Trap ``signals`` for the enclosed block; graceful first, hard second.

    The first trapped signal sets ``state.interrupted``, counts
    ``resilience/interrupts`` and calls ``on_interrupt()`` (typically
    :meth:`SGCLTrainer.request_stop`, so the loop exits at the next epoch
    boundary). A second signal raises :class:`KeyboardInterrupt`
    immediately. Previous handlers are restored on exit. Only usable from
    the main thread (signal-handler rule); elsewhere the guard is inert
    and the state is still yielded.
    """
    state = InterruptState()

    def handler(signum, frame):
        if state.interrupted:
            raise KeyboardInterrupt
        state.interrupted = True
        state.signal_name = signal.Signals(signum).name
        current().increment("resilience/interrupts")
        if on_interrupt is not None:
            on_interrupt()

    if threading.current_thread() is not threading.main_thread():
        yield state
        return
    previous = {}
    for sig in signals:
        previous[sig] = signal.signal(sig, handler)
    try:
        yield state
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
