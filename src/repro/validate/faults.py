"""Deterministic fault injection for testing the guard rails.

The validators and the :class:`~repro.validate.NumericsGuard` exist to
catch corruption that should never happen — so tests (and ``repro
doctor`` development) need a way to *make* it happen, reproducibly.
Every helper here either returns a corrupted **copy** of a graph (the
original is never touched) or temporarily patches a model so a chosen
batch produces a NaN loss.

The second half of the module is the **chaos harness** backing
``tests/resilience/``: process-level injectors that kill
(:class:`KillWorkerOnce`) or hang (:class:`HangWorkerOnce`) a pool
worker exactly once per marker file, on-disk checkpoint corruption
(:func:`corrupt_checkpoint`: truncation, bit garbage, emptying), and a
:class:`FlakyIO` wrapper that fails a callable's first N calls. All are
deterministic — kill/hang injectors coordinate through a marker file so
the *retry* of the same chunk succeeds, proving recovery rather than
luck. ``REPRO_CHAOS=1`` (see :func:`chaos_enabled`) gates the expensive
process-level legs in CI.

These are test utilities: nothing in the library imports them outside of
``tests/`` and the examples.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from itertools import count
from pathlib import Path

import numpy as np

from ..graph import Graph

__all__ = ["corrupt_features", "break_edge_symmetry", "point_edge_out_of_bounds",
           "corrupt_label", "inject_nan_loss",
           "chaos_enabled", "crash_point", "KillWorkerOnce", "HangWorkerOnce",
           "corrupt_checkpoint", "FlakyIO"]


def corrupt_features(graph: Graph, node: int = 0, feature: int = 0,
                     value: float = float("nan")) -> Graph:
    """Copy of ``graph`` with one feature entry replaced (NaN by default)."""
    corrupted = graph.copy()
    corrupted.x[node, feature] = value
    return corrupted


def break_edge_symmetry(graph: Graph, edge: int = 0) -> Graph:
    """Copy of ``graph`` with one directed edge entry deleted.

    Undirected storage keeps both orientations; removing a single entry
    leaves its reverse orphaned, violating the ``edge_symmetry``
    invariant. ``edge`` indexes the directed entry to delete.
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges to desymmetrise")
    keep = np.ones(graph.num_edges, dtype=bool)
    keep[edge] = False
    return Graph(graph.x.copy(), graph.edge_index[:, keep], graph.y,
                 dict(graph.meta))


def point_edge_out_of_bounds(graph: Graph, edge: int = 0) -> Graph:
    """Copy of ``graph`` with one edge endpoint pointing past the nodes.

    :class:`~repro.graph.Graph` rejects this at construction, so the copy
    is mutated after the fact — exactly the kind of post-construction
    corruption (buggy transform, bad deserialisation) the validator must
    catch.
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges to corrupt")
    corrupted = graph.copy()
    edge_index = corrupted.edge_index.copy()
    edge_index[1, edge] = graph.num_nodes  # first invalid node id
    corrupted.edge_index = edge_index
    return corrupted


def corrupt_label(graph: Graph, value=-1) -> Graph:
    """Copy of ``graph`` with its label replaced (out-of-domain by default)."""
    corrupted = graph.copy()
    corrupted.y = value
    return corrupted


@contextmanager
def inject_nan_loss(model, batches=(0,), attr: str = "loss"):
    """Patch ``model.<attr>`` so the listed batch indices yield NaN losses.

    Works on both loss conventions in the library: a method returning
    ``(Tensor, stats_dict)`` (:meth:`SGCLModel.loss`) and one returning a
    bare ``Tensor`` (:meth:`BasePretrainer.step`). The wrapped call runs
    the *real* computation first — RNG consumption is identical to an
    uncorrupted run, so everything after the faulty batch stays on the
    seeded trajectory.

    Usage::

        with inject_nan_loss(trainer.model, batches={1}):
            trainer.pretrain(graphs, epochs=1)
    """
    batches = frozenset(batches)
    original = getattr(model, attr)
    calls = count()

    def wrapped(*args, **kwargs):
        result = original(*args, **kwargs)
        if next(calls) not in batches:
            return result
        if isinstance(result, tuple):
            loss, stats = result
            poisoned = {key: float("nan") for key in stats}
            return loss * float("nan"), poisoned
        return result * float("nan")

    setattr(model, attr, wrapped)
    try:
        yield
    finally:
        delattr(model, attr)  # uncover the original bound method


# ----------------------------------------------------------------------
# Chaos harness: process, checkpoint and I/O fault injectors
# ----------------------------------------------------------------------
def chaos_enabled() -> bool:
    """Whether the expensive chaos legs are enabled (``REPRO_CHAOS=1``)."""
    return os.environ.get("REPRO_CHAOS") == "1"


def crash_point(name: str, *, exit_code: int = 9) -> None:
    """SIGKILL-equivalent crash injector for named points in a pipeline.

    Library code sprinkles ``crash_point("stage/step")`` calls at the
    interesting commit boundaries (the ingest/refresh loop does); each
    call is a no-op unless the ``REPRO_CRASH_AT`` environment variable
    names exactly that point, in which case the process dies via
    ``os._exit`` — no ``finally`` blocks, no atexit, exactly like a
    ``kill -9`` landing between two syscalls.

    When ``REPRO_CRASH_MARKER`` names a directory, the crash fires **once
    per marker**: the first hit writes ``<name>.crashed`` there and dies,
    the restarted process sails through — the marker-file protocol of
    :class:`KillWorkerOnce`, generalised to in-process pipelines so a
    chaos driver can re-run the same script and assert recovery.
    """
    if os.environ.get("REPRO_CRASH_AT") != name:
        return
    marker_dir = os.environ.get("REPRO_CRASH_MARKER")
    if marker_dir:
        marker = Path(marker_dir) / (name.replace("/", "__") + ".crashed")
        if marker.exists():
            return
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.write_text(name)
    os._exit(exit_code)


class KillWorkerOnce:
    """Task fn that hard-kills the worker process once.

    The first call with ``item`` (before the marker file exists) writes
    the marker and calls ``os._exit`` — the worker dies without returning
    a result or running ``finally`` blocks, exactly like an OOM kill.
    Every other call (including the retry of the same item) returns its
    argument unchanged, so a recovered map returns the full deterministic
    result. The "once" lives in the marker file, not in the object,
    because each forked worker holds its own copy of it.
    """

    def __init__(self, marker: str | Path, item=0, exit_code: int = 9):
        self.marker = str(marker)
        self.item = item
        self.exit_code = exit_code

    def __call__(self, x):
        marker = Path(self.marker)
        if x == self.item and not marker.exists():
            marker.write_text("killed")
            os._exit(self.exit_code)
        return x

    def fired(self) -> bool:
        """Whether the kill already happened (marker exists)."""
        return Path(self.marker).exists()


class HangWorkerOnce:
    """Task fn that hangs the worker process once.

    The first call with ``item`` writes the marker and sleeps for
    ``seconds`` (default: effectively forever relative to any test
    timeout) — simulating a deadlocked or livelocked worker. Retries of
    the same item return immediately.
    """

    def __init__(self, marker: str | Path, item=0, seconds: float = 300.0):
        self.marker = str(marker)
        self.item = item
        self.seconds = seconds

    def __call__(self, x):
        marker = Path(self.marker)
        if x == self.item and not marker.exists():
            marker.write_text("hung")
            time.sleep(self.seconds)
        return x

    def fired(self) -> bool:
        return Path(self.marker).exists()


def corrupt_checkpoint(path: str | Path, mode: str = "truncate") -> Path:
    """Damage a checkpoint file on disk, deterministically.

    Modes
    -----
    ``"truncate"``
        Cut the file to half its length — a crash mid-write (the exact
        failure :func:`repro.data.io.atomic_write` prevents for *our*
        writers, but external copies/transfers can still produce).
    ``"garbage"``
        Overwrite 64 bytes in the middle with a fixed pattern — bit rot
        or a bad block. The zip container often still opens; the sha256
        checksum is what catches this one.
    ``"empty"``
        Truncate to zero bytes.
    """
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[:len(data) // 2])
    elif mode == "garbage":
        if len(data) < 128:
            raise ValueError(f"{path} too small to garble ({len(data)} B)")
        middle = len(data) // 2
        corrupted = bytearray(data)
        corrupted[middle:middle + 64] = b"\xde\xad\xbe\xef" * 16
        path.write_bytes(bytes(corrupted))
    elif mode == "empty":
        path.write_bytes(b"")
    else:
        raise ValueError(
            f"unknown corruption mode {mode!r}; "
            "use 'truncate', 'garbage' or 'empty'")
    return path


class FlakyIO:
    """Wrap a callable so its first ``failures`` calls raise ``OSError``.

    Deterministic flaky-I/O injector for exercising
    :class:`repro.resilience.RetryPolicy` and executor retries: the
    failure count is per-instance state, so a policy with
    ``max_attempts > failures`` always recovers and one with fewer never
    does.
    """

    def __init__(self, fn, failures: int = 2):
        self.fn = fn
        self.failures = failures
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            raise OSError(
                f"injected flaky I/O failure {self.calls}/{self.failures}")
        return self.fn(*args, **kwargs)
