"""ParallelExecutor: determinism, seeding, retries, error propagation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import Observer
from repro.runtime import (
    ParallelExecutionError,
    ParallelExecutor,
    resolve_workers,
    task_seeds,
)


def _square(x):
    return x * x


def _seeded_draw(item, seed):
    rng = np.random.default_rng(seed)
    return float(rng.normal()) + item


def _boom(x):
    raise ValueError(f"boom on {x}")


class _FlakyOnce:
    """Fails until a marker file exists; picklable across processes."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __call__(self, x):
        from pathlib import Path

        marker = Path(self.marker)
        if not marker.exists():
            marker.write_text("tried")
            raise RuntimeError("transient failure")
        return x + 1


# ----------------------------------------------------------------------
# Worker resolution
# ----------------------------------------------------------------------
def test_resolve_workers_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert resolve_workers(2) == 2


def test_resolve_workers_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers(None) == 3


def test_resolve_workers_defaults_serial(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 1


def test_resolve_workers_ignores_garbage_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "many")
    assert resolve_workers(None) == 1


def test_resolve_workers_clamps_nonpositive():
    assert resolve_workers(0) == 1
    assert resolve_workers(-3) == 1


# ----------------------------------------------------------------------
# Map semantics
# ----------------------------------------------------------------------
def test_map_preserves_order_serial_and_parallel():
    items = list(range(23))
    expected = [x * x for x in items]
    assert ParallelExecutor(workers=1).map(_square, items) == expected
    assert ParallelExecutor(workers=2).map(_square, items) == expected


def test_map_empty_and_single_item():
    assert ParallelExecutor(workers=2).map(_square, []) == []
    assert ParallelExecutor(workers=2).map(_square, [3]) == [9]


def test_map_explicit_chunk_size():
    items = list(range(10))
    result = ParallelExecutor(workers=2, chunk_size=3).map(_square, items)
    assert result == [x * x for x in items]


@pytest.mark.parametrize("workers", [1, 2])
def test_map_accepts_closures(workers):
    # Pool workers are forked, so `fn` is inherited rather than pickled;
    # only items and results cross the pipe.
    offset = 5
    assert ParallelExecutor(workers=workers).map(lambda x: x + offset,
                                                 [1, 2]) == [6, 7]


# ----------------------------------------------------------------------
# Per-task seeding
# ----------------------------------------------------------------------
def test_task_seeds_deterministic_and_distinct():
    a = task_seeds(123, 8)
    b = task_seeds(123, 8)
    assert a == b
    assert len(set(a)) == 8
    assert task_seeds(124, 8) != a


def test_task_seeds_prefix_stable():
    """Seed of task i must not depend on how many tasks follow it."""
    assert task_seeds(7, 3) == task_seeds(7, 5)[:3]


def test_map_seeded_identical_across_worker_counts():
    serial = ParallelExecutor(workers=1).map_seeded(_seeded_draw,
                                                    [1, 2, 3, 4], 42)
    parallel = ParallelExecutor(workers=2).map_seeded(_seeded_draw,
                                                      [1, 2, 3, 4], 42)
    assert serial == parallel


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_error_propagates_with_remote_traceback(workers):
    with pytest.raises(ParallelExecutionError) as excinfo:
        ParallelExecutor(workers=workers, retries=0).map(_boom, [1, 2, 3])
    assert "ValueError" in str(excinfo.value)
    assert "boom" in excinfo.value.remote_traceback


@pytest.mark.parametrize("workers", [1, 2])
def test_bounded_retries_recover_transient_failures(workers, tmp_path):
    job = _FlakyOnce(tmp_path / "marker")
    result = ParallelExecutor(workers=workers, retries=2,
                              chunk_size=10).map(job, [1, 2, 3])
    assert result == [2, 3, 4]


def test_retries_exhausted_raises():
    with pytest.raises(ParallelExecutionError):
        ParallelExecutor(workers=1, retries=3).map(_boom, [1])


def _boom_on_three(x):
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


@pytest.mark.parametrize("workers", [1, 2])
def test_retry_exhaustion_counts_attempts(workers):
    """`runtime/retries` matches the error's attempt count in both paths."""
    observer = Observer()
    with observer.activate():
        with pytest.raises(ParallelExecutionError) as excinfo:
            ParallelExecutor(workers=workers, chunk_size=1,
                             retries=2).map(_boom_on_three, [1, 2, 3, 4])
    assert excinfo.value.attempts == 3
    assert "boom on 3" in excinfo.value.remote_traceback
    assert observer.metrics.count("runtime/retries") == excinfo.value.attempts


def test_negative_retries_rejected():
    with pytest.raises(ValueError):
        ParallelExecutor(workers=1, retries=-1)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_map_records_span_and_task_counter():
    observer = Observer()
    with observer.activate():
        ParallelExecutor(workers=1).map(_square, [1, 2, 3])
    assert observer.metrics.count("runtime/tasks") == 3
    assert observer.metrics.gauge("runtime/workers") == 1
    assert "runtime/map" in observer.tracer.aggregate()
