"""Deterministic process-pool map — the substrate of every parallel path.

:class:`ParallelExecutor` runs a function over a list of items on a pool
of worker processes while keeping the *results* indistinguishable from a
serial run:

* **Deterministic chunking** — items are split into contiguous chunks by
  index before submission, and results are reassembled by chunk index, so
  the output order never depends on worker scheduling.
* **Per-task seeding** — :meth:`ParallelExecutor.map_seeded` derives one
  independent child seed per item from the run seed via
  :class:`numpy.random.SeedSequence`, so a task's RNG stream depends only
  on ``(base_seed, item index)`` — not on which worker ran it or how many
  workers there were.
* **Bounded retries** — a failed chunk is resubmitted up to ``retries``
  extra times (covering workers killed by the OOM killer or flaky I/O);
  the original traceback travels back as text and is raised in the parent
  as :class:`ParallelExecutionError` once the budget is exhausted.
* **Fault containment** — each worker is a supervised
  :class:`~repro.runtime.supervisor.Child`. A worker that dies mid-chunk
  (``resilience/worker_deaths``) is replaced and its chunk resubmitted; a
  worker that exceeds the per-chunk ``timeout`` is terminated
  (``resilience/hung_workers``) and replaced; after ``max_pool_failures``
  such events the executor stops trusting process workers and finishes
  the remaining chunks serially (``resilience/serial_degradations``).
  Because chunks are deterministic and reassembled by index, none of this
  changes results — the bit-identical serial-vs-parallel guarantee holds
  through every recovery path.
* **Serial fallback** — with ``workers <= 1``, a single item, or on
  platforms without ``fork``, ``map`` degrades to an in-process loop over
  the *same* task wrapper, so the serial and parallel code paths cannot
  drift apart.

Workers are forked, so ``fn`` is inherited rather than pickled and may be
any callable, closures included; only items and results cross the pipe,
so those must be picklable. Worker counts come from the explicit
argument, else the ``REPRO_WORKERS`` environment variable, else 1 (see
:func:`resolve_workers`).
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from typing import Callable, Sequence

import numpy as np

from ..obs import current
from .supervisor import TICK, Child, ChildDown, ChildHung, answer

__all__ = ["ParallelExecutor", "ParallelExecutionError", "resolve_workers",
           "task_seeds"]

_WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: explicit arg > ``REPRO_WORKERS`` env > 1.

    Values below 1 are clamped to 1 (serial); a malformed environment
    variable is ignored rather than crashing the run.
    """
    if workers is None:
        raw = os.environ.get(_WORKERS_ENV, "")
        try:
            workers = int(raw)
        except ValueError:
            workers = 1
    return max(1, workers)


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def task_seeds(base_seed: int, n: int) -> list[int]:
    """``n`` independent per-task seeds derived from ``base_seed``.

    Uses ``SeedSequence.spawn`` so streams are statistically independent
    and depend only on ``(base_seed, index)`` — identical whether the tasks
    later run serially or across any number of workers.
    """
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint64)[0])
            for child in children]


class ParallelExecutionError(RuntimeError):
    """A task failed on every attempt; carries the worker-side traceback.

    For exceptions raised inside the worker function, ``remote_traceback``
    is the formatted remote traceback; for workers that died or hung,
    it describes the process-level failure instead.
    """

    def __init__(self, index: int, attempts: int, remote_traceback: str):
        self.index = index
        self.attempts = attempts
        self.remote_traceback = remote_traceback
        super().__init__(
            f"task {index} failed after {attempts} attempt(s); "
            f"worker traceback:\n{remote_traceback}")


class ParallelExecutor:
    """Order-preserving map over a process pool (or serially, identically).

    Parameters
    ----------
    workers:
        Worker process count; ``None`` reads ``REPRO_WORKERS`` (default 1).
        ``workers <= 1`` — or a platform without ``fork`` — runs serially.
    chunk_size:
        Items per submitted task. ``None`` picks
        ``ceil(len(items) / (4 * workers))`` (a few chunks per worker so
        stragglers rebalance) — always at least 1.
    retries:
        Extra attempts for a failed chunk before raising
        :class:`ParallelExecutionError`. Worker deaths and hangs consume
        the same budget as in-task exceptions.
    timeout:
        Per-chunk attempt budget in seconds; a worker that exceeds it is
        declared hung, terminated and replaced, and the chunk resubmitted.
        ``None`` (default) disables hang detection.
    max_pool_failures:
        Process-level failures (deaths + hangs) tolerated before the
        executor degrades to completing the remaining chunks serially.

    Examples
    --------
    >>> executor = ParallelExecutor(workers=2)
    >>> executor.map(math.sqrt, [1.0, 4.0, 9.0])
    [1.0, 2.0, 3.0]
    """

    def __init__(self, workers: int | None = None, *,
                 chunk_size: int | None = None, retries: int = 1,
                 timeout: float | None = None, max_pool_failures: int = 3):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if max_pool_failures < 1:
            raise ValueError("max_pool_failures must be >= 1")
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.retries = retries
        self.timeout = timeout
        self.max_pool_failures = max_pool_failures

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether ``map`` will actually use worker processes."""
        return self.workers > 1 and fork_available()

    def map(self, fn: Callable, items: Sequence) -> list:
        """``[fn(item) for item in items]``, possibly across processes.

        Results are returned in input order regardless of completion
        order. With ``workers <= 1`` (or no ``fork``) this is an ordinary
        in-process loop sharing the retry/error handling of the pool path.
        """
        items = list(items)

        def run(chunk: list) -> list:
            return [fn(item) for item in chunk]

        obs = current()
        obs.set_gauge("runtime/workers", self.workers)
        with obs.span("runtime/map"):
            obs.increment("runtime/tasks", len(items))
            if not items:
                return []
            if not self.parallel or len(items) == 1:
                return [self._run_chunk_serially(run, [item], index, 0)[0]
                        for index, item in enumerate(items)]
            return self._map_pool(run, items)

    def map_seeded(self, fn: Callable, items: Sequence, base_seed: int) -> list:
        """``fn(item, seed)`` per item with deterministic per-task seeds.

        ``seed`` is an integer suitable for ``np.random.default_rng``; see
        :func:`task_seeds` for the derivation contract.
        """
        items = list(items)
        pairs = zip(items, task_seeds(base_seed, len(items)))
        return self.map(lambda pair: fn(*pair), pairs)

    # ------------------------------------------------------------------
    def _run_chunk_serially(self, run: Callable, chunk: list, first: int,
                            first_attempt: int) -> list:
        """Finish one chunk in-process, honouring its remaining attempts.

        ``first`` is the index of the chunk's first item, for the error.
        """
        for attempt in range(first_attempt, self.retries + 1):
            ok, payload = answer(run, chunk)
            if ok:
                return payload
            current().increment("runtime/retries")
            if attempt == self.retries:
                raise ParallelExecutionError(first, attempt + 1, payload)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Supervised worker pool
    # ------------------------------------------------------------------
    def _map_pool(self, run: Callable, items: list) -> list:
        obs = current()
        chunk_size = self.chunk_size
        if chunk_size is None:
            chunk_size = max(1, -(-len(items) // (4 * self.workers)))
        chunks = [items[start:start + chunk_size]
                  for start in range(0, len(items), chunk_size)]
        results: list = [None] * len(chunks)
        completed = 0
        # (chunk_index, attempt) queue; failed chunks rejoin at the front so
        # stragglers retry before fresh work piles on.
        pending: deque[tuple[int, int]] = deque(
            (i, 0) for i in range(len(chunks)))

        worker_ids = itertools.count()
        workers: dict[int, Child] = {}
        # worker_id -> (chunk_index, attempt, deadline | None)
        outstanding: dict[int, tuple[int, int, float | None]] = {}
        pool_failures = 0
        degraded = False

        def spawn_worker() -> None:
            worker_id = next(worker_ids)
            workers[worker_id] = Child(lambda: run,
                                       name=f"repro-worker-{worker_id}")

        def retire_worker(worker_id: int, *, force: bool) -> None:
            outstanding.pop(worker_id, None)
            workers.pop(worker_id).stop(force=force)

        def fail_attempt(index: int, attempt: int, description: str) -> None:
            """Resubmit a failed chunk, or raise once its budget is spent."""
            obs.increment("runtime/retries")
            if attempt >= self.retries:
                raise ParallelExecutionError(
                    index * chunk_size, attempt + 1, description)
            pending.appendleft((index, attempt + 1))

        def handle_pool_failure(worker_id: int, counter: str,
                                error: ChildDown) -> None:
            """A worker died or hung mid-chunk: contain, count, resubmit."""
            nonlocal pool_failures, degraded
            index, attempt, _ = outstanding[worker_id]
            retire_worker(worker_id, force=True)
            pool_failures += 1
            obs.increment(counter)
            fail_attempt(index, attempt, f"chunk {index}: {error}")
            if pool_failures >= self.max_pool_failures:
                degraded = True
            else:
                spawn_worker()

        try:
            for _ in range(min(self.workers, len(chunks))):
                spawn_worker()
            while completed < len(chunks) and not degraded:
                idle = [wid for wid in workers if wid not in outstanding]
                for worker_id in idle:
                    if not pending:
                        break
                    index, attempt = pending.popleft()
                    try:
                        workers[worker_id].send(chunks[index])
                    except ChildDown:
                        pending.appendleft((index, attempt))
                        retire_worker(worker_id, force=True)
                        spawn_worker()
                        continue
                    deadline = None if self.timeout is None \
                        else time.monotonic() + self.timeout
                    outstanding[worker_id] = (index, attempt, deadline)
                multiprocessing.connection.wait(
                    [workers[wid].conn for wid in outstanding], timeout=TICK)
                for worker_id, (index, attempt, deadline) in list(
                        outstanding.items()):
                    try:
                        reply = workers[worker_id].poll(deadline)
                    except ChildHung as error:
                        handle_pool_failure(
                            worker_id, "resilience/hung_workers", error)
                        continue
                    except ChildDown as error:
                        handle_pool_failure(
                            worker_id, "resilience/worker_deaths", error)
                        continue
                    if reply is None:
                        continue
                    del outstanding[worker_id]
                    ok, payload = reply
                    if ok:
                        results[index] = payload
                        completed += 1
                    else:
                        fail_attempt(index, attempt, payload)
            if degraded:
                # The pool has failed too often to be trusted; reclaim every
                # in-flight chunk and finish the job in-process. Results are
                # keyed by chunk index, so the output is bit-identical to an
                # all-parallel (or all-serial) run.
                obs.increment("resilience/serial_degradations")
                obs.set_gauge("runtime/degraded", 1)
                pending.extendleft(entry[:2] for entry in outstanding.values())
                for worker_id in list(workers):
                    retire_worker(worker_id, force=True)
                while pending:
                    index, attempt = pending.popleft()
                    results[index] = self._run_chunk_serially(
                        run, chunks[index], index * chunk_size, attempt)
        finally:
            for worker_id in list(workers):
                retire_worker(worker_id, force=worker_id in outstanding)
        return [value for chunk in results for value in chunk]
