"""One supervised child process — the fork/pipe primitive behind every pool.

:class:`Child` is what :class:`repro.runtime.ParallelExecutor`'s pool
workers and :class:`repro.fleet.ProcessReplica`'s shards are made of. It
owns the fault containment both need:

* **A private duplex pipe per child** — a single writer per direction, so
  no shared lock exists that a child killed at any instant could strand
  (``multiprocessing.Queue``'s background feeder thread would: a task
  calling ``os._exit`` can leave the queue's write-lock held and deadlock
  every sibling).
* **The null observer in the child** — a forked child inherits the
  parent's activation stack, including any JSONL sink's open file
  descriptor; letting every child append to the parent's run log would
  interleave writes. Telemetry is emitted from the parent.
* **Replies never raise across the boundary** — the child answers each
  message with ``(True, handler(message))`` or ``(False, traceback
  text)`` until it reads the ``None`` sentinel or EOF.
* **The parent can see a sick child** — while waiting it polls liveness
  every :data:`TICK` seconds. A dead child raises :class:`ChildDown`; a
  child past its deadline is terminated *before* :class:`ChildHung` is
  raised, so a late reply can never be read as the answer to a later
  message.
* **Escalating shutdown** — :meth:`Child.stop` sends the sentinel, then
  terminates, then kills, and closes the pipe unread: a child stopped
  mid-send leaves a partial frame, and never calling ``recv`` on an
  abandoned pipe is what keeps that from blocking anyone.

Because the child is forked, the handler factory is inherited rather
than pickled — closures work; only messages and replies cross the pipe.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Callable

__all__ = ["Child", "ChildDown", "ChildHung", "TICK", "answer"]

# Parent poll interval while waiting on a child; bounds how stale the
# liveness/deadline checks can be, so a hung child is detected within
# roughly `deadline + TICK` seconds.
TICK = 0.05

# Seconds a child gets to exit after the sentinel (and after terminate)
# before the next escalation step.
_GRACE = 1.0


class ChildDown(RuntimeError):
    """The child process died (or its pipe broke) before replying."""


class ChildHung(ChildDown):
    """The child missed its deadline; it has already been terminated."""


def answer(handler: Callable, message) -> tuple[bool, object]:
    """``(True, handler(message))``, or ``(False, traceback text)``."""
    try:
        return True, handler(message)
    except BaseException:  # noqa: BLE001 — serialised and re-raised in parent
        return False, traceback.format_exc()


def _child_main(conn, make_handler: Callable[[], Callable]) -> None:
    from ..obs.observer import _ACTIVE, NULL_OBSERVER

    _ACTIVE[:] = [NULL_OBSERVER]
    handler = make_handler()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        conn.send(answer(handler, message))


class Child:
    """A forked daemon process serving ``handler(message)`` over a pipe.

    ``make_handler`` runs once in the child, after the observer reset, and
    returns the handler; expensive per-child state (an encoder rebuilt
    from a checkpoint) is built there, concurrently with the parent. If it
    raises, the child exits and the first wait reports :class:`ChildDown`.
    """

    def __init__(self, make_handler: Callable[[], Callable], *, name: str):
        self.name = name
        context = multiprocessing.get_context("fork")
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_child_main, args=(child_conn, make_handler), name=name,
            daemon=True)
        self.process.start()
        child_conn.close()  # the child keeps its copy; ours would mask EOF
        self._stopped = False

    @property
    def alive(self) -> bool:
        return not self._stopped and self.process.is_alive()

    def send(self, message) -> None:
        """Hand the child one message; a broken pipe is :class:`ChildDown`."""
        try:
            self.conn.send(message)
        except (OSError, ValueError) as error:
            raise ChildDown(f"{self.name} pipe is broken: {error}") from error

    def poll(self, deadline: float | None = None, timeout: float = 0.0):
        """The reply if one arrives within ``timeout`` seconds, else ``None``.

        Without a reply the child's health is checked against ``deadline``
        (a :func:`time.monotonic` instant, ``None`` for no limit).
        """
        if self.conn.poll(timeout):
            try:
                return self.conn.recv()
            except (EOFError, OSError):
                pass  # the child died mid-reply (or before one)
        elif self.process.is_alive():
            if deadline is None or time.monotonic() <= deadline:
                return None
            self.stop(force=True)
            raise ChildHung(f"{self.name} missed its deadline and was "
                            f"terminated")
        self.stop(force=True)
        raise ChildDown(
            f"{self.name} died with exit code {self.process.exitcode}")

    def recv(self, deadline: float | None = None) -> tuple[bool, object]:
        """Wait for the reply ``(ok, payload)`` to the last message."""
        while True:
            reply = self.poll(deadline, TICK)
            if reply is not None:
                return reply

    def stop(self, *, force: bool = False) -> None:
        """Shut the child down: sentinel (unless ``force``), terminate, kill."""
        if self._stopped:
            return
        self._stopped = True
        if not force and self.process.is_alive():
            try:
                self.conn.send(None)
            except (OSError, ValueError):
                pass
            self.process.join(timeout=_GRACE)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=_GRACE)
        if self.process.is_alive():  # pragma: no cover — terminate refused
            self.process.kill()
            self.process.join(timeout=_GRACE)
        self.conn.close()
