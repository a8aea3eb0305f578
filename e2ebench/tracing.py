"""In-memory spans and reversible timing wrappers for the traced run.

The traced run measures layers from outside the program: :class:`Patches`
replaces public functions and methods of ``repro`` with wrappers that
open a span on a :class:`SpanRecorder`, and restores every original when
the run ends. Nothing is written while the workload runs; spans stay in
memory until :meth:`SpanRecorder.dump`.

A span's *self time* is its duration minus the time its child spans
cover. Spans are strictly nested (one thread), so that is its duration
minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


class SpanRecorder:
    """Nested spans, each tagged with the workload phase it ran in."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        self.spans: list[tuple] = []      # (name, parent, phase, start, end, self_s)
        self._stack: list[list] = []      # [name, start, child_seconds]

    @contextmanager
    def span(self, name: str):
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame[1]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += duration
            self.spans.append((name, parent[0] if parent else None, self.phase,
                               frame[1], end, duration - frame[2]))

    def self_seconds(self, name: str, phase: str) -> float:
        """Summed self time of every ``name`` span opened in ``phase``."""
        return sum(s[5] for s in self.spans if s[0] == name and s[2] == phase)

    def total_seconds(self, name: str, phase: str, *,
                      parent: str | None = None) -> float:
        """Summed full duration of every ``name`` span opened in ``phase``
        (only those directly inside a ``parent`` span, if given)."""
        return sum(s[4] - s[3] for s in self.spans
                   if s[0] == name and s[2] == phase
                   and (parent is None or s[1] == parent))

    def count(self, name: str, phase: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[2] == phase)

    def dump(self, path) -> None:
        """Write every span as JSON (called once, after the run)."""
        rows = [{"name": n, "parent": p, "phase": ph, "start": s, "end": e,
                 "self_s": self_s} for n, p, ph, s, e, self_s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


class _TimedIterator:
    """Times every ``next()`` of an iterator as one span."""

    def __init__(self, iterator, recorder: SpanRecorder, label: str):
        self._iterator = iterator
        self._recorder = recorder
        self._label = label

    def __iter__(self):
        return self

    def __next__(self):
        with self._recorder.span(self._label):
            return next(self._iterator)


class Patches:
    """Install span wrappers on ``repro`` callables; :meth:`restore` undoes
    them in reverse order, so wrappers stacked by other tools (the op
    profiler) unwind cleanly when they are removed first."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, label: str, *, when=None,
             iterate: bool = False) -> None:
        """Wrap ``owner.attr`` (a class attribute or a module function).

        ``when(args)`` limits the span to calls it accepts (e.g. one
        encoder instance of several). With ``iterate`` the callable
        returns an iterator and each of its steps is timed instead.
        Module functions are replaced in every loaded ``repro`` module
        that imported them by name, as the op profiler does.
        """
        original = getattr(owner, attr)
        recorder = self.recorder

        if iterate:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return _TimedIterator(iter(original(*args, **kwargs)),
                                      recorder, label)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if when is not None and not when(args):
                    return original(*args, **kwargs)
                with recorder.span(label):
                    return original(*args, **kwargs)

        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [(module, name) for module in list(sys.modules.values())
                     if getattr(module, "__name__", "").startswith("repro")
                     for name, value in list(vars(module).items())
                     if value is original]
        for holder, name in sites:
            # An inherited method is shadowed on ``owner`` and deleted again
            # on restore, so the class is left exactly as it was.
            own = name in vars(holder)
            setattr(holder, name, wrapper)
            self._undo.append((holder, name, original if own else None))

    def restore(self) -> None:
        for holder, name, original in reversed(self._undo):
            if original is None:
                delattr(holder, name)
            else:
                setattr(holder, name, original)
        self._undo.clear()
