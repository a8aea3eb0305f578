"""Child: the supervised fork/pipe primitive behind pools and replicas."""

from __future__ import annotations

import os
import time

import pytest

from repro.obs import NULL_OBSERVER, Observer, current
from repro.runtime import fork_available
from repro.runtime.supervisor import Child, ChildDown, ChildHung

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="Child needs the fork start method")


@pytest.fixture()
def spawn():
    children = []

    def start(handler):
        child = Child(lambda: handler, name="test-child")
        children.append(child)
        return child

    yield start
    for child in children:
        child.stop(force=True)


def _ask(child, message, seconds=30.0):
    child.send(message)
    return child.recv(time.monotonic() + seconds)


def _fail(message):
    raise ValueError(f"bad message {message}")


def test_reply_round_trip(spawn):
    offset = 10  # a closure: the handler is inherited, never pickled
    child = spawn(lambda x: x + offset)
    assert _ask(child, 1) == (True, 11)
    assert _ask(child, 2) == (True, 12)


def test_handler_exception_comes_back_as_traceback_text(spawn):
    child = spawn(_fail)
    ok, text = _ask(child, 7)
    assert ok is False
    assert "ValueError: bad message 7" in text
    assert _ask(child, 8)[0] is False  # the child keeps serving


def test_dead_child_raises_child_down(spawn):
    child = spawn(lambda _: os._exit(9))
    with pytest.raises(ChildDown, match="died") as excinfo:
        _ask(child, "exit")
    assert not isinstance(excinfo.value, ChildHung)
    assert "9" in str(excinfo.value)
    assert not child.alive


def test_child_past_deadline_is_terminated_then_hung(spawn):
    child = spawn(time.sleep)
    child.send(60)
    started = time.monotonic()
    with pytest.raises(ChildHung):
        child.recv(time.monotonic() + 0.2)
    assert time.monotonic() - started < 5.0
    assert not child.process.is_alive()
    assert not child.alive


def test_stop_twice_is_a_noop(spawn):
    child = spawn(lambda x: x)
    child.stop()
    assert not child.alive
    child.stop()
    child.stop(force=True)


def test_child_runs_under_the_null_observer(spawn):
    with Observer().activate():
        child = spawn(lambda _: current() is NULL_OBSERVER)
        assert current() is not NULL_OBSERVER
    assert _ask(child, "probe") == (True, True)
