"""Open-loop load generation: Poisson reads with writes mixed in.

The generator is one thread. Every operation has a due time drawn before
the run; the generator sleeps until it is due (or sends at once when it
is already late) and waits for the reply. Latency is timed from the due
time, so a stall also counts against every operation queued behind it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Op:
    due: float            # seconds after the phase starts
    kind: str             # "read" | "write"
    payload: object


@dataclass
class OpRecord:
    kind: str
    latency_s: float      # end - due
    queue_s: float        # send - due
    idle_lag_s: float     # send - due when nothing was queued ahead of it


def schedule(rng: np.random.Generator, rate: float, reads: int,
             write_share: float, make_read, make_write) -> list[Op]:
    """``reads`` Poisson reads at ``rate``/s, plus writes making up
    ``write_share`` of all operations (at least one), due at uniform random
    times over the same span — a Poisson stream conditioned on its count,
    so every run issues the same number of writes."""
    due = np.cumsum(rng.exponential(1.0 / rate, size=reads))
    ops = [Op(float(t), "read", make_read()) for t in due]
    if write_share > 0:
        writes = max(1, round(reads * write_share / (1.0 - write_share)))
        for t in np.sort(rng.uniform(0.0, due[-1], size=writes)):
            ops.append(Op(float(t), "write", make_write()))
    ops.sort(key=lambda op: op.due)
    return ops


def run(ops: list[Op], execute, *, idle=None, clock=time.perf_counter,
        sleep=time.sleep) -> list[OpRecord]:
    """Issue ``ops`` on their schedule; ``execute(op)`` does one.

    ``idle(gap_s)``, if given, is called when the next operation is due in
    ``gap_s`` seconds; it must return well before then.
    """
    records = []
    start = clock()
    busy_until = start
    for op in ops:
        due = start + op.due
        now = clock()
        if idle is not None and now < due:
            idle(due - now)
            now = clock()
        if now < due:
            sleep(due - now)
        send = clock()
        execute(op)
        end = clock()
        queued = busy_until > due
        records.append(OpRecord(op.kind, end - due, max(0.0, send - due),
                                0.0 if queued else max(0.0, send - due)))
        busy_until = end
    return records
