"""Host-speed probe: brings wall times to a fixed reference host speed.

The benchmark runs on shared hosts whose speed shifts by up to ~1.6x for
seconds to minutes at a time (neighbours contend for the physical core and
its caches; no steal time shows in the guest). Every timing of the program
moves with it, so two sets of runs of the same code can differ by more
than any useful bound. The benchmark therefore times a fixed probe kernel
(small numpy ops and Python object churn, like the program's own mix,
and independent of the program) right before, during and after each
measured block, and scales the block's timings by

    (REFERENCE_S / probe_s) ** ELASTICITY[kind]

where ``probe_s`` is the median probe time over the block. The elasticity
is how strongly the program's timings follow the probe's when the host
shifts, fitted over runs of 30 s (8 seeds per workload, 2-vCPU VM):
set-up, training steps, eval and writes, which compute in this process,
follow it with 0.55-0.9 (correlation 0.75-0.99); reads, which also wait
on the replica processes and their pipes, with 0.45-0.65. A change to
the program moves its timings and not the probe's, so it shows in full.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

REFERENCE_S = 0.5e-3   # probe time on the reference host
# d log(program time) / d log(probe time), as measured
ELASTICITY = {"compute": 0.7, "read": 0.5}
REPEATS = 3            # kernel runs per probe; a probe is their minimum

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((48, 32))
_W = _RNG.standard_normal((32, 32))
_IDX = _RNG.integers(0, 48, 192)


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value, self.parents = value, parents


def _kernel() -> float:
    acc = 0.0
    for _ in range(20):
        h = np.maximum(_A @ _W, 0.0)
        acc += float(np.bincount(_IDX, weights=h[_IDX, 0], minlength=48).sum())
    nodes = [_Node(i, ()) for i in range(64)]
    for i in range(64, 600):
        nodes.append(_Node(i, (nodes[i - 7], nodes[i // 3])))
    counts: dict[int, int] = {}
    for node in nodes:
        counts[node.value % 97] = counts.get(node.value % 97, 0) \
            + len(node.parents)
    return acc + sum(counts.values())


class HostSpeed:
    """Probe times of one run, in the order they were taken."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.probes: list[float] = []
        self.last = float("-inf")   # clock reading at the last probe's end
        self.cost = 0.0             # wall time the last probe took

    def probe(self, every_cpu: bool = False) -> None:
        """Time the kernel on the CPU this process runs on or, with
        ``every_cpu``, on each CPU it may use in turn (geometric mean): the
        vCPUs shift speed independently, and traffic also runs in the
        replica processes, on whichever CPU is free."""
        start = self.clock()
        if not every_cpu:
            self.probes.append(self._best())
        else:
            allowed = os.sched_getaffinity(0)
            logs = []
            try:
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    logs.append(math.log(self._best()))
            finally:
                os.sched_setaffinity(0, allowed)
            self.probes.append(math.exp(sum(logs) / len(logs)))
        self.last = self.clock()
        self.cost = self.last - start

    def _best(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            start = self.clock()
            _kernel()
            best = min(best, self.clock() - start)
        return best

    def mark(self) -> int:
        """Call right after the probe that opens a block."""
        return len(self.probes) - 1

    def block(self, mark: int) -> float:
        """Median probe time from the block's opening probe on; call right
        after the probe that closes the block."""
        return statistics.median(self.probes[mark:])


def scale(probe_s, kind: str) -> np.ndarray | float:
    """Multiplier that brings a ``kind`` time measured at ``probe_s`` to
    the reference host (divide a rate by it)."""
    return (REFERENCE_S / np.asarray(probe_s, dtype=float)) \
        ** ELASTICITY[kind]
