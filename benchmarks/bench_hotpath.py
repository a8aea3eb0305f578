"""Hot-path baseline — where a seeded SGCL pretrain slice spends its time.

Runs the exact workload ``repro profile`` measures
(:func:`repro.obs.profile_run.profile_pretrain` — same dataset slice,
same config, same seeds) under the op profiler and writes the hot-path
payload to ``BENCH_hotpath.json`` at the repo root. That file is the
committed baseline the CLI's perf-regression gate compares against::

    python -m repro profile --compare BENCH_hotpath.json

The gate never compares absolute times across machines; it checks the
machine-independent invariants of the payload — deterministic op *call
counts* (seeded run ⇒ fixed computation graph), each op's *share* of
total self time (±0.10 absolute), and runtime-normalised per-call cost
(≤3×). See :func:`repro.obs.profiler.compare_hotpaths`.

Note the config block: the gate refuses to compare payloads recorded
with different workloads, so regenerate the baseline (``python
benchmarks/bench_hotpath.py``) whenever the profiled slice or the
model's op mix changes *intentionally*.

Runnable both as a pytest bench (``pytest benchmarks/bench_hotpath.py``)
and as a plain script (``python benchmarks/bench_hotpath.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.data.io import atomic_write
from repro.obs.profile_run import profile_pretrain
from repro.obs.profiler import compare_hotpaths

_REPO_ROOT = Path(__file__).resolve().parents[1]

# Keep these in lockstep with the `repro profile` CLI defaults: the
# committed baseline must describe the workload the gate re-runs in CI.
_PROFILE_KWARGS = dict(scale=0.1, epochs=2, batch_size=32, seed=0,
                       max_graphs=64)


def run_hotpath_benchmark() -> dict:
    _, _, payload = profile_pretrain("MUTAG", **_PROFILE_KWARGS)
    return {
        "bench": "hotpath",
        "cpu_count": os.cpu_count() or 1,
        "note": ("op-level profile of a seeded 2-epoch SGCL pretrain on "
                 "MUTAG@0.1 (64 graphs); call counts are deterministic, "
                 "times are this machine's — the compare gate only uses "
                 "machine-independent ratios"),
        **payload,
    }


def _write_payload(payload: dict) -> None:
    out = _REPO_ROOT / "BENCH_hotpath.json"
    with atomic_write(out) as tmp:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


def test_hotpath_baseline(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, run_hotpath_benchmark)
    print("\n=== hot path: seeded SGCL pretrain slice ===")
    for row in payload["rows"][:10]:
        print(f"{row['span'][-48:]:>48} {row['op']:<16} "
              f"×{row['calls']:<6} {row['self_s'] * 1e3:8.2f}ms "
              f"({row['self_share']:.1%})")
    print(f"wall {payload['wall_seconds'] * 1e3:.1f}ms, "
          f"{payload['attributed_fraction']:.1%} attributed")
    # The acceptance bar of the profiler itself: ≥90% of wall time lands
    # in op×span rows (ops + per-span glue residuals).
    assert payload["attributed_fraction"] >= 0.90
    # A payload must gate cleanly against itself.
    assert compare_hotpaths(payload, payload) == []
    _write_payload(payload)


if __name__ == "__main__":
    _write_payload(run_hotpath_benchmark())
