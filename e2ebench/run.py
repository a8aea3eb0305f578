"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a repository checkout::

    python3 e2ebench/run.py --workload graph-small --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the workload runs
once with span wrappers installed and once untraced, and the metrics are
the per-layer ones (plus ``trace.overhead_ratio``, traced over untraced
wall time of the measured phases). The spans of a traced run are written
to ``.bench_out/`` when it ends. See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no program sources at {src}; run from the "
                 "root of a repository checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS/OpenMP thread, set before numpy loads; the forked replicas
    # inherit it.
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    _load_program()
    from session import load_workloads, run_workload

    _, workloads = load_workloads()
    if args.workload not in workloads:
        sys.exit(f"e2ebench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads)}")
    work = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = dict(name=args.workload, seed=args.seed, seconds=args.seconds)
    try:
        sessions = []
        if args.trace:
            # The traced session runs first, in the colder process, so the
            # overhead ratio against the untraced one is an upper bound.
            sessions.append(run_workload(
                **run, trace=True, work_dir=work / "traced",
                trace_path=ROOT / ".bench_out"
                / f"{args.workload}-seed{args.seed}.trace.json"))
        sessions.append(run_workload(**run, trace=False,
                                     work_dir=work / "plain"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    # Every end-to-end figure comes from an untraced session; in a traced
    # run those not gated as end-to-end metrics are listed per layer.
    untraced = sessions[-1]
    measured = dict(untraced["e2e"])
    if args.trace:
        traced = sessions[0]
        measured.update(traced["layers"])
        measured["trace.overhead_ratio"] = (
            traced["measured_s"] / untraced["measured_s"], "ratio")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: measured[m["name"]] for m in names}
    attempted = sum(s["tally"].attempted for s in sessions)
    failed = sum(s["tally"].failed for s in sessions)
    reasons: dict[str, int] = {}
    for session in sessions:
        for reason, count in session["tally"].reasons.items():
            reasons[reason] = reasons.get(reason, 0) + count
    for reason, count in sorted(reasons.items()):
        print(f"failed: {count} x {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
