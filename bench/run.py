"""gossipopt benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file). The program is imported from ``src/`` next to this directory. The
workloads, metrics and units are declared in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics: a closed loop of runs for
``--seconds`` seconds, reporting medians of times calibrated for host
speed (see ``harness``). ``--trace 1`` measures the
per-layer metrics: half the time untraced, half with every layer wrapped in
spans; the difference of the two medians is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
reports the environment, the paper quantities (iterations, communication
rounds, gradient calls) and the sha256 of the emitted record streams.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = "1"
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the workload at a smoke-test size")
    return parser.parse_args(argv)


def import_program():
    """Pin BLAS threads, then import gossipopt from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "gossipopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no gossipopt package under {src}")
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import gossipopt

    if Path(gossipopt.__file__).resolve().parent != (src / "gossipopt").resolve():
        raise SystemExit(f"error: imported gossipopt from {gossipopt.__file__}")


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in _BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import harness
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {workloads.NAMES}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{args.size}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.size)
    tiny = workloads.make(args.workload, args.seed, "tiny")
    metrics, runs, info = harness.measure(wl, tiny, workdir, args.seconds, args.trace)

    failed = [r for r in runs if r.outcome.failures]
    last = runs[-1].outcome
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "environment": environment(),
        "runs": len(runs),
        "wall_s_per_run": [round(r.wall_s, 6) for r in runs],
        "iterations": last.iterations,
        "comm_rounds": last.comm_rounds,
        "grad_calls": last.grad_calls,
        "records_sha256": last.sha256,
        "error_rate": len(failed) / len(runs),
        "failures": [f for r in failed for f in r.outcome.failures][:10],
        **info,
    }
    print(json.dumps(report))
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
