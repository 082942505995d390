"""Closed-loop measurement of one workload.

One client, one process: each run calls ``gossipopt.cli.main`` on the
generated config, then checks the outputs; the next run starts only after
that. Before measuring, one untimed warm-up run at the tiny size pays the
one-time costs (first LAPACK call, lazy imports). Every full-size run
passes through the correctness gate.

Host-speed calibration: on a shared host the speed of a core drifts by
15-20% over minutes, and a whole measuring window drifts with it. So a
fixed mix of numpy work (``calibrate``) runs before the first run and after
every run, and each run's times are scaled by ``REFERENCE_CALIBRATION_S``
over the mean of the two calibrations around it: the end-to-end times are
seconds on a host where the mix takes ``REFERENCE_CALIBRATION_S``. The mix
is benchmark code, identical on every commit, so a change to the program
moves only the measured run. The raw times are in the report line.
"""

from __future__ import annotations

import io
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np
from gossipopt import cli

import tracing
import workloads

MIN_RUNS = 3
CALIBRATION_SMALL_OPS = 60_000
CALIBRATION_DENSE_OPS = 40
# Median calibration time on the 2-core x86_64 host the bounds were set on.
REFERENCE_CALIBRATION_S = 0.50


@dataclass
class Run:
    wall_s: float
    outcome: workloads.Outcome
    setup_s: float = 0.0
    solve_s: float = 0.0
    layers: dict = field(default_factory=dict)
    calibration_s: float = REFERENCE_CALIBRATION_S

    @property
    def scale(self):
        """Factor that turns this run's times into reference-host seconds."""
        return REFERENCE_CALIBRATION_S / self.calibration_s


def calibrate():
    """Seconds a fixed mix of numpy work takes on this host now.

    The mix has the two kinds of work the program does, because host drift
    slows them by different amounts: small products, updates and reductions
    dominated by per-call overhead (a T = 1 solver iteration), and dense
    linear algebra (a gossip round on 100 nodes, a Laplacian spectrum).
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 20))
    w = np.eye(10) * 0.5 + 0.05
    sym = rng.standard_normal((200, 200))
    sym = sym + sym.T
    mixing, blocks = rng.standard_normal((100, 100)), rng.standard_normal((100, 20))
    x = a
    start = time.perf_counter()
    for _ in range(CALIBRATION_SMALL_OPS):
        x = w @ x * 0.1 + a
        float(np.vdot(x, x))
    for _ in range(CALIBRATION_DENSE_OPS):
        np.linalg.eigvalsh(sym)
        for _ in range(100):
            mixing @ blocks
    return time.perf_counter() - start


def execute(wl, workdir, entry):
    """One closed-loop run: command line in, outputs written and checked.

    Returns (wall seconds, outcome). Program errors surface as a nonzero
    exit code, which the gate counts as a failure.
    """
    for path in wl.outputs(workdir):
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = entry(wl.argv(workdir))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    outcome = wl.check(code, stdout.getvalue(), workdir)
    wall = time.perf_counter() - start
    if code != 0 and stderr.getvalue():
        outcome.failures.append(stderr.getvalue().strip())
    return wall, outcome


def clocked_run(wl, workdir, clock):
    """A run with only set-up and solve time stamped."""
    clock.reset()
    with clock.installed():
        wall, outcome = execute(wl, workdir, cli.main)
    return Run(wall, outcome, clock.setup_s, clock.solve_s)


def traced_run(wl, workdir, tracer):
    """A run with every layer wrapped in spans."""
    tracer.reset()
    with tracer.installed():
        wall, outcome = execute(wl, workdir, tracer.wrap("cli.main", cli.main))
    return Run(wall, outcome, layers=tracer.metrics())


def repeat(seconds, one):
    """Call ``one`` until ``seconds`` have passed, at least MIN_RUNS times."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_RUNS or time.perf_counter() < deadline:
        results.append(one())
    return results


def max_rss_mb():
    """High-water mark of this process's resident memory, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(wl, tiny, workdir, seconds, trace):
    """Measure one workload; returns (metrics, every counted Run, report info).

    Without ``trace`` the metrics are the end-to-end ones: medians over the
    runs of the calibrated times, and the peak resident memory of the
    process above its baseline with the program imported. With ``trace``, untraced and traced runs
    alternate, so host-speed drift hits both alike; the metrics are the
    per-layer medians over the traced runs, and the tracing overhead is the
    difference of the two medians of wall time.
    """
    baseline_mb = max_rss_mb()
    tiny.write_config(workdir)
    execute(tiny, workdir, cli.main)  # warm-up; its outcome is not counted
    wl.write_config(workdir)
    clock = tracing.Clock()
    info = {}
    if not trace:
        calibrations = [calibrate()]

        def one():
            run = clocked_run(wl, workdir, clock)
            calibrations.append(calibrate())
            run.calibration_s = (calibrations[-2] + calibrations[-1]) / 2
            return run

        runs = repeat(seconds, one)
        metrics = {
            "wall_s": statistics.median(r.wall_s * r.scale for r in runs),
            "setup_s": statistics.median(r.setup_s * r.scale for r in runs),
            "iters_per_s": statistics.median(
                r.outcome.iterations / (r.solve_s * r.scale) if r.solve_s else 0.0
                for r in runs
            ),
            "peak_mem_mb": max_rss_mb() - baseline_mb,
        }
        info = {
            "raw_wall_s": statistics.median(r.wall_s for r in runs),
            "calibration_s": [round(c, 6) for c in calibrations],
        }
    else:
        tracer = tracing.Tracer()
        pairs = repeat(seconds, lambda: (clocked_run(wl, workdir, clock),
                                         traced_run(wl, workdir, tracer)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        runs = untraced + traced
        last = traced[-1].outcome
        metrics = tracing.median_metrics([r.layers for r in traced])
        metrics.update({
            "solver.iterations": last.iterations,
            "solver.comm_rounds": last.comm_rounds,
            "solver.grad_calls": last.grad_calls,
            "trace.overhead_s": statistics.median(r.wall_s for r in traced)
            - statistics.median(r.wall_s for r in untraced),
        })
        module_self = {m: metrics.get(f"{m}.self_s", 0.0) for m in tracing.MODULES}
        total = sum(module_self.values())
        name, self_s = tracer.largest_span()
        info = {
            "module_share": {m: round(v / total, 4) for m, v in module_self.items()},
            "leading_module": max(module_self, key=module_self.get),
            "largest_span": {"name": name, "self_s": self_s},
            "spans_file": str(tracer.write(workdir / "spans.csv")),
        }
    # Criterion 10: repeated runs of one config emit byte-identical records.
    for r in runs[1:]:
        if r.outcome.sha256 != runs[0].outcome.sha256:
            r.outcome.failures.append("record stream differs from the first run")
    return metrics, runs, info
