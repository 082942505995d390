"""Timing gossipopt's layers from outside the package.

Every hook replaces a public function at the name its caller looks up (a
module attribute or a class method) and restores it on exit, so nothing
under ``src/`` changes. Two hook sets exist:

- ``Clock``: end-to-end timing. It stamps only the entry to
  ``experiments.run_experiment`` and the entry and exit of ``solver.run``,
  which splits a run into set-up (everything before the first solver
  iteration) and solve time at a cost of a few calls per run.
- ``Tracer``: per-layer timing. Each wrapped call records a span (id,
  parent span, name, start, end); spans are kept in memory and written out
  when the benchmark ends. A span's self time is its duration minus the
  time its child spans cover.
"""

from __future__ import annotations

import csv
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from gossipopt import blockvec, experiments, hardcase, objectives, solver, topology

MODULES = ("topology", "blockvec", "objectives", "solver", "hardcase", "experiments", "cli")


def _mix_gflop(args, result):
    n, width = args[1].shape
    return "blockvec.mix.gflop", 2.0 * n * n * width / 1e9


def _emit_bytes(args, result):
    return "experiments.emit.bytes", float(len(result))


def _trace_mb(args, result):
    xs = args[1]
    n, d = xs[0].shape
    return "hardcase.trace_mb", len(xs) * n * d * 8 / 1e6


# (owner, attribute, span name, counter). The owner is where the caller looks
# the name up: experiments imports the generators into its own namespace,
# and hardcase builds its star cycle through its imported name.
LAYERS = (
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "emit", "experiments.emit", _emit_bytes),
    (experiments, "gen_synthetic_logistic", "objectives.gen", None),
    (experiments, "gen_random_quadratic", "objectives.gen", None),
    (hardcase, "build_hard_instance", "hardcase.build_hard_instance", None),
    (hardcase, "star_cycle_schedule", "topology.make_schedule", None),
    (hardcase, "certify_run", "hardcase.certify_run", _trace_mb),
    (hardcase, "lower_bound_curve", "hardcase.lower_bound_curve", None),
    (topology, "make_schedule", "topology.make_schedule", None),
    (topology, "build_mixing", "topology.build_mixing", None),
    (solver, "reference_minimizer", "objectives.reference_minimizer", None),
    (solver, "run", "solver.run", None),
    (solver, "step", "solver.step", None),
    (solver, "lyapunov", "solver.lyapunov", None),
    (blockvec, "multi_mix", "blockvec.multi_mix", None),
    (blockvec, "mix", "blockvec.mix", _mix_gflop),
    (blockvec, "project_consensus", "blockvec.project_consensus", None),
    (objectives.QuadraticObjectives, "grad", "objectives.grad", None),
    (objectives.QuadraticObjectives, "value", "objectives.value", None),
    (objectives.LogisticObjectives, "grad", "objectives.grad", None),
    (objectives.LogisticObjectives, "value", "objectives.value", None),
)


@contextmanager
def patched(replacements):
    """Set ``owner.attr = fn`` for each (owner, attr, fn); restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, fn in replacements:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


class Clock:
    """Set-up and solve time of the runs made while ``installed``."""

    def __init__(self):
        self.setup_s = 0.0
        self.solve_s = 0.0
        self._entered = None

    def reset(self):
        self.setup_s = self.solve_s = 0.0

    def installed(self):
        run_experiment = experiments.run_experiment
        run = solver.run

        def timed_experiment(*args, **kwargs):
            self._entered = time.perf_counter()
            return run_experiment(*args, **kwargs)

        def timed_run(*args, **kwargs):
            start = time.perf_counter()
            self.setup_s += start - self._entered
            try:
                return run(*args, **kwargs)
            finally:
                self.solve_s += time.perf_counter() - start

        return patched([
            (experiments, "run_experiment", timed_experiment),
            (solver, "run", timed_run),
        ])


class Tracer:
    """Spans of the wrapped layers; one run id per traced workload run."""

    def __init__(self):
        self.run_id = 0
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._next_id = 0

    def reset(self):
        self.run_id += 1
        self.spans = []
        self.counters = defaultdict(float)

    def wrap(self, name, fn, counter=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if counter is not None:
                key, amount = counter(args, result)
                self.counters[key] += amount
            return result

        return traced

    def installed(self):
        return patched([
            (owner, attr, self.wrap(name, owner.__dict__[attr], counter))
            for owner, attr, name, counter in LAYERS
        ])

    def _timed_spans(self):
        """(name, duration, self time) of every span of the current run."""
        covered = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, end - start, end - start - covered[span_id])
                for span_id, _, name, start, end in self.spans]

    def metrics(self):
        """Per-layer totals of the current run, keyed by metric name."""
        out = defaultdict(float, self.counters)
        for name, duration, own in self._timed_spans():
            out[f"{name}.s"] += duration
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += own
        return out

    def largest_span(self):
        """(name, self time) of the current run's span with most self time."""
        name, _, own = max(self._timed_spans(), key=lambda span: span[2])
        return name, own

    def write(self, path):
        """Write the current run's spans as CSV; returns the path."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "span", "parent", "name", "start_s", "end_s"])
            for span_id, parent, name, start, end in self.spans:
                writer.writerow([self.run_id, span_id, "" if parent is None else parent,
                                 name, repr(start), repr(end)])
        return path


def median_metrics(per_run):
    """Median over runs of every metric any run reported (missing counts as 0)."""
    names = sorted({name for metrics in per_run for name in metrics})
    return {name: statistics.median(m.get(name, 0.0) for m in per_run) for name in names}
