"""Experiment orchestration: configs, runs, sweeps, machine-readable output.

Configurations are plain JSON documents; identical configurations produce
byte-identical outputs. Records stream to CSV, whose header ``CSV_HEADER``
names the fields of ``solver.RunRecord`` in order, or to JSON with the same
names, with floats at full round-trip precision. Wall-clock time appears
only in the run summary, never in the record stream.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from . import hardcase, solver, topology
from .objectives import gen_random_quadratic, gen_synthetic_logistic
from .topology import _is_number

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "CSV_HEADER",
    "build_mixing",
    "build_problem",
    "emit",
    "run_experiment",
    "sweep",
]

_RECORD_FIELDS = [f.name for f in fields(solver.RunRecord)]

CSV_HEADER = ",".join(_RECORD_FIELDS)

# One CSV row: %s gives str() of an int and of a float, whose str() is its
# round-trip repr.
_CSV_ROW = ",".join(["%s"] * len(_RECORD_FIELDS))
_csv_values = attrgetter(*_RECORD_FIELDS)

# Each key of a nested config section and the field it sets; every other
# field of ExperimentConfig is a top-level key of the same name.
_SECTIONS = {
    "algorithm": {"T": "T", "param_overrides": "param_overrides"},
    "stop": {"budget": "budget", "target_eps": "target_eps", "metric": "stop_metric"},
    "output": {
        "path": "output_path",
        "format": "output_format",
        "record_lyapunov": "record_lyapunov",
    },
}


# The number type of each key that a problem kind takes besides "kind"; the
# keys are the generator's keyword arguments.
_PROBLEM_KEYS = {
    "synthetic_logistic": {"n": int, "m": int, "d": int, "seed": int, "kappa": float},
    "random_quadratic": {"n": int, "d": int, "L": float, "mu": float, "seed": int},
    "hard_instance": {"chi": float, "L": float, "mu": float, "d_trunc": int},
}


@dataclass
class ExperimentConfig:
    """One run: problem, topology, algorithm knobs, stop rule, output."""

    problem: dict
    topology: dict | None = None
    chi: float | None = None
    T: int | str = 1
    param_overrides: dict = field(default_factory=dict)
    budget: int | None = None
    target_eps: float | None = None
    stop_metric: str = "mean_block"
    record_lyapunov: bool = True
    certify: bool = False
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        topology.check_section("param_overrides", self.param_overrides)
        if self.budget is None and self.target_eps is None:
            raise ValueError("config needs a budget, a target_eps, or both")
        # Each check names the key as the config document spells it. A
        # target <= 0 with no budget would never stop.
        T, budget, eps, chi = self.T, self.budget, self.target_eps, self.chi
        for key, value, ok, what in (
            ("T", T, T == "auto" or _is_number(T, int) and T >= 1,
             "a positive integer or 'auto'"),
            ("budget", budget, budget is None or _is_number(budget, int) and budget >= 0,
             "an integer >= 0"),
            ("target_eps", eps, eps is None or _is_number(eps) and eps > 0,
             "a finite number > 0"),
            ("chi", chi, chi is None or _is_number(chi) and chi >= 1,
             "a finite number >= 1"),
            ("record_lyapunov", self.record_lyapunov,
             isinstance(self.record_lyapunov, bool), "true or false"),
            ("certify", self.certify, isinstance(self.certify, bool), "true or false"),
            ("output path", self.output_path,
             self.output_path is None or isinstance(self.output_path, str),
             "a string or null"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {what}, got {value!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.stop_metric not in solver.STOP_METRICS:
            raise ValueError(f"unknown stop metric {self.stop_metric!r}")
        topology.check_section("problem", self.problem, _PROBLEM_KEYS)
        hard = self.problem["kind"] == "hard_instance"
        if self.certify and not hard:
            raise ValueError("certification requires a hard_instance problem")
        if self.certify and self.topology is not None:
            raise ValueError("certification replays the instance's own star cycle; "
                             "drop the topology section")
        solver.check_overrides(self.param_overrides)
        n = hardcase.hard_node_count(self.problem["chi"]) if hard else self.problem["n"]
        if self.topology is not None:
            topology.check_section("topology", self.topology, topology.TOPOLOGY_KEYS)
            if self.topology["n"] != n:
                raise ValueError(f"topology has n={self.topology['n']} nodes "
                                 f"but the problem has n={n}")
        elif not hard:
            raise ValueError("config needs a topology section for this problem kind")

    @classmethod
    def from_dict(cls, obj):
        """Build a config from its JSON layout (see ``_SECTIONS``).

        Unknown keys and sections that are not JSON objects are errors; a
        key left out takes the field's default.
        """
        nested = {name for keys in _SECTIONS.values() for name in keys.values()}
        top = {f.name: f.name for f in fields(cls) if f.name not in nested}
        values = {}
        for section, keys in ((None, top), *_SECTIONS.items()):
            part = obj if section is None else obj.get(section, {})
            if not isinstance(part, dict):
                where = f"config section {section!r}" if section else "the config"
                raise ValueError(f"{where} must be a JSON object, got {part!r}")
            known = keys.keys() | (_SECTIONS.keys() if section is None else set())
            unknown = sorted(set(part) - known)
            if unknown:
                where = "at the top level" if section is None else f"in {section!r}"
                raise ValueError(f"unknown config key {where}: {', '.join(unknown)}")
            values.update((keys[k], v) for k, v in part.items() if k in keys)
        for f in fields(cls):
            if f.name not in values and f.default is f.default_factory is MISSING:
                raise ValueError(f"config needs a {f.name!r} section")
        return cls(**values)

    @classmethod
    def from_json_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ExperimentResult:
    summary: dict
    records: list
    cert_report: object | None = None


def build_problem(problem):
    """Return (objectives, hard_instance_or_None) for a problem section.

    The section is one that ``ExperimentConfig`` has checked: it holds its
    ``kind`` and exactly the keys that kind takes, which are the generator's
    keyword arguments.
    """
    params = dict(problem)
    kind = params.pop("kind")
    if kind == "hard_instance":
        instance = hardcase.build_hard_instance(**params)
        return instance.objectives, instance
    gen = (
        gen_synthetic_logistic if kind == "synthetic_logistic" else gen_random_quadratic
    )
    return gen(**params), None


def _resolve_output_path(config, output_dir):
    if config.output_path is None:
        return None
    if output_dir:
        return str(Path(output_dir) / Path(config.output_path).name)
    return config.output_path


def _json_value(v):
    # An untracked potential is NaN, which JSON has no token for: null.
    return None if math.isnan(v) else v


def emit(records, fmt="csv", path=None):
    """Render records to CSV or JSON text; optionally write the file."""
    if fmt == "csv":
        rows = (_CSV_ROW % _csv_values(rec) for rec in records)
        text = "\n".join([CSV_HEADER, *rows]) + "\n"
    elif fmt == "json":
        rows = [
            {name: _json_value(getattr(rec, name)) for name in _RECORD_FIELDS}
            for rec in records
        ]
        text = json.dumps(rows, allow_nan=False)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text


def build_mixing(config, instance=None, shared=None):
    """Gossip matrices of the config's topology section or, when it has
    none, of its hard ``instance``'s own star cycle (built here if None).

    ``shared``, a list, holds the first successful build of a topology
    section for every later call that passes it, so runs whose configs
    share that section build its matrices once.
    """
    if config.topology is None:
        instance = instance or build_problem(config.problem)[1]
        return topology.build_mixing(instance.schedule)
    if shared:
        return shared[0]
    mixing = topology.build_mixing(topology.make_schedule(**config.topology))
    if shared is not None:
        shared.append(mixing)
    return mixing


def run_experiment(config, output_dir=None, *, shared_mixing=None):
    """Build every piece from the config, run, and write outputs.

    The declared network condition number, when present, is validated
    against the measured one (declaring less than measured is an error) and
    then drives the parameter schedule.

    ``shared_mixing`` goes to :func:`build_mixing`; :func:`sweep` passes
    one list per call.
    """
    started = time.perf_counter()
    objectives, instance = build_problem(config.problem)
    solver.check_overrides(config.param_overrides, objectives.mu)
    mixing = build_mixing(config, instance, shared_mixing)

    chi_measured = mixing.chi
    chi_used = chi_measured
    if config.chi is not None:
        if config.chi < chi_measured * (1.0 - 1e-9):
            raise ValueError(
                f"declared chi {config.chi} is below the measured value "
                f"{chi_measured:.6g}"
            )
        chi_used = float(config.chi)

    T = solver.consensus_rounds(chi_used) if config.T == "auto" else config.T
    chi_eff = solver.effective_chi(chi_used, T)
    params = replace(
        solver.derive_params(objectives.L, objectives.mu, chi_eff),
        **config.param_overrides,
    )

    reference = solver.make_reference(objectives, params.nu)

    result = solver.run(
        objectives,
        mixing,
        T=T,
        budget=config.budget,
        target_eps=config.target_eps,
        params=params,
        reference=reference,
        stop_metric=config.stop_metric,
        track_lyapunov=config.record_lyapunov,
        # The certifier checks only the iterates before span saturation.
        collect_trace=config.certify and hardcase.checked_iterates(instance, T),
    )

    cert_report = None
    if config.certify:
        cert_report = hardcase.certify_run(instance, result.trace, T=T)

    out_path = _resolve_output_path(config, output_dir)
    if out_path is not None:
        emit(result.records, config.output_format, out_path)

    last = result.records[-1]
    summary = {
        "iterations": last.k,
        "comm_rounds": last.comm_rounds,
        "grad_calls": last.grad_calls,
        "final_err_sq_stacked": last.err_sq_stacked,
        "final_err_sq_mean_block": last.err_sq_mean_block,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "chi_measured": chi_measured,
        "chi_used": chi_used,
        "chi_eff": chi_eff,
        "T": T,
        "n": objectives.n,
        "d": objectives.d,
        "L": objectives.L,
        "mu": objectives.mu,
        "certified_params": not config.param_overrides,
        "wall_time_s": time.perf_counter() - started,
        "output_path": out_path,
    }
    if cert_report is not None:
        summary["certified"] = cert_report.passed
    return ExperimentResult(
        summary=summary, records=result.records, cert_report=cert_report
    )


def _config_with(config, axis, value):
    """The config with ``value`` at the sweep axis, T or a problem key."""
    problem, T = config.problem, config.T
    if axis == "T":
        T = value
    else:
        problem = {**problem, axis: value}
    output_path = config.output_path
    if output_path is not None:
        p = Path(output_path)
        output_path = str(p.with_name(f"{p.stem}_{axis}{value}{p.suffix}"))
    return replace(config, problem=problem, T=T, output_path=output_path)


def sweep(base_config, axis, values, output_dir=None):
    """One run per value along the axis; failures mark their row only.

    The axis is ``T`` or a key of the base config's problem kind, checked
    before the first row.

    A row's status is ``ok``, ``diverged`` when its run raised
    :class:`solver.DivergenceError`, or ``error`` for any other failure;
    the row's ``error`` holds a failure's message. A row changes only the
    axis, so every row has the base config's topology section, and the rows
    share its gossip matrices for the length of this call: the first row
    that needs them builds them.

    Returns rows with the counts needed for complexity plots: iterations,
    communication rounds and gradient calls at the stop target (None when
    the run stopped for another reason).
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    kind = base_config.problem["kind"]
    if axis != "T" and axis not in _PROBLEM_KEYS[kind]:
        raise ValueError(
            f"sweep axis {axis!r} is neither T nor a key of a {kind} problem"
        )
    counts = ("iterations", "comm_rounds", "grad_calls")
    rows = []
    shared_mixing = []
    for value in values:
        row = {"axis": axis, "value": value, "status": "ok", "error": None}
        row.update((f"{count}_to_eps", None) for count in counts)
        try:
            summary = run_experiment(
                _config_with(base_config, axis, value),
                output_dir,
                shared_mixing=shared_mixing,
            ).summary
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            diverged = isinstance(exc, solver.DivergenceError)
            row.update(status="diverged" if diverged else "error", error=str(exc))
        else:
            if summary["converged"]:
                row.update((f"{count}_to_eps", summary[count]) for count in counts)
        rows.append(row)
    return rows
