import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gossipopt import cli, experiments, hardcase, solver
from gossipopt.experiments import CSV_HEADER, ExperimentConfig


def _quadratic_config(**overrides):
    base = dict(
        problem={"kind": "random_quadratic", "n": 4, "d": 3, "L": 10.0, "mu": 1.0, "seed": 0},
        topology={"kind": "ring_star", "n": 4},
        budget=40,
        target_eps=1e-30,
        stop_metric="stacked",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _hard_config(**overrides):
    base = dict(
        problem={"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0, "d_trunc": 40},
        budget=30,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_emit_csv_header_and_row_count():
    result = experiments.run_experiment(_quadratic_config(budget=3))
    text = experiments.emit(result.records, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # header + records for k = 0..3
    assert experiments.emit([], "csv").strip() == CSV_HEADER


def test_emit_json_roundtrip_exact():
    result = experiments.run_experiment(_quadratic_config(budget=3))
    rows = json.loads(experiments.emit(result.records, "json"))
    for row, rec in zip(rows, result.records):
        assert row["k"] == rec.k
        assert row["err_sq_stacked"] == rec.err_sq_stacked
        assert row["psi_x"] == rec.psi_x


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_emit_json_untracked_potentials_are_null(tmp_path):
    cfg = _quadratic_config(
        budget=3, record_lyapunov=False, output_path="run.json", output_format="json"
    )
    result = experiments.run_experiment(cfg, output_dir=str(tmp_path))
    text = (tmp_path / "run.json").read_text()
    rows = json.loads(text, parse_constant=_reject_constant)
    assert len(rows) == 4
    assert all(row["psi_x"] is None and row["psi_yz"] is None for row in rows)
    assert [row["err_sq_stacked"] for row in rows] == [
        rec.err_sq_stacked for rec in result.records
    ]
    # CSV keeps writing nan for the same records
    assert experiments.emit(result.records, "csv").split("\n")[1].endswith(",nan,nan")


def _format_value(v):
    """How emit rendered one CSV value before it used one format per row."""
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _per_value_csv(records):
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_format_value(getattr(rec, name)) for name in
                              CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("track", [True, False])
def test_run_records_hold_python_ints_and_floats(track):
    # emit renders floats with str(), which numpy 2 scalars would not match
    result = experiments.run_experiment(
        _quadratic_config(budget=3, T=2, record_lyapunov=track)
    )
    for rec in result.records:
        for name in CSV_HEADER.split(","):
            want = int if name in ("k", "comm_rounds", "grad_calls") else float
            assert type(getattr(rec, name)) is want, name


def test_csv_matches_the_per_value_format():
    tracked = experiments.run_experiment(_quadratic_config(budget=4)).records
    untracked = experiments.run_experiment(
        _quadratic_config(budget=4, record_lyapunov=False)
    ).records
    edge = solver.RunRecord(
        k=123456789, comm_rounds=10**12, grad_calls=0, err_sq_stacked=5e-324,
        err_sq_mean_block=1.7976931348623157e308, psi_x=-0.0, psi_yz=math.inf,
    )
    records = tracked + untracked + [edge]
    assert math.isnan(untracked[0].psi_x)
    assert experiments.emit(records) == _per_value_csv(records)


def test_csv_floats_roundtrip_exactly():
    result = experiments.run_experiment(_quadratic_config(budget=5))
    lines = experiments.emit(result.records, "csv").strip().split("\n")[1:]
    for line, rec in zip(lines, result.records):
        cells = line.split(",")
        assert float(cells[3]) == rec.err_sq_stacked
        assert float(cells[5]) == rec.psi_x


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = _quadratic_config(output_path="run.csv")
    experiments.run_experiment(cfg, output_dir=str(tmp_path / "a"))
    experiments.run_experiment(cfg, output_dir=str(tmp_path / "b"))
    (tmp_path / "a").mkdir(exist_ok=True)
    a = (tmp_path / "a" / "run.csv").read_bytes()
    b = (tmp_path / "b" / "run.csv").read_bytes()
    assert a == b


def test_declared_chi_validated_against_measured():
    # ring/star on 4 nodes measures chi = 4
    with pytest.raises(ValueError, match="below the measured"):
        experiments.run_experiment(_quadratic_config(chi=2.0))
    result = experiments.run_experiment(_quadratic_config(chi=8.0, budget=2))
    assert result.summary["chi_used"] == 8.0
    assert abs(result.summary["chi_measured"] - 4.0) < 1e-9


def test_auto_T_resolves_to_halving_rounds():
    result = experiments.run_experiment(_quadratic_config(T="auto", budget=2))
    chi = result.summary["chi_measured"]
    assert result.summary["T"] == math.ceil(chi * math.log(2.0))
    assert result.summary["chi_eff"] == 2.0
    assert result.summary["comm_rounds"] == 2 * result.summary["T"]


def test_param_overrides_change_the_trajectory():
    default = experiments.run_experiment(_quadratic_config(budget=5))
    slowed = experiments.run_experiment(
        _quadratic_config(budget=5, param_overrides={"tau1": 1e-6})
    )
    assert (
        default.records[-1].err_sq_stacked != slowed.records[-1].err_sq_stacked
    )
    assert default.summary["certified_params"] is True
    assert slowed.summary["certified_params"] is False


def test_unknown_param_override_fails_at_load():
    obj = {
        "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                    "d_trunc": 40},
        "algorithm": {"param_overrides": {"tau": 0.5}},
        "stop": {"budget": 10},
    }
    with pytest.raises(ValueError, match="override: tau"):
        ExperimentConfig.from_dict(obj)


def test_override_nu_must_stay_below_mu(monkeypatch):
    def unexpected(schedule):
        raise AssertionError("mixing built before the overrides were checked")

    monkeypatch.setattr(experiments.topology, "build_mixing", unexpected)
    for nu in (1.0, 7.0):  # mu = 1
        cfg = _quadratic_config(param_overrides={"nu": nu})
        with pytest.raises(ValueError, match="nu=.*mu=1"):
            experiments.run_experiment(cfg)


def _unreachable(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} reached with a bad config")
    return fail


@pytest.mark.parametrize(
    "name, value, rule",
    [("tau1", 2.0, "below 1"), ("sigma1", 1.0, "below 1"), ("gamma", -1.0, "positive")],
)
def test_override_bound_fails_at_load(monkeypatch, name, value, rule):
    monkeypatch.setattr(experiments, "build_problem", _unreachable("build_problem"))
    monkeypatch.setattr(experiments.topology, "build_mixing",
                        _unreachable("build_mixing"))
    obj = {
        "problem": _QUADRATIC,
        "topology": _RING_STAR,
        "algorithm": {"param_overrides": {name: value}},
        "stop": {"budget": 10},
    }
    with pytest.raises(ValueError, match=f"^override {name}={value} must be {rule}$"):
        ExperimentConfig.from_dict(obj)


def test_certify_requires_hard_instance():
    with pytest.raises(ValueError, match="hard_instance"):
        experiments.run_experiment(_quadratic_config(certify=True))


def test_certification_attached_to_summary():
    result = experiments.run_experiment(_hard_config(certify=True))
    assert result.summary["certified"] is True
    assert result.cert_report.passed


def test_certify_multi_consensus_run():
    # chi = 9: n = 9, a cycle of 3 stars and T = ceil(9 ln 2) = 7
    result = experiments.run_experiment(_hard_config(T="auto", certify=True))
    s = result.summary
    assert s["T"] == 7
    assert s["certified"] is True
    assert s["iterations"] == 30
    assert s["comm_rounds"] == 7 * s["iterations"]


@pytest.mark.parametrize(
    "topology",
    [
        {"kind": "ring_star", "n": 9},
        {"kind": "random_geometric", "n": 9, "radius": 0.6, "pool_size": 3, "seed": 0},
    ],
    ids=["ring_star", "random_geometric"],
)
def test_certify_rejects_a_topology_section(topology):
    # the certificate replays the instance's own star cycle, which a run on
    # another network does not follow
    with pytest.raises(ValueError, match="drop the topology section"):
        _hard_config(topology=topology, certify=True)
    result = experiments.run_experiment(_hard_config(topology=topology, budget=5))
    assert result.summary["iterations"] == 5
    assert "certified" not in result.summary


def test_config_validation():
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig(problem={"kind": "random_quadratic"})
    with pytest.raises(ValueError, match="T must be"):
        _quadratic_config(T=0)
    with pytest.raises(ValueError, match="T must be"):
        _quadratic_config(T=True)
    with pytest.raises(ValueError, match="output format"):
        _quadratic_config(output_format="yaml")
    # both fail at load, before any problem or mixing is built
    logistic = {"kind": "synthetic_logistic", "n": 4, "m": 5, "d": 3, "seed": 0,
                "kappa": 10.0}
    with pytest.raises(ValueError, match="stop metric 'stacked_typo'"):
        ExperimentConfig.from_dict(
            {"problem": logistic, "stop": {"budget": 1, "metric": "stacked_typo"}}
        )
    with pytest.raises(ValueError, match="certification requires a hard_instance"):
        ExperimentConfig.from_dict(
            {"problem": logistic, "stop": {"budget": 1}, "certify": True}
        )
    with pytest.raises(ValueError, match="unknown problem kind"):
        experiments.run_experiment(
            ExperimentConfig(problem={"kind": "nope"}, budget=1)
        )
    with pytest.raises(ValueError, match="topology"):
        experiments.run_experiment(
            ExperimentConfig(
                problem={"kind": "random_quadratic", "n": 4, "d": 3, "L": 10.0,
                         "mu": 1.0, "seed": 0},
                budget=1,
            )
        )


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("stop", "budget", True),
        ("stop", "budget", 10.5),
        ("stop", "budget", "10"),
        ("stop", "budget", -1),
        ("stop", "target_eps", 0),
        ("stop", "target_eps", -1e-9),
        ("stop", "target_eps", "1e-9"),
        (None, "chi", "8"),
        (None, "chi", 0.5),
        (None, "chi", True),
        ("output", "record_lyapunov", "false"),
        (None, "certify", 1),
        ("output", "path", 3),
    ],
)
def test_config_rejects_mistyped_values_at_load(section, key, value):
    doc = {
        "problem": {"kind": "random_quadratic", "n": 4, "d": 3, "L": 10.0,
                    "mu": 1.0, "seed": 0},
        "topology": {"kind": "ring_star", "n": 4},
        "stop": {"budget": 1},
    }
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    with pytest.raises(ValueError, match=rf"{key} must be .*, got {re.escape(repr(value))}$"):
        ExperimentConfig.from_dict(doc)


def test_config_from_dict_nested_layout():
    cfg = ExperimentConfig.from_dict(
        {
            "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                        "d_trunc": 40},
            "algorithm": {"T": "auto", "param_overrides": {"zeta": 0.4}},
            "stop": {"budget": 10, "target_eps": 1e-9, "metric": "stacked"},
            "output": {"path": "out.json", "format": "json", "record_lyapunov": False},
            "certify": True,
        }
    )
    assert cfg.T == "auto"
    assert cfg.param_overrides == {"zeta": 0.4}
    assert cfg.stop_metric == "stacked"
    assert cfg.output_format == "json"
    assert cfg.certify is True


# Where each config field sits in a config document: (section, key), with
# None for the top level. Written out by hand as the reference layout.
_LAYOUT = {
    "problem": (None, "problem"),
    "topology": (None, "topology"),
    "chi": (None, "chi"),
    "T": ("algorithm", "T"),
    "param_overrides": ("algorithm", "param_overrides"),
    "budget": ("stop", "budget"),
    "target_eps": ("stop", "target_eps"),
    "stop_metric": ("stop", "metric"),
    "record_lyapunov": ("output", "record_lyapunov"),
    "certify": (None, "certify"),
    "output_path": ("output", "path"),
    "output_format": ("output", "format"),
}

_FIELD_VALUES = {
    "problem": st.sampled_from([
        {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0, "d_trunc": 40},
        {"kind": "random_quadratic", "n": 4, "d": 3, "L": 10.0, "mu": 1.0, "seed": 0},
    ]),
    "topology": st.none() | st.just({"kind": "ring_star", "n": 4}),
    "chi": st.none() | st.floats(1.0, 100.0),
    "T": st.integers(1, 9) | st.just("auto"),
    "param_overrides": st.sampled_from([{}, {"zeta": 0.4}]),
    "budget": st.none() | st.integers(0, 100),
    "target_eps": st.none() | st.floats(1e-12, 1.0),
    "stop_metric": st.sampled_from(["mean_block", "stacked"]),
    "record_lyapunov": st.booleans(),
    "certify": st.booleans(),
    "output_path": st.none() | st.just("out.csv"),
    "output_format": st.sampled_from(["csv", "json"]),
}


@given(
    flat=st.fixed_dictionaries({}, optional=_FIELD_VALUES),
    extra=st.sampled_from([None, "algorithm", "stop", "output"]),
)
def test_from_dict_sets_each_field_from_its_place_in_the_layout(flat, extra):
    doc = {}
    for name, value in flat.items():
        section, key = _LAYOUT[name]
        (doc if section is None else doc.setdefault(section, {}))[key] = value
    if "problem" not in flat:
        with pytest.raises(ValueError, match="config needs a 'problem' section"):
            ExperimentConfig.from_dict(doc)
    else:
        try:
            expected = ExperimentConfig(**flat)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                ExperimentConfig.from_dict(doc)
        else:
            assert ExperimentConfig.from_dict(doc) == expected
    (doc if extra is None else doc.setdefault(extra, {}))["extra_key"] = 1
    with pytest.raises(ValueError, match="unknown config key.*extra_key"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize(
    "section, key",
    [(None, "stopp"), ("algorithm", "typo_key"), ("stop", "budgett"), ("output", "fmt")],
)
def test_config_from_dict_rejects_unknown_keys(section, key):
    obj = {
        "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                    "d_trunc": 40},
        "algorithm": {"T": 1},
        "stop": {"budget": 10},
    }
    (obj if section is None else obj.setdefault(section, {}))[key] = 5
    with pytest.raises(ValueError, match=f"unknown config key.*{key}"):
        ExperimentConfig.from_dict(obj)


@pytest.mark.parametrize(
    "config, section, extra, named",
    [
        (_quadratic_config, "problem", {"kappa": 5.0}, "random_quadratic problem: kappa"),
        (_quadratic_config, "topology", {"radius": 0.3, "pool_size": 9},
         "ring_star topology: pool_size, radius"),
        (_hard_config, "problem", {"n": 9}, "hard_instance problem: n"),
    ],
    ids=["random_quadratic", "ring_star", "hard_instance"],
)
def test_run_experiment_rejects_unknown_problem_and_topology_keys(
    config, section, extra, named
):
    cfg = config()
    changed = {**getattr(cfg, section), **extra}
    if section == "problem":  # checked when the config loads
        with pytest.raises(ValueError, match=named):
            config(problem=changed)
        return
    setattr(cfg, section, changed)
    with pytest.raises(ValueError, match=named):
        experiments.run_experiment(cfg)


def test_topology_n_must_match_problem_n():
    with pytest.raises(ValueError,
                       match="^topology has n=5 nodes but the problem has n=4$"):
        _quadratic_config(topology={"kind": "ring_star", "n": 5})


_UNSEEDED = {"kind": "random_quadratic", "n": 4, "d": 3, "L": 10.0, "mu": 1.0}
_QUADRATIC = {**_UNSEEDED, "seed": 0}
_RING_STAR = {"kind": "ring_star", "n": 4}


@pytest.mark.parametrize(
    "config, named",
    [
        ({"topology": _RING_STAR}, "config needs a 'problem' section"),
        ({"problem": {"n": 4}, "topology": _RING_STAR},
         "problem section needs a 'kind'"),
        ({"problem": _UNSEEDED, "topology": _RING_STAR},
         "missing key for a random_quadratic problem: seed"),
        ({"problem": _QUADRATIC,
          "topology": {"kind": "random_geometric", "n": 4, "radius": 0.5}},
         "missing key for a random_geometric topology: pool_size, seed"),
        ({"problem": _QUADRATIC, "topology": {"n": 4}},
         "topology section needs a 'kind'"),
        ({"problem": _QUADRATIC, "topology": {"kind": "ring_star"}},
         "missing key for a ring_star topology: n"),
    ],
    ids=["problem", "kind", "seed", "pool_size_seed", "topology_kind", "topology_n"],
)
def test_missing_config_section_or_key_is_named(tmp_path, capsys, config, named):
    path = _write_config(tmp_path, {**config, "stop": {"budget": 1}})
    assert cli.main(["run", path]) == 1
    assert f"error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, named",
    [
        ({"topology": "ring_star"},
         "config section 'topology' must be a JSON object, got 'ring_star'"),
        ({"stop": "2"}, "config section 'stop' must be a JSON object, got '2'"),
        ({"algorithm": {"param_overrides": ["nu"]}},
         "config section 'param_overrides' must be a JSON object, got ['nu']"),
        ({"problem": {**_QUADRATIC, "n": "4"}},
         "problem key 'n' must be an integer, got '4'"),
        ({"problem": {**_QUADRATIC, "n": 4.0}},
         "problem key 'n' must be an integer, got 4.0"),
        ({"problem": {**_QUADRATIC, "seed": True}},
         "problem key 'seed' must be an integer, got True"),
        ({"algorithm": {"param_overrides": {"chi": 1.0}}},
         "unknown parameter override: chi"),
    ],
    ids=["topology_str", "stop_str", "overrides_list", "n_str", "n_float",
         "seed_bool", "chi_override"],
)
def test_wrongly_typed_config_is_named_at_load(tmp_path, capsys, change, named):
    config = {"problem": _QUADRATIC, "topology": _RING_STAR, "stop": {"budget": 1}}
    path = _write_config(tmp_path, {**config, **change})
    assert cli.main(["run", path]) == 1
    assert f"error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, named",
    [
        ({"problem": {**_QUADRATIC, "L": math.inf}},
         "problem key 'L' must be a finite number, got inf"),
        ({"chi": math.inf}, "chi must be a finite number >= 1, got inf"),
        ({"algorithm": {"param_overrides": {"gamma": math.inf}}},
         "param_overrides key 'gamma' must be a finite number, got inf"),
        ({"stop": {"budget": 1, "target_eps": math.inf}},
         "target_eps must be a finite number > 0, got inf"),
        ({"problem": {**_QUADRATIC, "mu": math.nan}},
         "problem key 'mu' must be a finite number, got nan"),
    ],
    ids=["problem_L", "chi", "override_gamma", "target_eps", "problem_mu_nan"],
)
def test_non_finite_config_number_is_named_at_load(tmp_path, capsys, monkeypatch,
                                                   change, named):
    # Python's json reads Infinity and NaN. Unchecked, L = inf fails in the
    # generator, chi = inf divides by zero, gamma = inf overflows mid-run
    # and target_eps = inf stops as converged at k = 0.
    monkeypatch.setattr(experiments, "build_problem", _unreachable("build_problem"))
    config = {"problem": _QUADRATIC, "topology": _RING_STAR, "stop": {"budget": 1}}
    path = _write_config(tmp_path, {**config, **change})
    token = "NaN" if named.endswith("nan") else "Infinity"
    assert token in (tmp_path / "config.json").read_text()
    assert cli.main(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("section", ["problem", "topology"])
def test_negative_seed_is_named_at_load(section):
    config = {
        "problem": _QUADRATIC,
        "topology": {"kind": "random_geometric", "n": 4, "radius": 0.5,
                     "pool_size": 2, "seed": 0},
        "stop": {"budget": 1},
    }
    config[section] = {**config[section], "seed": -1}
    with pytest.raises(ValueError, match=f"^{section} key 'seed' must be >= 0, got -1$"):
        experiments.ExperimentConfig.from_dict(config)


def test_sweep_singleton_matches_run():
    cfg = _hard_config(budget=None, target_eps=1e-4, stop_metric="stacked")
    rows = experiments.sweep(cfg, "chi", [9.0])
    single = experiments.run_experiment(experiments._config_with(cfg, "chi", 9.0))
    assert rows[0]["status"] == "ok"
    assert rows[0]["iterations_to_eps"] == single.summary["iterations"]
    assert rows[0]["comm_rounds_to_eps"] == single.summary["comm_rounds"]


def test_sweep_isolates_failed_rows():
    cfg = _hard_config()
    rows = experiments.sweep(cfg, "chi", [1.0, 9.0])  # chi = 1 is invalid
    assert rows[0]["status"] == "error"
    assert rows[1]["status"] == "ok"


def test_sweep_marks_a_diverged_row():
    # gamma * delta >> 2 makes the z relaxation an unstable amplifier
    cfg = _hard_config(budget=50, param_overrides={"gamma": 1e8, "delta": 1e8})
    rows = experiments.sweep(cfg, "T", [1, 0])
    assert [r["status"] for r in rows] == ["diverged", "error"]
    assert rows[0]["error"].startswith("divergence at iteration")


def test_summary_names_the_stop_reason():
    for overrides, reason in (
        ({"budget": 3}, "budget"),
        ({"budget": None, "target_eps": 1e-2}, "converged"),
    ):
        summary = experiments.run_experiment(_quadratic_config(**overrides)).summary
        assert summary["stop_reason"] == reason
        assert summary["converged"] is (reason == "converged")


def test_sweep_axis_validation():
    cfg = _hard_config()
    with pytest.raises(ValueError, match="at least one value"):
        experiments.sweep(cfg, "chi", [])
    # kappa is a key of synthetic_logistic problems only; the axis fails
    # before any row is run
    with pytest.raises(ValueError, match="^sweep axis 'kappa' is neither T nor a "
                       "key of a hard_instance problem$"):
        experiments.sweep(cfg, "kappa", [10.0])
    with pytest.raises(ValueError, match="^sweep axis 'kind'"):
        experiments.sweep(cfg, "kind", [10.0])


def _logistic_rgg_config(**overrides):
    base = dict(
        problem={"kind": "synthetic_logistic", "n": 8, "m": 10, "d": 4,
                 "kappa": 10.0, "seed": 1},
        topology={"kind": "random_geometric", "n": 8, "radius": 0.5,
                  "pool_size": 4, "seed": 7},
        budget=15,
        output_path="sweep.csv",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _count_build_mixing(monkeypatch):
    calls = []
    build = experiments.topology.build_mixing

    def counted(schedule):
        calls.append(schedule)
        return build(schedule)

    monkeypatch.setattr(experiments.topology, "build_mixing", counted)
    return calls


def test_kappa_sweep_builds_topology_once(tmp_path, monkeypatch):
    cfg = _logistic_rgg_config()
    values = [10.0, 100.0, 1000.0]
    for value in values:
        experiments.run_experiment(
            experiments._config_with(cfg, "kappa", value),
            output_dir=str(tmp_path / "single"),
        )
    calls = _count_build_mixing(monkeypatch)
    rows = experiments.sweep(cfg, "kappa", values, output_dir=str(tmp_path / "sweep"))
    assert len(calls) == 1
    assert [r["status"] for r in rows] == ["ok"] * 3
    for value in values:
        name = f"sweep_kappa{value}.csv"
        single = (tmp_path / "single" / name).read_bytes()
        assert (tmp_path / "sweep" / name).read_bytes() == single


def test_consecutive_sweeps_build_once_each(monkeypatch):
    calls = _count_build_mixing(monkeypatch)
    cfg = _logistic_rgg_config(output_path=None)
    experiments.sweep(cfg, "kappa", [10.0, 100.0])
    experiments.sweep(cfg, "kappa", [10.0, 100.0])
    assert len(calls) == 2
    assert calls[0] is not calls[1]


def test_sweep_with_failing_topology_reports_every_row(monkeypatch):
    calls = []

    def failing(schedule):
        calls.append(schedule)
        raise ValueError(f"build {len(calls)} failed")

    monkeypatch.setattr(experiments.topology, "build_mixing", failing)
    cfg = _logistic_rgg_config(output_path=None)
    rows = experiments.sweep(cfg, "kappa", [10.0, 100.0, 1000.0])
    assert [r["status"] for r in rows] == ["error"] * 3
    assert [r["error"] for r in rows] == [f"build {i} failed" for i in (1, 2, 3)]


def test_sweep_shares_no_mixing_without_topology_section(monkeypatch):
    calls = _count_build_mixing(monkeypatch)
    rows = experiments.sweep(_hard_config(budget=2), "T", [1, 2])
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert len(calls) == 2


def test_chi_sweep_fails_only_the_rows_of_another_node_count(monkeypatch):
    calls = _count_build_mixing(monkeypatch)
    cfg = _hard_config(topology={"kind": "ring_star", "n": 9}, budget=2)
    rows = experiments.sweep(cfg, "chi", [9.0, 12.0, 10.0])
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    assert rows[1]["error"] == "topology has n=9 nodes but the problem has n=12"
    assert len(calls) == 1


def test_sweep_T_axis():
    cfg = _hard_config(budget=5)
    rows = experiments.sweep(cfg, "T", [1, 3])
    assert all(r["status"] == "ok" for r in rows)
    with pytest.raises(ValueError, match="T must be"):
        experiments._config_with(cfg, "T", 1.5)
    rows = experiments.sweep(cfg, "T", [1.5, 2])
    assert [r["status"] for r in rows] == ["error", "ok"]


def test_budget_only_run_marks_unconverged():
    result = experiments.run_experiment(_hard_config(budget=3, target_eps=1e-30))
    assert result.summary["converged"] is False
    assert result.summary["stop_reason"] == "budget"
    assert result.summary["iterations"] == 3


# ---------------------------------------------------------------- CLI


def _write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_params_prints_schedule(capsys):
    assert cli.main(["params", "--L", "4", "--mu", "1", "--chi", "1"]) == 0
    out = capsys.readouterr().out
    assert "tau2 = 0.5" in out
    assert "sigma2 = 0.03125" in out
    assert "theta = 4.0" in out


@pytest.mark.parametrize(
    "args, named",
    [
        (["--chi", "nan"], "need 1 <= chi < inf, got chi=nan"),
        (["--chi", "inf"], "need 1 <= chi < inf, got chi=inf"),
        (["--L", "inf", "--chi", "9"], "need L > mu > 0 and L finite, got L=inf, mu=1.0"),
        (["--chi", "inf", "--T", "auto"], "need 1 <= chi < inf, got chi=inf"),
    ],
    ids=["chi_nan", "chi_inf", "L_inf", "auto_T_chi_inf"],
)
def test_cli_params_rejects_a_non_finite_value(capsys, args, named):
    # Unchecked, chi = nan printed a schedule of NaNs and exited 0, chi = inf
    # and L = inf divided by zero, and T = auto at chi = inf overflowed.
    assert cli.main(["params", "--L", "4", "--mu", "1", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize(
    "argv",
    [[], ["sweep", "c.json", "--axis", "foo", "--values", "1"],
     ["params", "--mu", "1", "--chi", "9"], ["params", "--L", "abc", "--mu", "1", "--chi", "9"]],
    ids=["no_command", "bad_axis", "missing_flag", "bad_float"],
)
def test_cli_usage_errors_exit_1(capsys, argv):
    # 2 is the code of a failed certification or validation.
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: gossipopt")


def test_cli_help_exits_0(capsys):
    assert cli.main(["-h"]) == 0
    assert "usage: gossipopt" in capsys.readouterr().out


def test_cli_names_the_flag_of_a_value_it_cannot_parse(tmp_path, capsys):
    assert cli.main(["params", "--L", "4", "--mu", "1", "--chi", "9", "--T", "abc"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --T: must be an integer or 'auto', got 'abc'\n"
    )
    # The values are read before the config, which does not exist here.
    missing = str(tmp_path / "missing.json")
    for axis, values, rule, bad in (("T", "1,1.5", "an integer", "1.5"),
                                    ("kappa", "10,x", "a number", "x")):
        assert cli.main(["sweep", missing, "--axis", axis, "--values", values]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --values: {axis} must be {rule}, got {bad!r}\n"
        )


def test_cli_params_auto_T(capsys):
    assert cli.main(["params", "--L", "4", "--mu", "1", "--chi", "9", "--T", "auto"]) == 0
    out = capsys.readouterr().out
    assert "T = 7" in out
    assert "chi_eff = 2.0" in out


def test_cli_run_and_exit_codes(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "random_quadratic", "n": 4, "d": 3, "L": 10.0,
                        "mu": 1.0, "seed": 0},
            "topology": {"kind": "ring_star", "n": 4},
            "stop": {"budget": 5},
            "output": {"path": "run.csv"},
        },
    )
    assert cli.main(["run", config, "--output-dir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 5
    assert (tmp_path / "run.csv").exists()

    assert cli.main(["run", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_validate_gossip(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "random_quadratic", "n": 5, "d": 2, "L": 4.0,
                        "mu": 1.0, "seed": 0},
            "topology": {"kind": "ring_star", "n": 5},
            "stop": {"budget": 1},
        },
    )
    assert cli.main(["validate-gossip", config]) == 0
    out = capsys.readouterr().out
    assert "round 0" in out and "round 1" in out
    assert "contraction=True" in out


def test_cli_validate_gossip_without_topology_section(tmp_path, capsys):
    hard = _write_config(
        tmp_path,
        {
            "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                        "d_trunc": 40},
            "stop": {"budget": 1},
        },
        name="hard.json",
    )
    assert cli.main(["validate-gossip", hard]) == 0
    assert "kind=star_cycle n=9 cycle=3" in capsys.readouterr().out

    plain = _write_config(
        tmp_path,
        {
            "problem": {"kind": "random_quadratic", "n": 5, "d": 2, "L": 4.0,
                        "mu": 1.0, "seed": 0},
            "stop": {"budget": 1},
        },
        name="plain.json",
    )
    assert cli.main(["validate-gossip", plain]) == 1
    assert "topology section" in capsys.readouterr().err


def test_cli_lowerbound_certify(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                        "d_trunc": 40},
            "stop": {"budget": 20},
        },
    )
    curve = tmp_path / "curve.csv"
    code = cli.main(["lowerbound", config, "--certify", "--curve", str(curve)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certification: PASS" in out
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "q,exact,relaxed"
    assert len(lines) == 22  # header + q = 0..20


def test_cli_lowerbound_without_curve_skips_the_curve(tmp_path, capsys, monkeypatch):
    def no_curve(*args):
        raise AssertionError("computed the error-floor curve without --curve")

    monkeypatch.setattr(hardcase, "lower_bound_curve", no_curve)
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                        "d_trunc": 40},
            "stop": {"budget": 20},
        },
    )
    assert cli.main(["lowerbound", config, "--certify"]) == 0
    assert "certification: PASS" in capsys.readouterr().out


def test_cli_lowerbound_curve_bytes(tmp_path, capsys):
    # More rows than one write chunk; every row is rendered as the
    # one-row-at-a-time f-string rendering did.
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                        "d_trunc": 40},
            "algorithm": {"T": 25},
            "stop": {"budget": 100},
        },
    )
    curve = tmp_path / "curve.csv"
    assert cli.main(["lowerbound", config, "--curve", str(curve)]) == 0
    capsys.readouterr()
    exact, relaxed = hardcase.lower_bound_curve(9.0, 16.0, 1.0, 2500)
    want = "q,exact,relaxed\n" + "".join(
        f"{q},{float(e)!r},{float(r)!r}\n" for q, (e, r) in enumerate(zip(exact, relaxed))
    )
    assert curve.read_bytes() == want.encode()


def test_cli_lowerbound_creates_the_curve_directory(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                        "d_trunc": 40},
            "stop": {"budget": 20},
        },
    )
    curve = tmp_path / "missing" / "sub" / "curve.csv"
    code = cli.main(["lowerbound", config, "--certify", "--curve", str(curve)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certification: PASS" in out
    assert len(curve.read_text().splitlines()) == 22


def test_cli_validate_gossip_creates_the_export_directory(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "random_quadratic", "n": 5, "d": 2, "L": 4.0,
                        "mu": 1.0, "seed": 0},
            "topology": {"kind": "ring_star", "n": 5},
            "stop": {"budget": 1},
        },
    )
    export = tmp_path / "new" / "sub"
    assert cli.main(["validate-gossip", config, "--export-dir", str(export)]) == 0
    assert "round 1" in capsys.readouterr().out
    assert sorted(p.name for p in export.iterdir()) == [
        "gossip_round0.csv", "gossip_round1.csv"
    ]


def _old_curve_bytes(exact, relaxed):
    """The error-floor CSV as rendered row by row, every float by its repr."""
    rows = "".join(
        f"{q},{float(e)!r},{float(r)!r}\n" for q, (e, r) in enumerate(zip(exact, relaxed))
    )
    return ("q,exact,relaxed\n" + rows).encode()


def test_curve_rows_match_the_per_row_rendering(tmp_path):
    # Three shapes of the all-zero suffix: none (the exact column never
    # underflows here), from q = 1, and from q = 3793 of the 24,046 rows of
    # the chi 30, L/mu 100 curve the certified benchmark run writes.
    short = hardcase.lower_bound_curve(9.0, 16.0, 1.0, 100)
    assert short[0][-1] > 0
    spike = np.zeros(3000)
    spike[0] = 0.25
    long = hardcase.lower_bound_curve(30.0, 100.0, 1.0, 24045)
    assert np.flatnonzero(long[0])[-1] == 3792 and not long[1][1:].any()
    for exact, relaxed in (short, (spike, spike / 2), long):
        path = tmp_path / "curve.csv"
        cli._write_curve(path, exact, relaxed)
        assert path.read_bytes() == _old_curve_bytes(exact, relaxed)


def test_cli_sweep(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                        "d_trunc": 40},
            "stop": {"budget": 500, "target_eps": 1e-3, "metric": "stacked"},
        },
    )
    assert cli.main(["sweep", config, "--axis", "T", "--values", "1,2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("value,status")
    assert len(out) == 3
    assert cli.main(["sweep", config, "--axis", "T", "--values", "1.5,2.9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_prints_why_each_row_failed(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "synthetic_logistic", "n": 6, "m": 5, "d": 3,
                        "kappa": 10.0, "seed": 0},
            "topology": {"kind": "ring_star", "n": 6},
            "stop": {"budget": 5},
        },
    )
    # the generator, not config load, rejects a kappa that is not above 1
    assert cli.main(["sweep", config, "--axis", "kappa", "--values", "0.5,0.8"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["0.5,error,,,", "0.8,error,,,"]
    assert captured.err.splitlines() == [
        f"error: sweep value {v}: kappa must be finite and exceed 1, got {v}"
        for v in ("0.5", "0.8")
    ]


def test_cli_sweep_names_a_diverged_row(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "problem": {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                        "d_trunc": 40},
            "algorithm": {"param_overrides": {"gamma": 1e8, "delta": 1e8}},
            "stop": {"budget": 50},
        },
    )
    assert cli.main(["sweep", config, "--axis", "T", "--values", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["1,diverged,,,"]
    assert captured.err.startswith("diverged: sweep value 1: divergence at iteration")


def test_cli_sweep_with_a_bad_override_fails_before_any_row(tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setattr(experiments, "build_problem", _unreachable("build_problem"))
    config = _write_config(
        tmp_path,
        {
            "problem": _QUADRATIC,
            "topology": _RING_STAR,
            "algorithm": {"param_overrides": {"tau1": 2.0}},
            "stop": {"budget": 5},
        },
    )
    assert cli.main(["sweep", config, "--axis", "T", "--values", "1,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: override tau1=2.0 must be below 1\n"


def test_cli_sweep_with_a_missing_problem_key_fails_before_any_row(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(experiments, "build_problem", _unreachable("build_problem"))
    config = _write_config(
        tmp_path, {"problem": _UNSEEDED, "topology": _RING_STAR, "stop": {"budget": 5}}
    )
    assert cli.main(["sweep", config, "--axis", "T", "--values", "1,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: missing key for a random_quadratic problem: seed\n"


_LOGISTIC = {"kind": "synthetic_logistic", "n": 4, "m": 5, "d": 3, "seed": 0,
             "kappa": 10.0}


@pytest.mark.parametrize(
    "config, named",
    [
        ({"problem": _LOGISTIC, "topology": {**_RING_STAR, "radius": 0.3}},
         "unknown key for a ring_star topology: radius"),
        ({"problem": _QUADRATIC, "topology": _RING_STAR},
         "sweep axis 'kappa' is neither T nor a key of a random_quadratic problem"),
    ],
    ids=["topology_radius", "quadratic_kappa"],
)
def test_cli_kappa_sweep_with_a_bad_section_fails_before_any_row(
    tmp_path, capsys, monkeypatch, config, named
):
    monkeypatch.setattr(experiments, "build_problem", _unreachable("build_problem"))
    path = _write_config(tmp_path, {**config, "stop": {"budget": 5}})
    assert cli.main(["sweep", path, "--axis", "kappa", "--values", "10,100,1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


_HARD = {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0, "d_trunc": 40}


@pytest.mark.parametrize(
    "config, named",
    [
        ({"problem": {**_QUADRATIC, "n": 10}, "topology": {"kind": "ring_star", "n": 12}},
         "topology has n=12 nodes but the problem has n=10"),
        ({"problem": {**_HARD, "chi": 10.0}, "topology": {"kind": "ring_star", "n": 10}},
         "topology has n=10 nodes but the problem has n=9"),
        ({"problem": {**_HARD, "chi": 2.0}},
         "need chi >= 3 and chi finite, got chi=2.0"),
    ],
    ids=["quadratic_n", "hard_instance_n", "hard_instance_chi"],
)
def test_commands_reject_a_node_count_mismatch_at_load(tmp_path, capsys, monkeypatch,
                                                       config, named):
    # run, sweep and validate-gossip read a config the same way: before, a
    # mismatch failed run, failed each sweep row and passed validate-gossip
    monkeypatch.setattr(experiments, "build_problem", _unreachable("build_problem"))
    monkeypatch.setattr(experiments.topology, "build_mixing",
                        _unreachable("build_mixing"))
    obj = {**config, "stop": {"budget": 5}}
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        ExperimentConfig.from_dict(obj)
    path = _write_config(tmp_path, obj)
    for argv in (["run", path], ["sweep", path, "--axis", "T", "--values", "1,2"],
                 ["validate-gossip", path]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("section", ["problem", "topology"])
def test_non_string_kind_is_named_at_load(tmp_path, capsys, monkeypatch, section):
    monkeypatch.setattr(experiments, "build_problem", _unreachable("build_problem"))
    config = {"problem": _QUADRATIC, "topology": _RING_STAR, "stop": {"budget": 1}}
    kind = config[section]["kind"]
    config[section] = {**config[section], "kind": [kind]}
    assert cli.main(["run", _write_config(tmp_path, config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown {section} kind ['{kind}']; ")


def _failing_certificate(monkeypatch):
    certify_run = hardcase.certify_run

    def failing(*args, **kwargs):
        report = certify_run(*args, **kwargs)
        return dataclasses.replace(report, first_violation={"check": "injected"})

    monkeypatch.setattr(hardcase, "certify_run", failing)


_HARD = {"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0, "d_trunc": 40}


def test_cli_run_returns_2_on_a_failed_certificate(tmp_path, capsys, monkeypatch):
    _failing_certificate(monkeypatch)
    config = _write_config(
        tmp_path, {"problem": _HARD, "certify": True, "stop": {"budget": 10}}
    )
    assert cli.main(["run", config]) == 2
    assert json.loads(capsys.readouterr().out)["certified"] is False


def test_cli_lowerbound_needs_a_hard_instance(tmp_path, capsys):
    config = _write_config(
        tmp_path, {"problem": _QUADRATIC, "topology": _RING_STAR, "stop": {"budget": 1}}
    )
    assert cli.main(["lowerbound", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lowerbound needs a hard_instance problem\n"


def test_cli_lowerbound_prints_a_failed_certificate(tmp_path, capsys, monkeypatch):
    _failing_certificate(monkeypatch)
    config = _write_config(tmp_path, {"problem": _HARD, "stop": {"budget": 10}})
    assert cli.main(["lowerbound", config, "--certify"]) == 2
    out = capsys.readouterr().out
    _, violation = out.split("certification: FAIL\n")
    assert json.loads(violation) == {"check": "injected"}


def test_declared_chi_run_is_not_stopped_as_stalled():
    # The parameters come from the declared chi of 200, not the measured 6,
    # so the run contracts at the slower certified rate of the declared one;
    # a stall window sized from the measured chi stopped it at k = 10850
    # with its error still falling.
    config = ExperimentConfig(
        problem={"kind": "random_quadratic", "n": 6, "d": 3, "L": 10.0, "mu": 1.0, "seed": 3},
        topology={"kind": "ring_star", "n": 6},
        chi=200,
        target_eps=1e-5,
        stop_metric="stacked",
    )
    summary = experiments.run_experiment(config).summary
    assert summary["chi_used"] == 200.0 and summary["chi_measured"] < 7.0
    assert summary["stop_reason"] == "converged"
    assert summary["final_err_sq_stacked"] <= 1e-5


def _readme_block(language):
    """The first fenced ``language`` block of the README, without its fences."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(tmp_path, capsys, monkeypatch):
    exec(_readme_block("python"), {})
    last = capsys.readouterr().out.split()
    assert len(last) == 4 and int(last[0]) > 0
    config = ExperimentConfig.from_dict(json.loads(_readme_block("json")))
    assert config.T == "auto" and config.output_path == "run.csv"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(_readme_block("json"))
    assert cli.main(["params", "--L", "4", "--mu", "1", "--chi", "9", "--T", "auto"]) == 0
    assert cli.main(["validate-gossip", "config.json"]) == 0
