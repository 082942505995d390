"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

1. Runs every workload at the tiny size in both modes and asserts that the
   last output line has exactly the contract's keys, that the run is
   correct, and that every declared metric is printed with its unit.
2. Breaks the program's output on purpose (a failed certificate, a broken
   count identity, a rising potential) and asserts that every run is then
   counted as failed.
3. Asserts that the benchmark refuses to run, with a nonzero exit code and
   no result line, where ``src/`` is missing.

Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(*args, cwd=ROOT, script=ROOT / "bench" / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_contract_output():
    for wl in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = _bench("--workload", wl, "--seed", "0", "--seconds", "0.2",
                          "--trace", trace, "--size", "tiny")
            assert proc.returncode == 0, (wl, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0, (wl, trace, proc.stdout)
            assert result["attempted"] >= 1
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in declared}, (wl, trace)
            print(f"ok: {wl} trace={trace} prints {len(printed)} metrics")


def _broken_certificate(certify_run):
    def broken(*args, **kwargs):
        report = certify_run(*args, **kwargs)
        return dataclasses.replace(report, first_violation={"check": "injected"})
    return broken


def _broken_records(emit, field, shift):
    """emit() whose last record has ``field`` shifted by ``shift``."""
    def broken(records, *args, **kwargs):
        last = records[-1]
        changed = dataclasses.replace(last, **{field: getattr(last, field) + shift})
        return emit(records[:-1] + [changed], *args, **kwargs)
    return broken


def check_faults_counted():
    run.import_program()
    import harness
    import tracing
    import workloads
    from gossipopt import experiments, hardcase

    faults = (
        ("hard_certify", hardcase, "certify_run", _broken_certificate, "certificate"),
        ("logistic_t1", experiments, "emit",
         lambda emit: _broken_records(emit, "comm_rounds", 1), "comm_rounds != k*T"),
        ("ring_star_auto", experiments, "emit",
         lambda emit: _broken_records(emit, "psi_x", 1e3), "psi_x + psi_yz rises"),
    )
    for name, owner, attr, breaker, expected in faults:
        wl = workloads.make(name, 0, "tiny")
        workdir = ROOT / ".bench_work" / f"smoke-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        with tracing.patched([(owner, attr, breaker(owner.__dict__[attr]))]):
            _, runs, _ = harness.measure(wl, wl, workdir, 0.0, trace=False)
        assert runs and all(r.outcome.failures for r in runs), name
        assert all(any(expected in f for f in r.outcome.failures) for r in runs), (
            name, runs[0].outcome.failures)
        print(f"ok: broken {name} output counted as failed in {len(runs)}/{len(runs)} runs")


def check_refuses_without_program():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                  "--seconds", "1", "--trace", "0", cwd=bare,
                  script=bare / "bench" / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    shutil.rmtree(bare)
    print("ok: refuses to run without src/")


if __name__ == "__main__":
    check_contract_output()
    check_faults_counted()
    check_refuses_without_program()
    print("smoke check passed")
