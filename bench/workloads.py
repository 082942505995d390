"""The benchmark's workloads: configs generated from a seed, and the
correctness gate applied to the outputs of every run.

Each workload is one ``gossipopt`` command line over one generated JSON
config. ``make(name, seed, size)`` builds it; ``Workload.check`` reads what
the command printed and wrote and returns the counts, the record-stream
hash and the list of gate failures (empty when the run is correct).

Seeds: each random input seed (the problem's, and the sweep's topology
pool) is its acceptance-suite value plus ``seed``, so ``--seed 0``
reproduces the acceptance-suite inputs. The logistic run keeps its topology
seed, because chi and with it the iteration count move with the pool.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from gossipopt import hardcase, objectives, solver, topology

RECORD_FIELDS = (
    "k",
    "comm_rounds",
    "grad_calls",
    "err_sq_stacked",
    "err_sq_mean_block",
    "psi_x",
    "psi_yz",
)
RECORD_HEADER = ",".join(RECORD_FIELDS)


@dataclass
class Outcome:
    """What the gate found in one run's outputs."""

    failures: list = field(default_factory=list)
    iterations: int = 0
    comm_rounds: int = 0
    grad_calls: int = 0
    sha256: str = ""


@dataclass
class Workload:
    """One command line over one generated config, plus what to expect.

    ``gate(workload, stdout, workdir, outcome)`` checks one run's outputs
    and appends what it finds wrong to ``outcome.failures``.
    """

    name: str
    command: str
    config: dict
    options: list
    streams: list
    expect: dict
    gate: object
    curve: str | None = None

    def argv(self, workdir):
        """CLI arguments; every file lives in ``workdir``."""
        curve = ["--curve", str(workdir / self.curve)] if self.curve else []
        return [self.command, str(workdir / "config.json"), *self.options, *curve,
                "--output-dir", str(workdir)]

    def outputs(self, workdir):
        """Every file a run writes, so stale ones can be removed first."""
        return [workdir / name for name in self.streams + [self.curve] if name]

    def write_config(self, workdir):
        (workdir / "config.json").write_text(json.dumps(self.config, indent=2))

    def check(self, code, stdout, workdir):
        out = Outcome()
        if code != 0:
            out.failures.append(f"exit code {code}")
        try:
            self.gate(self, stdout, workdir, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out.failures.append(f"unreadable output: {exc!r}")
        return out


def _summary(stdout):
    """The run summary: the JSON object the run/lowerbound commands print first."""
    obj, _ = json.JSONDecoder().raw_decode(stdout.lstrip())
    return obj


def _check_streams(wl, workdir, T, out, monotone):
    """Count identities, potential monotonicity and the hash of every stream."""
    digest = hashlib.sha256()
    for name in wl.streams:
        raw = (workdir / name).read_bytes()
        digest.update(raw)
        header, _, body = raw.decode().partition("\n")
        if header != RECORD_HEADER:
            out.failures.append(f"{name}: header {header!r}")
            continue
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        cols = dict(zip(RECORD_FIELDS, rows.T))
        k = np.arange(rows.shape[0], dtype=float)
        if not np.array_equal(cols["k"], k):
            out.failures.append(f"{name}: k is not 0, 1, 2, ...")
        if not np.array_equal(cols["comm_rounds"], k * T):
            out.failures.append(f"{name}: comm_rounds != k*T with T={T}")
        if not np.array_equal(cols["grad_calls"], k):
            out.failures.append(f"{name}: grad_calls != k")
        if monotone:
            psi = cols["psi_x"] + cols["psi_yz"]
            rises = np.flatnonzero(psi[1:] > psi[:-1])
            if rises.size:
                out.failures.append(f"{name}: psi_x + psi_yz rises at k={rises[0] + 1}")
        last = rows[-1]
        out.iterations += int(last[0])
        out.comm_rounds += int(last[1])
        out.grad_calls += int(last[2])
    out.sha256 = digest.hexdigest()


def _check_logistic(wl, stdout, workdir, out):
    s = _summary(stdout)
    if not s["converged"]:
        out.failures.append("did not converge")
    if s["iterations"] > wl.expect["proof_budget"]:
        out.failures.append(
            f"{s['iterations']} iterations exceed the proof budget "
            f"{wl.expect['proof_budget']}"
        )
    _check_streams(wl, workdir, s["T"], out, monotone=True)


def _check_hard(wl, stdout, workdir, out):
    s = _summary(stdout)
    if not s["converged"]:
        out.failures.append("did not converge")
    if s.get("certified") is not True or "certification: PASS" not in stdout:
        out.failures.append("certificate did not pass")
    if s["T"] != wl.expect["T"]:
        out.failures.append(f"T={s['T']}, expected {wl.expect['T']}")
    curve_rows = (workdir / wl.curve).read_text().count("\n") - 1
    if curve_rows != s["comm_rounds"] + 1:
        out.failures.append(f"error-floor curve has {curve_rows} rows")
    _check_streams(wl, workdir, s["T"], out, monotone=True)


def _check_ring(wl, stdout, workdir, out):
    s = _summary(stdout)
    if s["T"] != wl.expect["T"]:
        out.failures.append(f"T={s['T']}, expected {wl.expect['T']}")
    if s["iterations"] != wl.config["stop"]["budget"]:
        out.failures.append(f"stopped after {s['iterations']} iterations")
    _check_streams(wl, workdir, s["T"], out, monotone=True)


def _check_sweep(wl, stdout, workdir, out):
    lines = stdout.strip().splitlines()
    if lines[0] != "value,status,iterations_to_eps,comm_rounds_to_eps,grad_calls_to_eps":
        out.failures.append(f"sweep header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(wl.expect["values"]):
        out.failures.append(f"{len(rows)} sweep rows for {len(wl.expect['values'])} values")
    for row in rows:
        if row[1] != "ok":
            out.failures.append(f"sweep row {row[0]} has status {row[1]}")
    _check_streams(wl, workdir, wl.config["algorithm"]["T"], out, monotone=False)


def _logistic_t1(seed, size):
    """Criterion-5 setup run to 1e-9 relative stacked error, T = 1."""
    if size == "full":
        n, m, d, kappa, rel = 10, 30, 20, 1000.0, 1e-9
    else:
        n, m, d, kappa, rel = 6, 10, 5, 30.0, 1e-6
    problem = {"kind": "synthetic_logistic", "n": n, "m": m, "d": d,
               "kappa": kappa, "seed": 1 + seed}
    topo = {"kind": "random_geometric", "n": n, "radius": 0.8,
            "pool_size": 10, "seed": 5}
    # The absolute target and the proof budget of criterion 5 follow from the
    # reference solution; both are computed here, outside every timed run.
    obj = objectives.gen_synthetic_logistic(n, m, d, problem["seed"], kappa)
    mixing = topology.build_mixing(topology.make_schedule(**topo))
    params = solver.derive_params(obj.L, obj.mu, mixing.chi)
    ref = solver.make_reference(obj, params.nu)
    eps = rel * float(np.vdot(ref.x, ref.x))
    psi0 = solver.lyapunov(solver.init_state(n, d), params, obj, ref).total
    budget = math.ceil(
        32.0 * mixing.chi * math.sqrt(kappa) * math.log(params.eta * psi0 / eps)
    )
    config = {
        "problem": problem,
        "topology": topo,
        "algorithm": {"T": 1},
        "stop": {"budget": budget, "target_eps": eps, "metric": "stacked"},
        "output": {"path": "logistic_t1.csv", "format": "csv", "record_lyapunov": True},
    }
    return Workload("logistic_t1", "run", config, [], ["logistic_t1.csv"],
                    {"proof_budget": budget}, _check_logistic)


def _hard_certify(seed, size):
    """Certified worst-case run at T = auto to 1e-6 relative stacked error.

    The hard instance has no random part, so the seed does not change it.
    """
    chi, L, mu, d_trunc, rel, cap = (
        (30.0, 100.0, 1.0, 120, 1e-6, 2500) if size == "full" else (9.0, 100.0, 1.0, 120, 1e-3, 500)
    )
    n = 3 * int(chi // 3)
    x_star = hardcase.hard_solution(L, mu, d_trunc)
    eps = rel * n * float(x_star @ x_star)
    config = {
        "problem": {"kind": "hard_instance", "chi": chi, "L": L, "mu": mu,
                    "d_trunc": d_trunc},
        "algorithm": {"T": "auto"},
        "stop": {"budget": cap, "target_eps": eps, "metric": "stacked"},
        "certify": True,
        "output": {"path": "hard_certify.csv", "format": "csv", "record_lyapunov": True},
    }
    # Every star of the cycle has Laplacian condition number n.
    T = math.ceil(n * math.log(2.0))
    return Workload("hard_certify", "lowerbound", config, ["--certify"],
                    ["hard_certify.csv"], {"T": T}, _check_hard,
                    curve="hard_certify_curve.csv")


def _ring_star_auto(seed, size):
    """Ring/star alternation at T = auto for a fixed iteration budget."""
    n, d, budget = (100, 20, 150) if size == "full" else (10, 5, 10)
    config = {
        "problem": {"kind": "random_quadratic", "n": n, "d": d, "L": 100.0,
                    "mu": 1.0, "seed": 3 + seed},
        "topology": {"kind": "ring_star", "n": n},
        "algorithm": {"T": "auto"},
        "stop": {"budget": budget},
        "output": {"path": "ring_star_auto.csv", "format": "csv", "record_lyapunov": True},
    }
    chi = topology.build_mixing(topology.ring_star_schedule(n)).chi
    T = solver.consensus_rounds(chi)
    return Workload("ring_star_auto", "run", config, [], ["ring_star_auto.csv"],
                    {"T": T}, _check_ring)


def _sweep_rgg(seed, size):
    """Kappa sweep of T = 1 logistic runs over a random-geometric pool."""
    if size == "full":
        n, m, d, pool, radius, budget = 200, 30, 20, 50, 0.2, 300
        values = ["10", "100", "1000"]
    else:
        n, m, d, pool, radius, budget = 10, 10, 5, 5, 0.5, 20
        values = ["10", "100"]
    config = {
        "problem": {"kind": "synthetic_logistic", "n": n, "m": m, "d": d,
                    "kappa": 10.0, "seed": 1 + seed},
        "topology": {"kind": "random_geometric", "n": n, "radius": radius,
                     "pool_size": pool, "seed": 7 + seed},
        "algorithm": {"T": 1},
        "stop": {"budget": budget},
        "output": {"path": "sweep_rgg.csv", "format": "csv"},
    }
    streams = [f"sweep_rgg_kappa{float(v)}.csv" for v in values]
    return Workload("sweep_rgg", "sweep", config,
                    ["--axis", "kappa", "--values", ",".join(values)],
                    streams, {"values": values}, _check_sweep)


_MAKERS = {
    "logistic_t1": _logistic_t1,
    "hard_certify": _hard_certify,
    "ring_star_auto": _ring_star_auto,
    "sweep_rgg": _sweep_rgg,
}
NAMES = tuple(_MAKERS)


def make(name, seed, size="full"):
    """Generate workload ``name`` from ``seed`` at ``size`` ('full' or 'tiny')."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return _MAKERS[name](seed, size)
