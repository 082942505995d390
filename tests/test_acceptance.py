"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion NN] name: PASS` line on success (visible with
`pytest -s`); a failed assertion marks the criterion FAIL. Shared heavy runs
are cached in module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from gossipopt import (
    blockvec,
    experiments,
    hardcase,
    objectives,
    solver,
    topology,
)


def _announce(num, name):
    print(f"[criterion {num:02d}] {name}: PASS")


def _acceptance_schedules():
    return [
        topology.ring_star_schedule(4),
        topology.ring_star_schedule(9),
        topology.ring_star_schedule(100),
        topology.random_geometric_schedule(4, 0.7, 10, 7),
        topology.random_geometric_schedule(9, 0.6, 25, 7),
        topology.random_geometric_schedule(100, 0.3, 50, 7),
        topology.star_cycle_schedule(9),  # the only n in {4, 9, 100} with n % 3 == 0
    ]


def test_criterion_01_gossip_axioms():
    rng = np.random.default_rng(100)
    for sched in _acceptance_schedules():
        mixing = topology.build_mixing(sched)
        bound = 1.0 - 1.0 / mixing.chi
        assert mixing.chi >= 1.0
        for q in range(100):
            w = mixing.w(q)
            assert np.abs(w @ np.ones(sched.n)).max() <= 1e-12
            assert np.abs(np.ones(sched.n) @ w).max() <= 1e-12
            x = rng.standard_normal((50, sched.n))
            x -= x.mean(axis=1, keepdims=True)
            diff = x @ w.T - x
            ratios = (diff**2).sum(axis=1) / (x**2).sum(axis=1)
            assert ratios.max() <= bound
    _announce(1, "gossip axioms on all schedule kinds")


def test_criterion_02_multi_consensus_halving():
    rng = np.random.default_rng(200)
    for sched in (
        topology.ring_star_schedule(10),
        topology.star_cycle_schedule(9),
        topology.random_geometric_schedule(20, 0.45, 20, 3),
    ):
        mixing = topology.build_mixing(sched)
        T = math.ceil(mixing.chi * math.log(2.0))
        for k in range(20):
            x = rng.standard_normal((sched.n, 50))
            x -= x.mean(axis=0)  # 50 independent zero-block-sum vectors
            out = blockvec.multi_mix(mixing, k, T, x)
            diff = out - x
            ratios = (diff**2).sum(axis=0) / (x**2).sum(axis=0)
            assert ratios.max() <= 0.5
    _announce(2, "T = ceil(chi ln 2) halves disagreement")


def test_criterion_03_saddle_point_fixed():
    cases = [
        (
            objectives.gen_random_quadratic(5, 4, L=20.0, mu=2.0, seed=11),
            topology.ring_star_schedule(5),
        ),
        (
            objectives.gen_synthetic_logistic(6, 20, 8, seed=2, kappa=10.0),
            topology.ring_star_schedule(6),
        ),
    ]
    for obj, sched in cases:
        mixing = topology.build_mixing(sched)
        params = solver.derive_params(obj.L, obj.mu, mixing.chi)
        ref = solver.make_reference(obj, params.nu)
        state = solver.saddle_state(ref)
        for _ in range(100):
            state = solver.step(state, params, obj, mixing)
        for current, target in (
            (state.x, ref.x),
            (state.y, ref.y),
            (state.z, ref.z),
        ):
            rel = np.linalg.norm(current - target) / (1 + np.linalg.norm(target))
            assert rel <= 1e-9
        assert np.linalg.norm(blockvec.project_consensus(state.m)) <= 1e-9
    _announce(3, "saddle point invariant over 100 steps")


def test_criterion_04_lyapunov_certification():
    obj = objectives.gen_random_quadratic(9, 10, L=100.0, mu=1.0, seed=4)
    mixing = topology.build_mixing(topology.star_cycle_schedule(9))
    chi = mixing.chi
    params = solver.derive_params(obj.L, obj.mu, chi)
    ref = solver.make_reference(obj, params.nu)
    result = solver.run(
        obj, mixing, T=1, budget=2000, params=params, reference=ref,
        track_lyapunov=True,
    )
    psis = np.array([r.psi_x + r.psi_yz for r in result.records])
    assert bool(np.all(psis[1:] <= psis[:-1]))
    rate = 1.0 - math.sqrt(obj.mu) / (32.0 * chi * math.sqrt(obj.L))
    for k in range(0, len(psis) - 100, 100):
        window_factor = (psis[k + 100] / psis[k]) ** (1.0 / 100.0)
        assert window_factor <= rate + 1e-6
    _announce(4, "potential non-increasing with certified decay rate")


@pytest.fixture(scope="module")
def logistic_runs():
    """Shared by criteria 5 and 6: runs to 1e-9 relative stacked error."""
    sched = topology.random_geometric_schedule(10, 0.8, pool_size=10, seed=5)
    mixing = topology.build_mixing(sched)
    out = {"chi": mixing.chi}
    for kappa in (1000.0, 4000.0):
        obj = objectives.gen_synthetic_logistic(10, 30, 20, seed=1, kappa=kappa)
        params = solver.derive_params(obj.L, obj.mu, mixing.chi)
        ref = solver.make_reference(obj, params.nu)
        x_star_sq = float(np.vdot(ref.x, ref.x))
        eps = 1e-9 * x_star_sq
        psi0 = solver.lyapunov(
            solver.init_state(obj.n, obj.d), params, obj, ref
        ).total
        result = solver.run(
            obj, mixing, T=1, budget=2_000_000, target_eps=eps, params=params,
            reference=ref, stop_metric="stacked", track_lyapunov=False,
        )
        out[kappa] = {
            "iterations": result.records[-1].k,
            "final_rel": result.records[-1].err_sq_stacked / x_star_sq,
            "C": params.eta * psi0,
            "eps": eps,
        }
    return out


def test_criterion_05_convergence_within_proof_budget(logistic_runs):
    chi = logistic_runs["chi"]
    assert chi <= 20.0
    data = logistic_runs[1000.0]
    budget = math.ceil(32.0 * chi * math.sqrt(1000.0) * math.log(data["C"] / data["eps"]))
    assert data["final_rel"] <= 1e-9
    assert data["iterations"] <= budget
    _announce(5, f"reached 1e-9 in {data['iterations']} <= budget {budget}")


def test_criterion_06_kappa_scaling(logistic_runs):
    ratio = logistic_runs[4000.0]["iterations"] / logistic_runs[1000.0]["iterations"]
    assert 1.5 <= ratio <= 2.8
    _announce(6, f"iteration ratio {ratio:.3f} for kappa 4000 vs 1000")


def test_criterion_07_chi_robust_with_multi_consensus():
    iters = []
    comms = []
    for chi in (3.0, 9.0, 30.0):
        inst = hardcase.build_hard_instance(chi, 100.0, 1.0, 120)
        mixing = topology.build_mixing(inst.schedule)
        T = math.ceil(mixing.chi * math.log(2.0))
        chi_eff = solver.effective_chi(mixing.chi, T)
        params = solver.derive_params(inst.L, inst.mu, chi_eff)
        ref = solver.make_reference(inst.objectives, params.nu)
        eps = 1e-6 * float(np.vdot(ref.x, ref.x))
        result = solver.run(
            inst.objectives, mixing, T=T, budget=3_000_000, target_eps=eps,
            params=params, reference=ref, stop_metric="stacked",
            track_lyapunov=False,
        )
        k = result.records[-1].k
        assert result.records[-1].err_sq_stacked <= eps
        iters.append(k)
        comms.append(k * T)
    assert max(iters) / min(iters) <= 2.0
    assert comms[0] < comms[1] < comms[2]
    _announce(7, f"iterations {iters} within 2x; comm rounds {comms} grow with chi")


def test_criterion_08_hard_instance_solution():
    assert abs(hardcase.hard_rho(11.0, 2.0) - 1.0 / 3.0) <= 1e-15
    inst = hardcase.build_hard_instance(30.0, 100.0, 1.0, 200)
    x_ref = objectives.reference_minimizer(inst.objectives)
    closed = inst.solution()
    assert np.abs(x_ref[:50] - closed[:50]).max() <= 1e-6
    _announce(8, "reference solver matches the closed-form geometric solution")


def test_criterion_09_lower_bound_certification():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 150)
    mixing = topology.build_mixing(inst.schedule)
    params = solver.derive_params(inst.L, inst.mu, mixing.chi)
    ref = solver.make_reference(inst.objectives, params.nu)
    result = solver.run(
        inst.objectives, mixing, T=1, budget=200, params=params, reference=ref,
        collect_trace=True, track_lyapunov=False,
    )
    report = hardcase.certify_run(inst, result.trace, T=1)
    assert report.passed
    assert all(report.support_ok)
    assert all(report.distance_ok)

    rng = np.random.default_rng(0)
    for _ in range(1000):
        tracker = hardcase.SpanTracker.fresh(inst.n)
        for op in rng.integers(0, 2, size=50):
            tracker = (
                tracker.after_compute() if op == 0 else tracker.after_communicate()
            )
            bound = hardcase.span_ceiling(tracker)
            assert all(s <= b for s, b in zip(tracker.s, bound))
    _announce(9, "certifier passes the solver run and the span ceiling holds")


def test_criterion_10_byte_identical_outputs(tmp_path):
    config = experiments.ExperimentConfig.from_dict(
        {
            "problem": {
                "kind": "synthetic_logistic",
                "n": 5,
                "m": 10,
                "d": 6,
                "kappa": 100.0,
                "seed": 9,
            },
            "topology": {"kind": "random_geometric", "n": 5, "radius": 0.7,
                         "pool_size": 5, "seed": 2},
            "stop": {"budget": 60},
            "output": {"path": "determinism.csv"},
        }
    )
    experiments.run_experiment(config, output_dir=str(tmp_path / "first"))
    experiments.run_experiment(config, output_dir=str(tmp_path / "second"))
    first = (tmp_path / "first" / "determinism.csv").read_bytes()
    second = (tmp_path / "second" / "determinism.csv").read_bytes()
    assert first == second
    assert first.decode().splitlines()[0] == experiments.CSV_HEADER
    _announce(10, "repeated runs emit byte-identical CSV")
