import dataclasses
import math
import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossipopt import blockvec, experiments, hardcase, objectives, solver, topology


def _transcribed_step(state, p, obj, mixing, T=1):
    """Straight-line transcription of the update rules, solving the coupled
    x/y pair by 2x2 matrix elimination per scalar coordinate."""
    x, y, z, m = state.x, state.y, state.z, state.m
    x_g = p.tau1 * x + (1 - p.tau1) * state.x_f
    y_g = p.sigma1 * y + (1 - p.sigma1) * state.y_f
    z_g = p.sigma1 * z + (1 - p.sigma1) * state.z_f
    g = obj.grad(x_g) - p.nu * x_g

    system = np.array(
        [[1 + p.eta * p.alpha, -p.eta], [p.theta, 1 + p.theta * p.beta]]
    )
    rhs_x = x + p.eta * p.alpha * x_g - p.eta * g
    rhs_y = y + p.theta * p.beta * g - p.theta * (y_g + z_g) / p.nu
    x1 = np.empty_like(x)
    y1 = np.empty_like(y)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            x1[i, j], y1[i, j] = np.linalg.solve(
                system, np.array([rhs_x[i, j], rhs_y[i, j]])
            )

    s = y_g + z_g
    payload = (p.gamma / p.nu) * s + m
    mixed_payload = blockvec.multi_mix(mixing, state.k, T, payload)
    mixed_s = blockvec.multi_mix(mixing, state.k, T, s)
    return solver.State(state.k + 1, np.array([
        x1,
        y1,
        z + p.gamma * p.delta * (z_g - z) - mixed_payload,
        payload - mixed_payload,
        x_g + p.tau2 * (x1 - x),
        y_g + p.sigma2 * (y1 - y),
        z_g - p.zeta * mixed_s,
    ]))


def _random_state(n, d, seed, k=0):
    rng = np.random.default_rng(seed)
    return solver.State(k, np.array([
        rng.standard_normal((n, d)),
        rng.standard_normal((n, d)),
        blockvec.project_consensus(rng.standard_normal((n, d))),
        rng.standard_normal((n, d)),
        rng.standard_normal((n, d)),
        rng.standard_normal((n, d)),
        blockvec.project_consensus(rng.standard_normal((n, d))),
    ]))


def test_derive_params_frozen_example():
    p = solver.derive_params(4.0, 1.0, 1.0)
    assert p.tau2 == 0.5
    assert abs(p.tau1 - 0.4) < 1e-15
    assert p.eta == 0.5
    assert p.alpha == 0.5
    assert p.nu == 0.5
    assert p.beta == 0.125
    assert p.sigma2 == 1.0 / 32.0
    assert abs(p.sigma1 - 2.0 / 65.0) < 1e-15
    assert p.theta == 4.0
    assert abs(p.gamma - 8.0 / 7.0) < 1e-15
    assert abs(p.delta - 1.0 / 68.0) < 1e-18
    assert p.zeta == 0.5


def test_derive_params_rejects_bad_constants():
    with pytest.raises(ValueError):
        solver.derive_params(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        solver.derive_params(0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        solver.derive_params(4.0, 1.0, 0.5)
    # barely smooth-dominant constants remain accepted
    solver.derive_params(1.0 + 1e-9, 1.0, 2.0)


def test_param_scaling_when_chi_doubles():
    # re-evaluating the closed forms: sigma2 halves and gamma halves
    # (gamma ~ nu / (sigma2 chi^2) with sigma2 ~ 1/chi gives gamma ~ 1/chi)
    a = solver.derive_params(4.0, 1.0, 5.0)
    b = solver.derive_params(4.0, 1.0, 10.0)
    assert abs(b.sigma2 / a.sigma2 - 0.5) < 1e-12
    assert abs(b.gamma / a.gamma - 0.5) < 1e-12


def test_param_invariants():
    for L, mu, chi in [(4.0, 1.0, 1.0), (100.0, 1.0, 9.0), (7.0, 0.2, 123.4)]:
        p = solver.derive_params(L, mu, chi)
        assert p.nu < mu
        assert 0 < p.tau1 < 1
        assert 0 < p.sigma1 < 1
        assert p.tau2 == math.sqrt(mu / L)
        assert abs(p.eta - 1.0 / (L * p.tau2)) < 1e-15


def test_param_override():
    p = solver.derive_params(4.0, 1.0, 2.0)
    q = dataclasses.replace(p, gamma=0.25)
    assert q.gamma == 0.25 and q.tau1 == p.tau1
    with pytest.raises(ValueError):
        solver.check_overrides({"gamma": -1.0})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_override_is_rejected(value):
    with pytest.raises(ValueError, match=f"^override gamma={value} must be finite$"):
        solver.check_overrides({"gamma": value})
    with pytest.raises(ValueError, match=f"^override nu={value} must be finite$"):
        solver.check_overrides({"nu": value}, mu=math.inf)
    with pytest.raises(ValueError, match="must be finite"):
        solver.check_overrides({"delta": value})


@pytest.mark.parametrize("name", ["tau1", "sigma1"])
@pytest.mark.parametrize("value", [1.0, 3.0, 0.0])
def test_param_override_keeps_interpolation_weights_in_unit_interval(name, value):
    with pytest.raises(ValueError, match=name):
        solver.check_overrides({name: value})
    solver.check_overrides({name: 0.5})


def test_effective_chi():
    assert solver.effective_chi(7.0, 1) == 7.0
    # T = ceil(chi ln 2) drives the contraction to 1/2 or better
    for chi in (2.0, 3.0, 9.0, 30.0):
        T = solver.consensus_rounds(chi)
        assert (1 - 1 / chi) ** T <= 0.5
        assert solver.effective_chi(chi, T) == 2.0
    # intermediate T: exact compound condition number
    val = solver.effective_chi(10.0, 2)
    assert abs(val - 1.0 / (1.0 - 0.9**2)) < 1e-12


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_saddle_point_is_fixed(kind):
    if kind == "quadratic":
        obj = objectives.gen_random_quadratic(5, 4, L=20.0, mu=2.0, seed=11)
        mixing = topology.build_mixing(topology.ring_star_schedule(5))
    else:
        obj = objectives.gen_synthetic_logistic(6, 20, 8, seed=2, kappa=10.0)
        mixing = topology.build_mixing(topology.ring_star_schedule(6))
    params = solver.derive_params(obj.L, obj.mu, mixing.chi)
    ref = solver.make_reference(obj, params.nu)
    state = solver.saddle_state(ref)
    for _ in range(100):
        state = solver.step(state, params, obj, mixing)
    for current, target in ((state.x, ref.x), (state.y, ref.y), (state.z, ref.z),
                            (state.x_f, ref.x), (state.y_f, ref.y), (state.z_f, ref.z)):
        rel = np.linalg.norm(current - target) / (1 + np.linalg.norm(target))
        assert rel <= 1e-9
    # the buffer's consensus component drifts freely but is invisible to the
    # dynamics; its zero-sum part must stay at rounding scale
    assert np.linalg.norm(blockvec.project_consensus(state.m)) <= 1e-9


@given(
    n=st.integers(3, 8),
    d=st.integers(2, 5),
    kappa=st.floats(1.5, 30.0),
    T=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40)
def test_saddle_point_is_fixed_on_random_quadratics(n, d, kappa, T, seed):
    obj = objectives.gen_random_quadratic(n, d, L=kappa, mu=1.0, seed=seed)
    mixing = topology.build_mixing(topology.ring_star_schedule(n))
    params = solver.derive_params(obj.L, obj.mu, solver.effective_chi(mixing.chi, T))
    ref = solver.make_reference(obj, params.nu)
    state = solver.saddle_state(ref)
    for _ in range(10):
        state = solver.step(state, params, obj, mixing, T=T)
        for current, target in ((state.x, ref.x), (state.y, ref.y),
                                (state.z, ref.z), (state.x_f, ref.x),
                                (state.y_f, ref.y), (state.z_f, ref.z)):
            rel = np.linalg.norm(current - target) / (1 + np.linalg.norm(target))
            assert rel <= 1e-9
        assert np.linalg.norm(blockvec.project_consensus(state.m)) <= 1e-9


def test_step_matches_transcription_2node_scalar():
    obj = objectives.QuadraticObjectives(
        np.array([[[2.0]], [[3.0]]]), np.array([[1.0], [-0.5]]), L=3.0, mu=2.0
    )
    mixing = topology.build_mixing(
        topology.TopologySchedule(n=2, kind="path", pool=(((0, 1),),))
    )
    params = solver.Params(
        tau1=0.3, tau2=0.6, eta=0.8, alpha=0.9, nu=1.1, beta=0.2,
        sigma1=0.25, sigma2=0.05, theta=2.5, gamma=0.7, delta=0.04,
        zeta=0.5,
    )
    state = _random_state(2, 1, seed=3)
    got = solver.step(state, params, obj, mixing)
    want = _transcribed_step(state, params, obj, mixing)
    for name in ("x", "y", "z", "m", "x_f", "y_f", "z_f"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-12


def test_step_matches_transcription_multiconsensus():
    obj = objectives.gen_random_quadratic(5, 4, L=8.0, mu=1.0, seed=9)
    mixing = topology.build_mixing(topology.ring_star_schedule(5))
    params = solver.derive_params(8.0, 1.0, mixing.chi)
    state = _random_state(5, 4, seed=4, k=3)
    got = solver.step(state, params, obj, mixing, T=3)
    want = _transcribed_step(state, params, obj, mixing, T=3)
    for name in ("x", "y", "z", "m", "x_f", "y_f", "z_f"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-11


def test_z_stays_in_zero_sum_subspace_over_long_run():
    obj = objectives.gen_random_quadratic(4, 3, L=10.0, mu=1.0, seed=0)
    mixing = topology.build_mixing(topology.ring_star_schedule(4))
    params = solver.derive_params(obj.L, obj.mu, mixing.chi)
    state = solver.init_state(4, 3)
    for _ in range(10_000):
        state = solver.step(state, params, obj, mixing)
        znorm = np.linalg.norm(state.z)
        assert np.linalg.norm(state.z.sum(axis=0)) <= 1e-8 * (1 + znorm)
        assert np.linalg.norm(state.z_f.sum(axis=0)) <= 1e-8 * (
            1 + np.linalg.norm(state.z_f)
        )


@pytest.fixture(scope="module")
def small_run():
    obj = objectives.gen_random_quadratic(4, 3, L=10.0, mu=1.0, seed=0)
    mixing = topology.build_mixing(topology.ring_star_schedule(4))
    params = solver.derive_params(obj.L, obj.mu, mixing.chi)
    ref = solver.make_reference(obj, params.nu)
    result = solver.run(
        obj, mixing, T=1, budget=1500, params=params, reference=ref,
        stop_metric="stacked",
    )
    return obj, mixing, params, ref, result


def test_lyapunov_zero_at_saddle(small_run):
    obj, _, params, ref, _ = small_run
    report = solver.lyapunov(solver.saddle_state(ref), params, obj, ref)
    scale = 1 + float(np.vdot(ref.x, ref.x))
    assert abs(report.total) <= 1e-15 * scale
    for value in report.components.values():
        assert value >= -1e-15 * scale


def test_lyapunov_perturbation_formula(small_run):
    obj, _, params, ref, _ = small_run
    state = solver.saddle_state(ref)
    bump = np.zeros_like(ref.x)
    bump[1, 0] = 1.0
    state.x = ref.x + bump
    state.x_f = ref.x + bump
    report = solver.lyapunov(state, params, obj, ref)
    d_f = (
        obj.value(state.x_f)
        - obj.value(ref.x)
        - float(np.vdot(obj.grad(ref.x), bump))
    )
    expected = (1 / params.eta + params.alpha) + (2 / params.tau2) * (
        d_f - params.nu / 2
    )
    assert abs(report.psi_x - expected) <= 1e-10 * (1 + abs(expected))


def test_lyapunov_components_nonnegative_on_random_states(small_run):
    obj, _, params, ref, _ = small_run
    for seed in range(5):
        state = _random_state(obj.n, obj.d, seed=seed)
        report = solver.lyapunov(state, params, obj, ref)
        for name, value in report.components.items():
            assert value >= -1e-12, name


def test_error_extraction_inequality(small_run):
    obj, _, params, ref, result = small_run
    for rec in result.records[::100]:
        assert rec.err_sq_stacked <= params.eta * rec.psi_x * (1 + 1e-9) + 1e-15


def test_lyapunov_decreases_at_theoretical_rate(small_run):
    obj, mixing, params, _, result = small_run
    rate = 1 - math.sqrt(obj.mu) / (32 * mixing.chi * math.sqrt(obj.L))
    psis = [r.psi_x + r.psi_yz for r in result.records]
    for k in range(len(psis) - 1):
        assert psis[k + 1] <= psis[k] * rate + 1e-12 * psis[0]


@st.composite
def _contraction_cases(draw):
    """A random problem of either kind on one of the three topology kinds,
    T = 1 or T = consensus_rounds(chi), and a zero start or a random one
    whose z, m and z_f rows are zero-sum."""
    n = draw(st.sampled_from([3, 6, 9]))
    d = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        L = draw(st.floats(2.0, 1000.0))
        obj = objectives.gen_random_quadratic(n, d, L=L, mu=1.0, seed=seed)
    else:
        kappa = draw(st.floats(2.0, 1000.0))
        obj = objectives.gen_synthetic_logistic(n, draw(st.integers(1, 6)), d, seed, kappa)
    kind = draw(st.sampled_from(sorted(topology.TOPOLOGY_KEYS)))
    keys = {}
    if kind == "random_geometric":
        keys = {"radius": draw(st.floats(0.2, 1.0)),
                "pool_size": draw(st.integers(1, 4)), "seed": seed}
    mixing = topology.build_mixing(topology.make_schedule(kind, n, **keys))
    T = draw(st.sampled_from([1, solver.consensus_rounds(mixing.chi)]))
    buf = np.zeros((7, n, d))
    if draw(st.booleans()):
        buf[:] = np.random.default_rng(seed).standard_normal(buf.shape)
        for row in (2, 3, 6):  # z, m and z_f
            buf[row] = blockvec.project_consensus(buf[row])
    return obj, mixing, T, solver.State(0, buf)


@settings(max_examples=96, deadline=None)
@given(_contraction_cases())
def test_potential_contracts_at_the_certified_rate(case):
    # Every step multiplies the potential by at most 1 - sigma2 / 2, the
    # certificate's rate, while it is above its float floor.
    obj, mixing, T, state = case
    params = solver.derive_params(obj.L, obj.mu, solver.effective_chi(mixing.chi, T))
    ref = solver.make_reference(obj, params.nu)
    bound = (1.0 - params.sigma2 / 2.0) * (1.0 + 1e-9)
    psi0 = psi = solver.lyapunov(state, params, obj, ref).total
    while state.k < 200 and psi > 1e-10 * psi0:
        state = solver.step(state, params, obj, mixing, T)
        after = solver.lyapunov(state, params, obj, ref).total
        assert after <= bound * psi, (state.k, after / psi / bound)
        psi = after


def test_convergence_envelope(small_run):
    obj, mixing, params, _, result = small_run
    rate = 1 - math.sqrt(obj.mu) / (32 * mixing.chi * math.sqrt(obj.L))
    psi0 = result.records[0].psi_x + result.records[0].psi_yz
    for rec in result.records:
        assert rec.err_sq_stacked <= params.eta * psi0 * rate**rec.k * (1 + 1e-9)


def test_run_zero_budget_returns_initial_record():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    result = solver.run(obj, mixing, budget=0)
    assert len(result.records) == 1
    assert result.records[0].k == 0
    assert result.state.k == 0


def test_run_converged_names_the_stop_that_fired():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    hit = solver.run(obj, mixing, target_eps=1e-6)
    k = hit.records[-1].k
    assert hit.converged and k > 0
    assert hit.stop_reason == "converged"
    # a target met on the budget's last iterate still counts
    assert solver.run(obj, mixing, budget=k, target_eps=1e-6).converged
    short = solver.run(obj, mixing, budget=k - 1, target_eps=1e-6)
    assert not short.converged
    assert short.stop_reason == "budget"


def test_run_below_the_float_floor_stops_stalled():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    start = time.perf_counter()
    result = solver.run(obj, mixing, target_eps=1e-30)
    assert time.perf_counter() - start < 2.0
    assert result.stop_reason == "stalled" and not result.converged
    # it stalled at the float floor, not on the way down
    errors = [rec.err_sq_mean_block for rec in result.records]
    assert min(errors) < 1e-24 * errors[0]


def test_run_without_a_budget_stops_at_the_iteration_cap(monkeypatch):
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    monkeypatch.setattr(solver, "ITERATION_CAP", 7)
    result = solver.run(obj, mixing, target_eps=1e-30)
    assert result.stop_reason == "budget"
    assert result.records[-1].k == 7


def test_run_metering_counts_rounds_and_gradients():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    result = solver.run(obj, mixing, T=3, budget=7)
    for rec in result.records:
        assert rec.comm_rounds == rec.k * 3
        assert rec.grad_calls == rec.k
    assert result.records[-1].k == 7


def test_run_requires_stop_criterion():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    with pytest.raises(ValueError):
        solver.run(obj, mixing)
    with pytest.raises(ValueError):
        solver.run(obj, mixing, budget=5, stop_metric="nope")


def _round_count_callers():
    """Each library entry point that takes a round count T, as a call of T
    alone, on the chi = 9 hard instance and its star cycle."""
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    mixing = topology.build_mixing(inst.schedule)
    x = np.zeros((inst.n, inst.d_trunc))
    return {
        "run": lambda T: solver.run(inst.objectives, mixing, T=T, budget=3),
        "effective_chi": lambda T: solver.effective_chi(9.0, T),
        "multi_mix": lambda T: blockvec.multi_mix(mixing, 0, T, x),
        "after_iteration": lambda T: hardcase.SpanTracker.fresh(9).after_iteration(T),
        "certify_run": lambda T: hardcase.certify_run(inst, [x], T=T),
    }


@pytest.mark.parametrize("T", [2.5, 2.0, True])
@pytest.mark.parametrize(
    "entry", ["run", "effective_chi", "multi_mix", "after_iteration", "certify_run"]
)
def test_a_round_count_that_is_not_an_integer_from_1_is_rejected(entry, T):
    # unchecked, 2.5 and 2.0 raised TypeError or IndexError deep inside, or
    # returned a value, and True ran as T = 1
    with pytest.raises(ValueError, match=re.escape(f"T must be an integer >= 1, got {T!r}")):
        _round_count_callers()[entry](T)


def test_numpy_integer_round_counts_and_budgets_are_accepted():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    got = solver.run(obj, mixing, T=np.int64(2), budget=np.int64(3))
    assert got.records == solver.run(obj, mixing, T=2, budget=3).records
    assert solver.effective_chi(9.0, np.int64(2)) == solver.effective_chi(9.0, 2)


@pytest.mark.parametrize("budget", [2.5, 2.0, True, -1])
def test_run_rejects_a_budget_that_is_not_an_integer_from_0(budget):
    # unchecked, 2.5 ran 3 iterations and stopped as "budget"
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    with pytest.raises(ValueError, match=re.escape(
        f"budget must be an integer >= 0, got {budget!r}"
    )):
        solver.run(obj, mixing, budget=budget)


def _run_in_blocks(block, obj, mixing, **kwargs):
    """``solver.run`` with its potential taken in blocks of ``block``
    iterates (None: as many as the default rule gives), checking through its
    ``solver.lyapunov`` calls that every block but the last had that length.
    A ``DivergenceError`` is re-raised after the check."""
    n, d = obj.n, obj.d
    block_bytes = solver.BLOCK_BYTES if block is None else block * 7 * n * d * 8
    sizes = []

    def counted(state, *args, _fn=solver.lyapunov, **kw):
        sizes.append(1 if state._buf.ndim == 3 else len(state._buf))
        return _fn(state, *args, **kw)

    with mock.patch.object(solver, "BLOCK_BYTES", block_bytes), \
            mock.patch.object(solver, "lyapunov", counted):
        try:
            result = solver.run(obj, mixing, **kwargs)
        except solver.DivergenceError as err:
            raised, count = err, err.last_record.k + 1
        else:
            raised, count = None, len(result.records)
    if block is None:
        fit = block_bytes // (7 * n * d * 8)
        block = fit if fit >= solver.BLOCK_MIN else 1
    full, rest = divmod(count, block)
    want = [block] * full + ([rest] if rest else [])
    assert sizes == (want if kwargs.get("track_lyapunov", True) else [])
    if raised is not None:
        raise raised
    return result


def test_divergence_guard_reports_iteration():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    # gamma * delta >> 2 makes the z relaxation an unstable amplifier
    params = dataclasses.replace(
        solver.derive_params(obj.L, obj.mu, mixing.chi), gamma=1e8, delta=1e8
    )
    state = solver.init_state(obj.n, obj.d)
    for _ in range(7):
        state = solver.step(state, params, obj, mixing)
    want = solver.lyapunov(state, params, obj, solver.make_reference(obj, params.nu))
    # It diverges at k = 8: in the middle of the default block and of a 9-
    # and a 13-iterate one, at the start of an 8-iterate one.
    for block in (None, 1, 8, 9, 13):
        with pytest.raises(solver.DivergenceError) as err:
            _run_in_blocks(block, obj, mixing, budget=50, params=params)
        assert err.value.k == 8
        assert err.value.field == "z"
        assert "|z|" in str(err.value)
        last = err.value.last_record
        assert last.k == err.value.k - 1
        assert math.isfinite(last.err_sq_stacked)
        assert (last.psi_x, last.psi_yz) == (want.psi_x, want.psi_yz)
        assert math.isfinite(last.psi_x) and math.isfinite(last.psi_yz)


# --- The fused iteration against the per-field rules -----------------------

_FIELDS = ("x", "y", "z", "m", "x_f", "y_f", "z_f")
_OVERRIDABLE = sorted(f.name for f in dataclasses.fields(solver.Params))


def _reference_lyapunov(state, p, obj, ref):
    """The potential's components, one squared norm per field difference."""
    def sq(v):
        return float(np.vdot(v, v))

    d_f = (
        obj.value(state.x_f)
        - ref.f_star
        - float(np.vdot(ref.grad_star, state.x_f - ref.x))
    )
    m_proj_vec = blockvec.project_consensus(state.m)
    return {
        "x_dist": (1.0 / p.eta + p.alpha) * sq(state.x - ref.x),
        "x_bregman": (2.0 / p.tau2) * (d_f - 0.5 * p.nu * sq(state.x_f - ref.x)),
        "y_dist": (1.0 / p.theta + 0.5 * p.beta) * sq(state.y - ref.y),
        "yf_dist": (0.5 * p.beta / p.sigma2) * sq(state.y_f - ref.y),
        "zhat_dist": (1.0 / p.gamma) * sq(state.z - m_proj_vec - ref.z),
        "m_proj": (4.0 / (3.0 * p.gamma)) * sq(m_proj_vec),
        "coupled": (1.0 / (p.nu * p.sigma2))
        * sq(state.y_f + state.z_f - (ref.y + ref.z)),
    }


@st.composite
def _fused_cases(draw):
    """A problem, a schedule, drawn parameters (maybe overridden), a state
    and T, on the ring/star and the star-cycle topologies."""
    n = draw(st.sampled_from([3, 6, 9]))
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["ring_star", "star_cycle"]))
    schedule = (
        topology.ring_star_schedule(n) if kind == "ring_star"
        else topology.star_cycle_schedule(n)
    )
    mu = draw(st.floats(0.1, 10.0))
    L = mu * draw(st.floats(1.01, 1000.0))
    params = solver.derive_params(L, mu, draw(st.floats(1.0, 100.0)))
    overrides = draw(
        st.dictionaries(st.sampled_from(_OVERRIDABLE), st.floats(0.01, 0.99), max_size=3)
    )
    params = dataclasses.replace(params, **overrides)
    obj = objectives.gen_random_quadratic(n, d, L=10.0, mu=1.0, seed=draw(st.integers(0, 99)))
    state = _random_state(n, d, seed=draw(st.integers(0, 2**32 - 1)),
                          k=draw(st.integers(0, 20)))
    return obj, topology.build_mixing(schedule), params, state, draw(st.integers(1, 3))


@given(case=_fused_cases())
@settings(max_examples=60)
def test_step_matches_transcription_on_random_params_and_states(case):
    obj, mixing, params, state, T = case
    got = solver.step(state, params, obj, mixing, T=T)
    want = _transcribed_step(state, params, obj, mixing, T=T)
    assert got.k == want.k
    scale = max(np.abs(getattr(want, name)).max() for name in _FIELDS)
    for name in _FIELDS:
        err = np.abs(getattr(got, name) - getattr(want, name)).max()
        assert err <= 1e-11 * scale, name


@given(case=_fused_cases())
@settings(max_examples=30)
def test_step_leaves_its_input_unchanged(case):
    obj, mixing, params, state, T = case
    before = {name: getattr(state, name).copy() for name in _FIELDS}
    new = solver.step(state, params, obj, mixing, T=T)
    assert state.k == new.k - 1
    for name in _FIELDS:
        assert np.array_equal(getattr(state, name), before[name]), name
        assert not np.shares_memory(getattr(state, name), getattr(new, name)), name


@given(case=_fused_cases(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_lyapunov_components_match_the_per_field_formula(case, seed):
    obj, _, params, _, _ = case
    ref = solver.make_reference(obj, params.nu)
    state = _random_state(obj.n, obj.d, seed=seed)
    report = solver.lyapunov(state, params, obj, ref)
    want = _reference_lyapunov(state, params, obj, ref)
    assert report.components.keys() == want.keys()
    for name, value in want.items():
        assert abs(report.components[name] - value) <= 1e-12 * abs(value), name
    assert report.psi_x == report.components["x_dist"] + report.components["x_bregman"]


@given(
    kind=st.sampled_from(["quadratic", "logistic"]),
    n=st.sampled_from([3, 6]),
    d=st.integers(2, 4),
    kappa=st.floats(2.0, 1000.0),
    chi=st.floats(1.0, 100.0),
    B=st.integers(2, 60),
    scale=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_block_report_has_the_bits_of_each_iterate(kind, n, d, kappa, chi, B,
                                                   scale, seed):
    if kind == "quadratic":
        obj = objectives.gen_random_quadratic(n, d, L=kappa, mu=1.0, seed=seed)
    else:
        obj = objectives.gen_synthetic_logistic(n, 8, d, seed=seed, kappa=kappa)
    params = solver.derive_params(obj.L, obj.mu, chi)
    ref = solver.make_reference(obj, params.nu)
    states = [_random_state(n, d, seed=seed + i) for i in range(B)]
    block = np.stack([ref._rows + scale * state._buf for state in states])
    before = block.copy()
    report = solver.lyapunov(solver.State(0, block), params, obj, ref)
    assert np.array_equal(block, before)
    singles = [
        solver.lyapunov(solver.State(0, iterate), params, obj, ref) for iterate in block
    ]

    def bits(values):
        return np.asarray(values, dtype=np.float64).tobytes()

    for name in ("psi_x", "psi_yz"):
        got = getattr(report, name)
        assert got.dtype == np.float64 and got.shape == (B,), name
        assert bits(got) == bits([getattr(r, name) for r in singles]), name
    assert report.components.keys() == singles[0].components.keys()
    for name, got in report.components.items():
        assert got.dtype == np.float64 and got.shape == (B,), name
        assert bits(got) == bits([r.components[name] for r in singles]), name
    assert all(isinstance(r.psi_x, float) for r in singles)


@given(
    first=st.sampled_from("xyzm"),
    second=st.none() | st.sampled_from("xyzm"),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, 1e101, -1e101]),
    k=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_guard_names_the_first_bad_field(first, second, bad, k, seed):
    state = _random_state(4, 3, seed=seed, k=k)
    solver._guard(state)
    rng = np.random.default_rng(seed)
    for name in {first, second} - {None}:
        getattr(state, name)[rng.integers(4), rng.integers(3)] = bad
    expected = min({first, second} - {None}, key="xyzm".index)
    with pytest.raises(solver.DivergenceError) as err:
        solver._guard(state)
    assert err.value.field == expected
    assert err.value.k == k
    assert math.isnan(err.value.magnitude) or err.value.magnitude >= 1e101


def test_guard_passes_every_coordinate_at_the_limit_silently():
    # The squares sum past GUARD_SQNORM, so the exact scan decides, and every
    # coordinate is within the limit.
    state = _random_state(4, 3, seed=2)
    head = state._buf[:4]
    head[:] = np.where(head < 0, -1.0, 1.0) * solver.DIVERGENCE_LIMIT
    assert not np.vdot(head, head) <= solver.GUARD_SQNORM
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver._guard(state)


def test_guard_raises_silently_when_the_squares_overflow():
    # vdot's sum of squares is inf; a matmul would warn "overflow encountered".
    state = _random_state(4, 3, seed=3, k=5)
    state._buf[:4] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.vdot(state._buf[:4], state._buf[:4]) == math.inf
        with pytest.raises(solver.DivergenceError) as err:
            solver._guard(state)
    assert (err.value.k, err.value.field, err.value.magnitude) == (5, "x", 1e200)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("field", "xyzm")
def test_guard_raises_on_one_coordinate_one_ulp_past_the_limit(field, sign):
    state = _random_state(4, 3, seed=4)
    bad = sign * np.nextafter(solver.DIVERGENCE_LIMIT, math.inf)
    getattr(state, field)[2, 1] = bad
    with pytest.raises(solver.DivergenceError) as err:
        solver._guard(state)
    assert err.value.field == field
    assert err.value.magnitude == abs(bad)


def _workspace_state(state):
    """A copy of ``state`` whose rows are the first seven of a (10, n, d)
    workspace, as :func:`solver.run` holds its state."""
    work = np.zeros((10, *state._buf.shape[1:]))
    work[:7] = state._buf
    return solver.State(state.k, work[:7]), work


@given(case=_fused_cases())
@settings(max_examples=30)
def test_step_into_given_buffers_matches_step(case):
    obj, mixing, params, state, T = case
    want = solver.step(state, params, obj, mixing, T=T)
    out = np.full_like(state._buf, np.nan)
    got = solver.step(state, params, obj, mixing, T=T, out=out)
    assert got._buf is out
    assert got.k == want.k and np.array_equal(got._buf, want._buf)
    inner, work = _workspace_state(state)
    out = np.full_like(state._buf, np.nan)
    got = solver.step(inner, params, obj, mixing, T=T, work=work, out=out)
    assert got._buf is out
    assert got.k == want.k and np.array_equal(got._buf, want._buf)
    assert np.array_equal(inner._buf, state._buf)


def test_step_rejects_an_out_sharing_memory_with_the_state():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    params = solver.derive_params(obj.L, obj.mu, mixing.chi)
    state = _random_state(3, 2, seed=1)
    with pytest.raises(ValueError, match="share no memory"):
        solver.step(state, params, obj, mixing, out=state._buf)
    inner, work = _workspace_state(state)
    with pytest.raises(ValueError, match="share no memory"):
        solver.step(inner, params, obj, mixing, work=work, out=work[3:])


def _bits(record):
    """A record's fields, floats by their exact bits (NaN equal to NaN)."""
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(record)
    )


def _stepwise_run(obj, mixing, T, budget, target_eps, stop_metric, params, ref,
                  track, collect):
    """The run loop one public call at a time: ``step`` with no buffers,
    ``lyapunov`` with none, and each record field by its formula. It stops
    at the target or the budget; the stall window is longer than the
    budgets it is given."""
    state = solver.init_state(obj.n, obj.d)
    records, trace = [], []
    while True:
        x = state.x
        psi_x = psi_yz = math.nan
        if track:
            report = solver.lyapunov(state, params, obj, ref)
            psi_x, psi_yz = report.psi_x, report.psi_yz
        gap = x - ref.x
        mean_gap = x.sum(axis=0) / len(x) - ref.x_bar
        records.append(solver.RunRecord(
            k=state.k,
            comm_rounds=state.k * T,
            grad_calls=state.k,
            err_sq_stacked=float(np.vdot(gap, gap)),
            err_sq_mean_block=float(np.vdot(mean_gap, mean_gap)),
            psi_x=psi_x,
            psi_yz=psi_yz,
        ))
        if collect:
            trace.append(x.copy())
        last = records[-1]
        err = last.err_sq_stacked if stop_metric == "stacked" else last.err_sq_mean_block
        reason = None
        if target_eps is not None and err <= target_eps:
            reason = "converged"
        elif state.k >= budget:
            reason = "budget"
        if reason is not None:
            return records, trace if collect else None, state, reason
        state = solver.step(state, params, obj, mixing, T=T)


_STEPWISE = dict(
    kind=st.sampled_from(["quadratic", "logistic"]),
    n=st.sampled_from([3, 6]),
    d=st.integers(2, 4),
    kappa=st.floats(2.0, 100.0),
    T=st.integers(1, 3),
    budget=st.integers(0, 40),
    block=st.sampled_from([None, 1, 8, 9, 13]),
    target=st.none() | st.floats(1e-4, 1.0),
    stop_metric=st.sampled_from(solver.STOP_METRICS),
    track=st.booleans(),
    # True keeps every iterate, an integer that many leading ones.
    collect=st.sampled_from([False, True, 1, 2, 9, 17]),
    seed=st.integers(0, 2**16),
)


def _final_block_of_one(target, stop_metric):
    """Nine records in blocks of eight: the last block holds one iterate."""
    return example(kind="quadratic", n=3, d=2, kappa=10.0, T=1, budget=8, block=8,
                   target=target, stop_metric=stop_metric, track=True,
                   collect=False, seed=0)


def _traced_in_blocks(n, block, stop_metric):
    """Traced, tracked runs that converge in their third block: 19 records
    in blocks of 8 (stacked), 26 in blocks of 9 (mean-block)."""
    return example(kind="quadratic", n=n, d=2, kappa=10.0, T=1, budget=40,
                   block=block, target=0.1, stop_metric=stop_metric, track=True,
                   collect=True, seed=0)


@given(**_STEPWISE)
@_final_block_of_one(None, "stacked")
@_final_block_of_one(1e-4, "stacked")
@_final_block_of_one(1e-4, "mean_block")
@_traced_in_blocks(3, 8, "stacked")
@_traced_in_blocks(6, 9, "mean_block")
@settings(max_examples=80, deadline=None)
def test_run_matches_the_stepwise_loop(kind, n, d, kappa, T, budget, block,
                                       target, stop_metric, track, collect,
                                       seed):
    # ``block`` sets how many iterates share one potential pass (None: the
    # default, more than any budget here), so blocks fill, and the run stops
    # or ends in the middle of one, or with a block of one. ``target`` is a
    # fraction of the stop metric's first error, so some runs converge;
    # without one, a run in blocks takes both errors per block.
    if kind == "quadratic":
        obj = objectives.gen_random_quadratic(n, d, L=kappa, mu=1.0, seed=seed)
        schedule = topology.star_cycle_schedule(n)
    else:
        obj = objectives.gen_synthetic_logistic(n, 8, d, seed=seed, kappa=kappa)
        schedule = topology.ring_star_schedule(n)
    mixing = topology.build_mixing(schedule)
    params = solver.derive_params(obj.L, obj.mu, solver.effective_chi(mixing.chi, T))
    ref = solver.make_reference(obj, params.nu)
    target_eps = None
    if target is not None:
        start = ref.x if stop_metric == "stacked" else ref.x_bar
        target_eps = target * float(np.vdot(start, start))
    result = _run_in_blocks(
        block, obj, mixing, T=T, budget=budget, target_eps=target_eps,
        params=params, reference=ref, stop_metric=stop_metric,
        track_lyapunov=track, collect_trace=collect,
    )
    records, trace, state, reason = _stepwise_run(
        obj, mixing, T, budget, target_eps, stop_metric, params, ref, track, collect
    )
    assert result.stop_reason == reason
    assert [_bits(r) for r in result.records] == [_bits(r) for r in records]
    assert result.state.k == state.k
    assert np.array_equal(result.state._buf, state._buf)
    if collect:
        trace = trace if collect is True else trace[:collect]
        assert len(result.trace) == len(trace)
        for got, want in zip(result.trace, trace):
            assert np.array_equal(got, want)
    else:
        assert result.trace is None


# --- The names the benchmark tracer wraps ----------------------------------


def test_run_calls_the_traced_names_once_per_iteration(monkeypatch):
    # step and mix run once per iteration, lyapunov once per block of
    # iterates. A block is as many iterates as BLOCK_BYTES holds when that
    # is at least eight, else one: all six at 3 x 2, 46 at 10 x 20, 8 at
    # 30 x 39 (n d = 1170), and one at 30 x 80 and from n d = 1171 up.
    cases = (
        (3, 2, 5, [6]),
        (10, 20, 100, [46, 46, 9]),
        (30, 39, 16, [8, 8, 1]),
        (30, 80, 5, [1] * 6),
    )
    for n, d, budget, blocks in cases:
        obj = objectives.gen_random_quadratic(n, d, L=5.0, mu=1.0, seed=5)
        mixing = topology.build_mixing(topology.ring_star_schedule(n))
        # Building a compound operator mixes the identity; build them first.
        for k in range(mixing.cycle):
            mixing.compound(k, 2)
        for track in (True, False):
            calls = {"step": 0, "lyapunov": 0, "mix": 0}
            sizes = []
            for owner, name in ((solver, "step"), (solver, "lyapunov"), (blockvec, "mix")):
                def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                    calls[_name] += 1
                    if _name == "lyapunov":
                        buf = args[0]._buf
                        sizes.append(1 if buf.ndim == 3 else len(buf))
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(owner, name, counted)
            result = solver.run(obj, mixing, T=2, budget=budget, track_lyapunov=track)
            monkeypatch.undo()
            assert len(result.records) == budget + 1
            assert calls == {
                "step": budget,
                "lyapunov": len(blocks) if track else 0,
                "mix": budget,
            }
            assert sizes == (blocks if track else [])


def test_make_reference_solves_through_the_solver_name(monkeypatch):
    # the benchmark's tracer times the reference solve by patching this name
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    calls = []

    def counted(objectives_):
        calls.append(objectives_)
        return objectives.reference_minimizer(objectives_)

    monkeypatch.setattr(solver, "reference_minimizer", counted)
    ref = solver.make_reference(obj, 0.5)
    assert calls == [obj]
    assert np.array_equal(ref.x_bar, objectives.reference_minimizer(obj))
    # a hard instance takes its reference from the same single solve
    config = experiments.ExperimentConfig(
        problem={"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0, "d_trunc": 20},
        budget=3,
    )
    result = experiments.run_experiment(config)
    assert len(calls) == 2 and calls[1].d == 20
    # the run starts at zero, so its first error is the squared norm of x*
    x_bar = objectives.reference_minimizer(calls[1])
    assert result.records[0].err_sq_mean_block == float(np.vdot(x_bar, x_bar))


def test_trace_holds_copies_of_x():
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    result = solver.run(obj, mixing, budget=5, collect_trace=True)
    assert len(result.trace) == 6
    for x in result.trace:
        assert x.shape == (3, 2)
        assert not np.shares_memory(x, result.state._buf)
    assert np.array_equal(result.trace[-1], result.state.x)


def test_trace_prefix_keeps_leading_iterates_and_true_keeps_all():
    # True == 1 in Python, yet True keeps every iterate and 1 only the first;
    # a prefix the run outlives stops the trace, one it does not keeps all.
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    whole = solver.run(obj, mixing, budget=20, collect_trace=True)
    assert len(whole.trace) == 21
    for keep, length in ((1, 1), (4, 4), (21, 21), (50, 21)):
        result = solver.run(obj, mixing, budget=20, collect_trace=keep)
        assert len(result.trace) == length
        for got, want in zip(result.trace, whole.trace):
            assert np.array_equal(got, want)
        assert [_bits(r) for r in result.records] == [_bits(r) for r in whole.records]


@pytest.mark.parametrize("keep", [0, -1, 2.5, 3.0, "3", None])
def test_run_rejects_a_trace_prefix_that_is_not_an_integer_from_1(keep):
    obj = objectives.gen_random_quadratic(3, 2, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(3))
    with pytest.raises(ValueError, match=re.escape(
        f"collect_trace must be an integer >= 1, got {keep!r}"
    )):
        solver.run(obj, mixing, budget=3, collect_trace=keep)


@pytest.mark.parametrize("stop_metric", solver.STOP_METRICS)
def test_stop_metric_is_taken_once_per_iterate(monkeypatch, stop_metric):
    # The records reuse the stop test's error of each iterate; only the
    # other metric is taken per block, one iterate a block at 30 x 80.
    obj = objectives.gen_random_quadratic(30, 80, L=5.0, mu=1.0, seed=5)
    mixing = topology.build_mixing(topology.ring_star_schedule(30))
    calls = {metric: 0 for metric in solver.STOP_METRICS}

    def counted(xs, reference, metric, _fn=solver._errors):
        calls[metric] += len(xs)
        return _fn(xs, reference, metric)

    monkeypatch.setattr(solver, "_errors", counted)
    result = solver.run(obj, mixing, budget=6, target_eps=1e-30,
                        stop_metric=stop_metric)
    assert len(result.records) == 7
    assert calls == {metric: 7 for metric in solver.STOP_METRICS}
