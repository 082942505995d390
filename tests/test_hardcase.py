import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipopt import experiments, hardcase, objectives, solver, topology


def test_rho_closed_form_frozen():
    # 2L/(3 mu) + 1/3 = 4 at (L, mu) = (11, 2), so rho = (2 - 1)/(2 + 1)
    assert abs(hardcase.hard_rho(11.0, 2.0) - 1.0 / 3.0) <= 1e-15
    # rho -> 0 as L -> mu+
    assert hardcase.hard_rho(1.0 + 1e-12, 1.0) < 1e-6
    with pytest.raises(ValueError):
        hardcase.hard_rho(1.0, 1.0)


@pytest.mark.parametrize("L, mu", [(math.inf, 1.0), (math.nan, 1.0), (4.0, math.nan)])
def test_rho_rejects_a_non_finite_constant(L, mu):
    # unchecked, L = inf gave rho = nan
    with pytest.raises(ValueError, match="^need L > mu > 0 and L finite, got L="):
        hardcase.hard_rho(L, mu)


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: objectives.gen_random_quadratic(4, 3, math.inf, 1.0, 0), "L=inf"),
        (lambda: objectives.gen_random_quadratic(4, 3, 4.0, math.nan, 0), "mu=nan"),
        (lambda: objectives.gen_synthetic_logistic(4, 3, 2, 0, math.inf), "got inf"),
        (lambda: objectives.gen_synthetic_logistic(4, 3, 2, 0, math.nan), "got nan"),
        (lambda: hardcase.build_hard_instance(math.inf, 16.0, 1.0, 40), "chi=inf"),
        (lambda: hardcase.build_hard_instance(math.nan, 16.0, 1.0, 40), "chi=nan"),
        (lambda: hardcase.build_hard_instance(9.0, math.inf, 1.0, 40), "L=inf"),
        (lambda: hardcase.lower_bound_curve(math.nan, 16.0, 1.0, 5), "chi=nan"),
    ],
    ids=[
        "quadratic_L", "quadratic_mu", "logistic_kappa_inf", "logistic_kappa_nan",
        "hard_chi_inf", "hard_chi_nan", "hard_L", "curve_chi",
    ],
)
def test_builders_reject_a_non_finite_constant(build, named):
    # unchecked, these raised OverflowError, failed on a NaN reg or a NaN
    # node count, warned, or returned an objective or curve of NaNs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"finite.*{named}"):
            build()


def test_build_partitions_and_centers():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    assert inst.n == 9
    assert inst.objectives.quad.shape == (3, 30, 30)
    # chi = 10 still gives n = 9: the construction rounds down to thirds
    assert hardcase.build_hard_instance(10.0, 16.0, 1.0, 30).n == 9


def test_build_validation():
    with pytest.raises(ValueError):
        hardcase.build_hard_instance(2.0, 16.0, 1.0, 20)
    with pytest.raises(ValueError):
        hardcase.build_hard_instance(9.0, 1.0, 1.0, 20)
    with pytest.raises(ValueError):
        hardcase.build_hard_instance(9.0, 16.0, 1.0, 3)


def test_hard_certify_setup_still_builds():
    inst = hardcase.build_hard_instance(30.0, 100.0, 1.0, 120)
    ref = solver.make_reference(inst.objectives, 0.5)
    assert np.abs(ref.x_bar - inst.solution()).max() <= 1e-12


def test_short_truncation_at_large_condition_number_builds():
    # L/mu = 1e6 with d_trunc = 200: about 1 MB of curvature. The truncated
    # closed form is far from this objective's minimizer (rho^200 is about
    # 0.61), so the reference is the Newton minimizer of the objective run.
    inst = hardcase.build_hard_instance(9.0, 1e6, 1.0, 200)
    assert inst.objectives.quad.nbytes <= 1e6
    ref = solver.make_reference(inst.objectives, 0.5)
    mean_grad = inst.objectives.mean_grad(ref.x_bar)
    assert np.linalg.norm(mean_grad) <= 1e-8 * (1.0 + np.linalg.norm(ref.x_bar))


def test_short_truncation_run_certifies():
    # d_trunc = 20 at L = 1000 leaves a truncation tail of rho^20 = 0.21;
    # the certificate's floor subtracts it, so the run still certifies.
    config = experiments.ExperimentConfig(
        problem={"kind": "hard_instance", "chi": 9.0, "L": 1000.0, "mu": 1.0, "d_trunc": 20},
        T="auto",
        budget=300,
        certify=True,
    )
    result = experiments.run_experiment(config)
    assert result.summary["iterations"] == 300
    assert result.cert_report.passed
    assert result.summary["certified"] is True


def test_star_rounds_stay_within_chi():
    inst = hardcase.build_hard_instance(10.0, 16.0, 1.0, 30)
    chi = topology.build_mixing(inst.schedule).chi
    assert chi <= inst.chi + 1e-9
    assert abs(chi - inst.n) < 1e-9


def test_middle_group_gradient_is_pure_regularizer():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    x = np.linspace(-1, 1, 30)
    grad = inst.objectives.grad(np.tile(x, (inst.n, 1)))
    for i in range(3, 6):
        assert np.allclose(grad[i], inst.mu * x, atol=1e-14)


def test_node_spectra_span_mu_to_L():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    eigs = np.linalg.eigvalsh(inst.objectives.quad)
    assert eigs.min() >= inst.mu - 1e-10
    assert eigs.max() <= inst.L + 1e-10
    # chain groups attain both endpoints
    assert abs(eigs[0].min() - inst.mu) < 1e-10
    assert abs(eigs[0].max() - inst.L) < 1e-10


def test_solution_matches_dense_solve():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 50)
    # quad holds one matrix per third: scale by the nodes sharing each
    total_q = inst.n // 3 * inst.objectives.quad.sum(axis=0)
    total_c = inst.objectives.lin.sum(axis=0)
    dense = np.linalg.solve(total_q, -total_c)
    assert np.abs(dense - inst.solution()).max() <= 1e-12


def test_large_chi_stores_one_curvature_matrix_per_third():
    inst = hardcase.build_hard_instance(300, 1000.0, 1.0, 400)
    obj = inst.objectives
    assert obj.quad.nbytes == 3 * 400 * 400 * 8
    x = np.random.default_rng(0).standard_normal((inst.n, inst.d_trunc))
    grad = obj.grad(x)
    for third, i in enumerate((0, inst.n // 3, 2 * inst.n // 3)):
        expected = obj.quad[third] @ x[i] + obj.lin[i]
        assert np.allclose(grad[i], expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("L,mu", [(11.0, 2.0), (100.0, 1.0), (50.0, 5.0)])
def test_truncated_solution_gradient_residual(L, mu):
    inst = hardcase.build_hard_instance(9.0, L, mu, 200)
    x = np.tile(inst.solution(), (inst.n, 1))
    residual = np.linalg.norm(inst.objectives.grad(x).sum(axis=0))
    assert residual <= 1e-10


def test_rho_dominates_bernoulli_base():
    for L in (2.0, 5.0, 10.0, 100.0, 1000.0):
        for mu in (0.1, 0.5, 1.0):
            if L <= mu:
                continue
            rho = hardcase.hard_rho(L, mu)
            assert rho >= max(0.0, 1.0 - math.sqrt(6.0 * mu / L)) - 1e-12


def test_span_compute_step_cases():
    tracker = hardcase.SpanTracker.fresh(9)
    stepped = tracker.after_compute()
    # first group extends on even span, last group on odd, middle never
    assert stepped.s == (1, 1, 1, 0, 0, 0, 0, 0, 0)
    again = stepped.after_compute()
    assert again.s == stepped.s  # all active nodes now sit at odd spans


def test_span_communicate_moves_through_center_only():
    tracker = hardcase.SpanTracker.fresh(9).after_compute()
    # round 0 star is centered at node 3 (zero-based): it learns the global
    # max; leaves see only the center's previous value
    after = tracker.after_communicate()
    assert after.s == (1, 1, 1, 1, 0, 0, 0, 0, 0)
    assert after.q == 1
    # all-equal spans are unchanged by any communication
    flat = hardcase.SpanTracker(s=(2,) * 9, q=5, n=9)
    assert flat.after_communicate().s == (2,) * 9


def test_span_is_monotone_under_random_interleavings():
    rng = np.random.default_rng(1)
    for _ in range(200):
        tracker = hardcase.SpanTracker.fresh(9)
        for op in rng.integers(0, 2, size=40):
            nxt = tracker.after_compute() if op == 0 else tracker.after_communicate()
            assert all(b >= a for a, b in zip(tracker.s, nxt.s))
            tracker = nxt


@pytest.mark.parametrize("chi", [9, 30])
def test_span_ceiling_under_random_interleavings(chi):
    rng = np.random.default_rng(0)
    n = 3 * (chi // 3)
    for _ in range(1000):
        tracker = hardcase.SpanTracker.fresh(n)
        for op in rng.integers(0, 2, size=50):
            tracker = (
                tracker.after_compute() if op == 0 else tracker.after_communicate()
            )
            bound = hardcase.span_ceiling(tracker)
            assert all(s <= b for s, b in zip(tracker.s, bound))


def _span_ceiling_by_loop(n, q):
    # reference: the per-node rule, exempting the last group and the middle
    # nodes from the next center on
    g = n // 3
    base = 2 * (q // g)
    next_center = g + q % g
    return tuple(
        base + (0 if i >= 2 * g or next_center <= i < 2 * g else 1)
        for i in range(n)
    )


@given(st.integers(1, 20), st.integers(0, 300))
def test_span_ceiling_matches_per_node_rule(g, q):
    n = 3 * g
    bound = hardcase.span_ceiling(hardcase.SpanTracker(s=(0,) * n, q=q, n=n))
    assert bound == _span_ceiling_by_loop(n, q)
    assert all(type(v) is int for v in bound)


@st.composite
def _tracker_and_rounds(draw):
    g = draw(st.integers(1, 12))
    n = 3 * g
    s = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    q = draw(st.integers(0, 100))
    T = draw(st.one_of(st.sampled_from([g, g + 1]), st.integers(1, 3 * n)))
    return hardcase.SpanTracker(s=tuple(s), q=q, n=n), T


@given(_tracker_and_rounds())
@settings(max_examples=400)
def test_after_iteration_matches_sequential_rounds(case):
    # any span tuple, reachable or not
    tracker, T = case
    want = tracker.after_compute()
    for _ in range(T):
        want = want.after_communicate()
    got = tracker.after_iteration(T)
    assert got.s == want.s
    assert got.q == want.q == tracker.q + T
    assert all(type(v) is int for v in got.s)


def test_after_iteration_rejects_zero_rounds():
    with pytest.raises(ValueError):
        hardcase.SpanTracker.fresh(9).after_iteration(0)


def test_certify_accepts_decentralized_run():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 60)
    mixing = topology.build_mixing(inst.schedule)
    params = solver.derive_params(inst.L, inst.mu, mixing.chi)
    ref = solver.make_reference(inst.objectives, params.nu)
    result = solver.run(
        inst.objectives, mixing, T=1, budget=60, params=params, reference=ref,
        collect_trace=True, track_lyapunov=False,
    )
    report = hardcase.certify_run(inst, result.trace, T=1)
    assert report.passed
    assert len(report.support_ok) == 61
    assert all(report.support_ok) and all(report.distance_ok)


def test_certify_accepts_constant_zero_trace():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    trace = [np.zeros((9, 30)) for _ in range(5)]
    report = hardcase.certify_run(inst, trace)
    assert report.passed


def test_certify_rejects_forged_trace():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    forged = [np.tile(inst.solution(), (9, 1))]
    report = hardcase.certify_run(inst, forged)
    assert not report.passed
    assert report.first_violation["check"] == "support"
    assert report.first_violation["k"] == 0


def test_certify_reports_distance_violation_at_lowest_node():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    x = np.zeros((9, 30))
    x[1] = inst.solution()  # every coordinate below ZERO_TOL: support 0
    x[2, 5] = 2.0  # support violation at a later node
    with mock.patch.object(hardcase, "ZERO_TOL", 1.0):
        report = hardcase.certify_run(inst, [x])
    tail = 1.0 - inst.rho**2
    bound = inst.rho**2 / tail - 2.0 * inst.rho ** (2 * 30) / tail
    assert report.support_ok == (False,)
    assert report.distance_ok == (False,)
    assert report.first_violation == {
        "check": "distance", "k": 0, "node": 1, "distance_sq": 0.0, "bound": bound,
    }


def test_lower_bound_curve_shapes():
    chi, L, mu = 9.0, 16.0, 1.0
    rho = hardcase.hard_rho(L, mu)
    exact, relaxed = hardcase.lower_bound_curve(chi, L, mu, 50)
    c = rho**4 / (1 - rho**2)
    assert abs(exact[0] - c) <= 1e-15
    assert np.all(exact >= relaxed - 1e-15)
    # constant ratio rho^(-24) every chi rounds
    q = np.arange(0, 41)
    lhs = exact[q] / exact[q + 9]
    assert np.allclose(lhs, rho ** (-24.0), rtol=1e-10)
    # the relaxed form clamps to zero once 24 sqrt(6 mu) >= sqrt(L)
    _, degenerate = hardcase.lower_bound_curve(9.0, 10.0, 1.0, 5)
    assert np.all(degenerate[1:] == 0.0)


def test_certify_input_validation():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    with pytest.raises(ValueError, match="shape"):
        hardcase.certify_run(inst, [np.zeros((9, 10))])
    with pytest.raises(ValueError):
        hardcase.certify_run(inst, [np.zeros((9, 30))], T=0)


def test_certify_rejects_empty_trace():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    with pytest.raises(ValueError, match="empty trace"):
        hardcase.certify_run(inst, [], T=3)


@pytest.mark.parametrize("d_trunc", [40.5, 40.0, math.inf, math.nan, True, "40", 3])
def test_build_rejects_a_d_trunc_that_is_not_an_integer_from_4(d_trunc):
    # unchecked, 40.5 and inf raised TypeError from range()
    with pytest.raises(ValueError, match=re.escape(
        f"d_trunc must be an integer >= 4, got {d_trunc!r}"
    )):
        hardcase.build_hard_instance(9.0, 16.0, 1.0, d_trunc)


@pytest.mark.parametrize("q_max", [2.5, 3.0, math.inf, math.nan, False, "3", -1])
def test_lower_bound_curve_rejects_a_q_max_that_is_not_a_count(q_max):
    # unchecked, nan failed in arange and 2.5 returned 4 rows
    with pytest.raises(ValueError, match=re.escape(
        f"q_max must be an integer >= 0, got {q_max!r}"
    )):
        hardcase.lower_bound_curve(9.0, 16.0, 1.0, q_max)


def _gradient_descent_trace(inst, iterations, T, mix):
    """Iterates of plain decentralized gradient descent from zero: a gradient
    step of 1/L at every node, then T communication rounds ``mix(x, q)``."""
    x = np.zeros((inst.n, inst.d_trunc))
    xs = [x]
    for k in range(iterations):
        x = x - inst.objectives.grad(x) / inst.L
        for q in range(k * T, (k + 1) * T):
            x = mix(x, q)
        xs.append(x)
    return xs


@pytest.mark.parametrize("T", [1, 2, 4])
def test_certify_passes_decentralized_gradient_descent(T):
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)

    def star_gossip(x, q):
        # I - L_q / n averages along round q's star only
        return x - topology.laplacian(inst.schedule.edges(q), inst.n) @ x / inst.n

    xs = _gradient_descent_trace(inst, 40, T, star_gossip)
    # the iterates leave the first coordinates, so the spans are exercised
    assert (np.abs(xs[-1]) > hardcase.ZERO_TOL).any(axis=0).sum() >= 9
    report = hardcase.certify_run(inst, xs, T=T)
    assert report.passed
    assert len(report.support_ok) == 41


def test_certify_fails_a_method_that_averages_over_all_nodes():
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)

    def average(x, q):
        return np.broadcast_to(x.mean(axis=0), x.shape)

    report = hardcase.certify_run(inst, _gradient_descent_trace(inst, 10, 1, average))
    assert not report.passed
    assert report.first_violation["check"] == "support"
    assert report.first_violation["k"] == 1


def test_lower_bound_curve_rejects_negative_q_max():
    with pytest.raises(ValueError, match="q_max"):
        hardcase.lower_bound_curve(9.0, 16.0, 1.0, -5)
    exact, relaxed = hardcase.lower_bound_curve(9.0, 16.0, 1.0, 0)
    assert exact.shape == relaxed.shape == (1,)


def _certify_reference(instance, xs, T=1, zero_tol=1e-12):
    """Every iterate checked against the tracker: the reference certify_run's
    skip past span saturation is checked against."""
    rho = instance.rho
    x_star = instance.solution()
    tail = 1.0 - rho**2
    slack = 2.0 * rho ** (2 * instance.d_trunc) / tail
    tracker = hardcase.SpanTracker.fresh(instance.n)
    support_ok, distance_ok, first_violation = [], [], None
    for k, x in enumerate(xs):
        if k > 0:
            tracker = tracker.after_iteration(T)
        span = np.array(tracker.s)
        mask = np.abs(x) > zero_tol
        last = x.shape[1] - np.argmax(mask[:, ::-1], axis=1)
        support = np.where(mask.any(axis=1), last, 0)
        with np.errstate(over="ignore"):
            dist = np.sum((x - x_star) ** 2, axis=1)
        bound = rho ** (2 * span + 2) / tail - slack
        bad_a = support > span
        bad_b = dist < bound - 1e-12 * np.maximum(1.0, np.abs(bound))
        support_ok.append(not bad_a.any())
        distance_ok.append(not bad_b.any())
        bad = bad_a | bad_b
        if first_violation is None and bad.any():
            i = int(np.argmax(bad))
            if bad_a[i]:
                first_violation = {"check": "support", "k": k, "node": i,
                                   "support": int(support[i]), "span": int(span[i])}
            else:
                first_violation = {"check": "distance", "k": k, "node": i,
                                   "distance_sq": float(dist[i]),
                                   "bound": float(bound[i])}
    return hardcase.CertReport(
        support_ok=tuple(support_ok),
        distance_ok=tuple(distance_ok),
        first_violation=first_violation,
    )


@st.composite
def _certify_case(draw):
    """A hard instance, T on either side of n/3, and a trace that follows the
    tracker's spans: node i holds the first l_i coordinates of x*, scaled,
    with l_i its span, plus an overshoot at some (iterate, node) pairs. An
    overshoot above zero_tol fails support; one hidden below it (zero_tol
    1.0 hides every coordinate of x*) can fail distance first. Past
    saturation the trace may hold huge finite values."""
    g = draw(st.integers(1, 4))
    n = 3 * g
    d = draw(st.integers(4, 9))
    T = draw(st.one_of(st.integers(1, g), st.integers(g + 1, 2 * n)))
    length = draw(st.integers(1, 45))
    zero_tol = draw(st.sampled_from([1e-12, 1e-2, 1.0]))
    p_over = draw(st.sampled_from([0.0, 0.002, 0.02, 0.2]))
    jitter = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    huge = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    inst = hardcase.build_hard_instance(float(n), 16.0, 1.0, d)
    x_star = inst.solution()
    tracker = hardcase.SpanTracker.fresh(n)
    xs = []
    for k in range(length):
        if k > 0:
            tracker = tracker.after_iteration(T)
        span = np.array(tracker.s)
        if huge and span.min() >= d:
            xs.append(np.full((n, d), 1e200))
            continue
        lengths = np.minimum(span + (rng.random(n) < p_over) * rng.integers(1, 3, n), d)
        x = np.zeros((n, d))
        for i, l_i in enumerate(lengths):
            x[i, :l_i] = x_star[:l_i] * (1.0 + jitter * rng.standard_normal(l_i))
        xs.append(x)
    return inst, xs, T, zero_tol


@given(_certify_case())
@settings(max_examples=200)
def test_certify_run_equals_per_iterate_reference(case):
    inst, xs, T, zero_tol = case
    want = _certify_reference(inst, xs, T=T, zero_tol=zero_tol)
    with mock.patch.object(hardcase, "ZERO_TOL", zero_tol):
        assert hardcase.certify_run(inst, xs, T=T) == want


def test_certify_case_strategy_reaches_every_outcome():
    # The property above is only as good as its traces: it must see passes,
    # support-first and distance-first failures, and saturated tails. The
    # derandomized profile draws the same examples for both tests.
    seen = set()

    @given(_certify_case())
    @settings(max_examples=200)
    def collect(case):
        inst, xs, T, zero_tol = case
        report = _certify_reference(inst, xs, T=T, zero_tol=zero_tol)
        kind = "pass" if report.passed else report.first_violation["check"]
        seen.add((kind, T > inst.n // 3))
        if any((x == 1e200).all() for x in xs):
            seen.add(("huge", report.passed))

    collect()
    for kind in ("pass", "support", "distance"):
        assert {(kind, False), (kind, True)} <= seen, seen
    assert ("huge", True) in seen


def _saturated_zero_trace():
    # At T > n/3 every span grows by one an iteration: iterate d_trunc and
    # every later one are past saturation.
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 6)
    return inst, [np.zeros((9, 6)) for _ in range(12)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_rejects_non_finite_entries(bad):
    inst = hardcase.build_hard_instance(9.0, 16.0, 1.0, 30)
    with pytest.raises(ValueError, match="trace entry 1 holds a non-finite"):
        hardcase.certify_run(inst, [np.zeros((9, 30)), np.full((9, 30), bad)])
    inst, trace = _saturated_zero_trace()
    trace[10] = trace[10].copy()
    trace[10][4, 2] = bad
    with pytest.raises(ValueError, match="trace entry 10 holds a non-finite"):
        hardcase.certify_run(inst, trace, T=4)


def test_certify_checks_shape_past_saturation():
    inst, trace = _saturated_zero_trace()
    report = hardcase.certify_run(inst, trace, T=4)
    assert report.passed and len(report.support_ok) == 12
    assert report == _certify_reference(inst, trace, T=4)
    trace[11] = np.zeros((9, 5))
    with pytest.raises(ValueError, match=r"trace entry 11 has shape \(9, 5\)"):
        hardcase.certify_run(inst, trace, T=4)


@pytest.mark.parametrize("n", [9.0, 9.5, True, "9", 6.0])
def test_tracker_rejects_a_node_count_that_is_not_an_integer(n):
    # unchecked, 9.0 built a tracker whose after_iteration raised TypeError
    with pytest.raises(ValueError, match=re.escape(
        f"need n an integer divisible by 3 and >= 3, got {n!r}"
    )):
        hardcase.SpanTracker.fresh(n)


def _walk_to_saturation(instance, T):
    """Iterates before saturation, one tracker iteration at a time, by the
    rule ``_certify_reference`` checks every iterate with."""
    rho = instance.rho
    tail = 1.0 - rho**2
    slack = 2.0 * rho ** (2 * instance.d_trunc) / tail
    tracker = hardcase.SpanTracker.fresh(instance.n)
    count = 0
    while True:
        span = np.array(tracker.s)
        bound = rho ** (2 * span + 2) / tail - slack
        floor = bound - 1e-12 * np.maximum(1.0, np.abs(bound))
        if span.min() >= instance.d_trunc and floor.max() <= 0.0:
            return count
        count += 1
        tracker = tracker.after_iteration(T)


@pytest.mark.parametrize("chi", [3, 9, 30])
@pytest.mark.parametrize("d_trunc", [4, 120])
def test_checked_iterates_closed_form_equals_the_tracker_walk(chi, d_trunc):
    inst = hardcase.build_hard_instance(float(chi), 16.0, 1.0, d_trunc)
    g = inst.n // 3
    for T in [*range(g + 1, 2 * inst.n + 2), 1000]:
        assert hardcase.checked_iterates(inst, T) == d_trunc
        assert _walk_to_saturation(inst, T) == d_trunc
    # at T <= n/3 the count is the walk itself, and larger than d_trunc
    for T in range(1, g + 1):
        count = hardcase.checked_iterates(inst, T)
        assert count == _walk_to_saturation(inst, T) > d_trunc


@st.composite
def _prefix_case(draw):
    """A ``_certify_case`` trace, sometimes with a violation planted at one
    of the last two iterates the certifier checks: node i holds all of x*,
    which fails support while its span is below d_trunc."""
    inst, xs, T, zero_tol = draw(_certify_case())
    count = hardcase.checked_iterates(inst, T)
    if draw(st.booleans()):
        k = max(0, min(count, len(xs)) - draw(st.integers(1, 2)))
        xs[k] = xs[k].copy()
        xs[k][draw(st.integers(0, inst.n - 1))] = inst.solution()
    return inst, xs, T, zero_tol, count


@given(_prefix_case())
@settings(max_examples=200)
def test_certify_run_on_the_checked_prefix_equals_the_whole_trace(case):
    inst, xs, T, zero_tol, count = case
    with mock.patch.object(hardcase, "ZERO_TOL", zero_tol):
        whole = hardcase.certify_run(inst, xs, T=T)
        prefix = hardcase.certify_run(inst, xs[:count], T=T)
    assert prefix.passed == whole.passed
    assert prefix.first_violation == whole.first_violation
    shown = min(count, len(xs))
    assert prefix.support_ok == whole.support_ok[:shown]
    assert prefix.distance_ok == whole.distance_ok[:shown]


def _observe_certified_run(monkeypatch, T, budget):
    """A certified run_experiment, with what it hands certify_run."""
    certify_run = hardcase.certify_run
    seen = []

    def observed(instance, xs, T=1):
        seen.append((instance, list(xs), T))
        return certify_run(instance, xs, T=T)

    monkeypatch.setattr(hardcase, "certify_run", observed)
    config = experiments.ExperimentConfig(
        problem={"kind": "hard_instance", "chi": 9.0, "L": 16.0, "mu": 1.0,
                 "d_trunc": 12},
        T=T, budget=budget, certify=True,
    )
    result = experiments.run_experiment(config)
    monkeypatch.undo()
    (instance, xs, T_used), = seen
    return result, instance, xs, T_used


def test_certified_run_hands_the_certifier_only_the_checked_prefix(monkeypatch):
    # T = auto = 7 > n/3 = 3: at most d_trunc entries, from the zero start
    result, inst, xs, T = _observe_certified_run(monkeypatch, "auto", 40)
    assert T == 7 and len(result.records) == 41
    assert len(xs) == inst.d_trunc == 12
    assert not xs[0].any()
    assert result.cert_report.passed and len(result.cert_report.support_ok) == 12
    # at T = 1 every checked iterate, the same iterates a whole trace holds
    result, inst, xs, T = _observe_certified_run(monkeypatch, 1, 80)
    count = hardcase.checked_iterates(inst, 1)
    assert 12 < count < 81 and len(xs) == count
    mixing = topology.build_mixing(inst.schedule)
    whole = solver.run(inst.objectives, mixing, T=1, budget=80,
                       collect_trace=True).trace
    assert len(whole) == 81
    for got, want in zip(xs, whole):
        assert np.array_equal(got, want)
    full = hardcase.certify_run(inst, whole, T=1)
    assert result.cert_report.passed and full.passed
    # a run shorter than the prefix hands every iterate it has
    _, _, xs, _ = _observe_certified_run(monkeypatch, "auto", 5)
    assert len(xs) == 6
