import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossipopt import objectives


def _central_diff(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.fixture(scope="module")
def logistic():
    return objectives.gen_synthetic_logistic(5, 12, 6, seed=0, kappa=50.0)


@pytest.fixture(scope="module")
def quadratic():
    return objectives.gen_random_quadratic(4, 5, L=9.0, mu=1.5, seed=1)


def test_quadratic_gradient_is_linear_map():
    obj = objectives.QuadraticObjectives(
        np.array([[[2.0, 0.0], [0.0, 2.0]]]), np.zeros((1, 2))
    )
    assert np.allclose(obj.grad_block(0, np.array([1.0, 1.0])), [2.0, 2.0])


def test_logistic_gradient_at_zero(logistic):
    # sigmoid(0) = 1/2 and the regularizer vanishes at the origin
    for i in range(logistic.n):
        expected = (
            -(logistic.features[i].T @ logistic.labels[i]) * 0.5 / logistic.m
        )
        got = logistic.grad_block(i, np.zeros(logistic.d))
        assert np.allclose(got, expected, atol=1e-14)


@pytest.mark.parametrize("kind", ["logistic", "quadratic"])
def test_gradient_matches_finite_differences(kind, logistic, quadratic):
    obj = logistic if kind == "logistic" else quadratic
    rng = np.random.default_rng(2)
    for _ in range(20):
        i = int(rng.integers(obj.n))
        x = rng.standard_normal(obj.d)
        fd = _central_diff(lambda u: obj.value_block(i, u), x)
        g = obj.grad_block(i, x)
        assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))


def test_stacked_gradient_matches_blocks(logistic, quadratic):
    rng = np.random.default_rng(3)
    for obj in (logistic, quadratic):
        x = rng.standard_normal((obj.n, obj.d))
        stacked = obj.grad(x)
        for i in range(obj.n):
            assert np.allclose(stacked[i], obj.grad_block(i, x[i]), atol=1e-12)
        assert abs(obj.value(x) - sum(obj.value_block(i, x[i]) for i in range(obj.n))) < 1e-10


def test_strong_monotonicity_and_lipschitz(logistic, quadratic):
    rng = np.random.default_rng(4)
    for obj in (logistic, quadratic):
        for _ in range(30):
            x = rng.standard_normal((obj.n, obj.d))
            y = rng.standard_normal((obj.n, obj.d))
            dg = obj.grad(x) - obj.grad(y)
            dx = x - y
            inner = float(np.vdot(dg, dx))
            assert inner >= obj.mu * np.vdot(dx, dx) - 1e-9
            assert np.linalg.norm(dg) <= obj.L * np.linalg.norm(dx) * (1 + 1e-9)


def test_two_sided_smoothness_bound(logistic, quadratic):
    rng = np.random.default_rng(5)
    for obj in (logistic, quadratic):
        for _ in range(50):
            i = int(rng.integers(obj.n))
            x = rng.standard_normal(obj.d)
            y = rng.standard_normal(obj.d)
            gap = (
                obj.value_block(i, x)
                - obj.value_block(i, y)
                - float(obj.grad_block(i, y) @ (x - y))
            )
            dist = float((x - y) @ (x - y))
            assert gap >= 0.5 * obj.mu * dist - 1e-9 * (1 + dist)
            assert gap <= 0.5 * obj.L * dist + 1e-9 * (1 + dist)


def test_synthetic_logistic_condition_number_exact():
    obj = objectives.gen_synthetic_logistic(4, 10, 6, seed=3, kappa=10.0)
    assert abs(obj.L / obj.mu - 10.0) <= 1e-9


def test_synthetic_logistic_deterministic():
    a = objectives.gen_synthetic_logistic(3, 8, 5, seed=11, kappa=25.0)
    b = objectives.gen_synthetic_logistic(3, 8, 5, seed=11, kappa=25.0)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.reg == b.reg


def test_stored_L_bounds_empirical_lipschitz(logistic):
    rng = np.random.default_rng(9)
    for _ in range(100):
        i = int(rng.integers(logistic.n))
        x = rng.standard_normal(logistic.d)
        y = rng.standard_normal(logistic.d)
        num = np.linalg.norm(logistic.grad_block(i, x) - logistic.grad_block(i, y))
        assert num <= logistic.L * np.linalg.norm(x - y) * (1 + 1e-9)


def test_reference_minimizer_mean_closed_form():
    # with Q_i = I and c_i = -v_i the average objective peaks at mean(v_i)
    rng = np.random.default_rng(10)
    v = rng.standard_normal((5, 3))
    obj = objectives.QuadraticObjectives(
        np.tile(np.eye(3), (5, 1, 1)), -v, L=1.5, mu=0.5
    )
    x_ref = objectives.reference_minimizer(obj, tol=1e-12)
    assert np.allclose(x_ref, v.mean(axis=0), atol=1e-10)
    assert np.linalg.norm(obj.mean_grad(x_ref)) <= 1e-12


def test_reference_minimizer_iteration_cap():
    obj = objectives.gen_random_quadratic(3, 4, L=50.0, mu=0.5, seed=12)
    with pytest.raises(RuntimeError, match="did not reach"):
        objectives.reference_minimizer(obj, tol=1e-14, max_iter=3)


def test_objective_validation_errors():
    with pytest.raises(ValueError):
        objectives.QuadraticObjectives(np.zeros((2, 3, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="L >= mu > 0"):
        objectives.QuadraticObjectives(
            np.tile(np.eye(2), (2, 1, 1)), np.zeros((2, 2)), L=1.0, mu=0.0
        )
    with pytest.raises(ValueError, match="labels"):
        objectives.LogisticObjectives(np.zeros((1, 2, 2)), np.zeros((1, 2)), 0.1)
    with pytest.raises(ValueError, match="kappa"):
        objectives.gen_synthetic_logistic(2, 3, 2, seed=0, kappa=1.0)
    with pytest.raises(ValueError, match="L > mu > 0"):
        objectives.gen_random_quadratic(2, 3, L=1.0, mu=1.0, seed=0)


def test_quadratic_rejects_asymmetric_curvature():
    quad = np.tile(np.eye(3), (2, 1, 1))
    quad[1, 0, 2] += 1e-6
    with pytest.raises(ValueError, match=r"symmetric: .*1\.000e-06 at matrix 1"):
        objectives.QuadraticObjectives(quad, np.zeros((4, 3)))
    # rounding-level asymmetry relative to the entries is accepted
    quad = np.tile(1e6 * np.eye(3), (2, 1, 1))
    quad[1, 0, 2] += 1e-9
    objectives.QuadraticObjectives(quad, np.zeros((4, 3)), L=2e6, mu=1.0)


def test_quadratic_rejects_group_count_not_dividing_n():
    with pytest.raises(ValueError, match=r"\(3, 2, 2\).*\(4, 2\)"):
        objectives.QuadraticObjectives(np.tile(np.eye(2), (3, 1, 1)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="K=0"):
        objectives.QuadraticObjectives(np.zeros((0, 2, 2)), np.zeros((4, 2)))


@st.composite
def _grouped_quadratics(draw):
    n = draw(st.integers(1, 12))
    groups = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((groups, d, d))
    quad = a @ a.transpose(0, 2, 1) + np.eye(d)
    obj = objectives.QuadraticObjectives(
        quad, rng.standard_normal((n, d)), offsets=rng.standard_normal(n)
    )
    return obj, rng.standard_normal((n, d))


@settings(max_examples=150)
@given(_grouped_quadratics())
@example(  # K = 1: every node shares one matrix
    (objectives.QuadraticObjectives(np.eye(2)[None] * 3.0, np.ones((6, 2))),
     np.arange(12.0).reshape(6, 2))
)
@example(  # K = n: every node owns its matrix
    (objectives.gen_random_quadratic(5, 3, L=4.0, mu=1.0, seed=0),
     np.arange(15.0).reshape(5, 3))
)
def test_grouped_apply_matches_blocks_and_per_node_reference(case):
    obj, x = case
    quad = np.repeat(obj.quad, obj.n // obj.quad.shape[0], axis=0)
    # entrywise bound on the rounding of a length-d dot product
    scale = np.einsum("nij,nj->ni", np.abs(quad), np.abs(x)) + np.abs(obj.lin)
    reference = np.einsum("nij,nj->ni", quad, x) + obj.lin
    blocks = np.array([obj.grad_block(i, x[i]) for i in range(obj.n)])
    grad = obj.grad(x)
    assert np.all(np.abs(grad - reference) <= 1e-12 * scale)
    assert np.all(np.abs(grad - blocks) <= 1e-12 * scale)

    value_scale = (
        0.5 * np.vdot(np.abs(x), scale - np.abs(obj.lin))
        + np.vdot(np.abs(obj.lin), np.abs(x))
        + np.abs(obj.offsets).sum()
    )
    value_ref = (
        0.5 * np.vdot(x, reference - obj.lin)
        + np.vdot(obj.lin, x)
        + obj.offsets.sum()
    )
    value_blocks = sum(obj.value_block(i, x[i]) for i in range(obj.n))
    assert abs(obj.value(x) - value_ref) <= 1e-12 * value_scale
    assert abs(obj.value(x) - value_blocks) <= 1e-12 * value_scale
