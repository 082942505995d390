import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from gossipopt import hardcase, objectives


def _features(obj):
    """The per-node features a_ij, shape (n, m, d), from the signed rows."""
    return -obj.labels[..., None] * obj._signed


def _logistic(features, labels, reg):
    """Logistic objectives with the curvature bound that
    ``gen_synthetic_logistic`` passes as L."""
    top = max(np.linalg.eigvalsh(a.T @ a)[-1] for a in np.asarray(features))
    return objectives.LogisticObjectives(
        features, labels, reg, L=top / (4.0 * labels.shape[1]) + reg
    )


def _node_value(obj, i, x):
    """f_i(x) for one node, straight from the definition: the reference the
    batched ``value`` is checked against."""
    if isinstance(obj, objectives.LogisticObjectives):
        losses = np.logaddexp(0.0, -obj.labels[i] * (_features(obj)[i] @ x))
        return float(losses.mean() + 0.5 * obj.reg * (x @ x))
    q = obj.quad[i // (obj.n // obj.quad.shape[0])]
    return float(0.5 * x @ (q @ x) + obj.lin[i] @ x + obj.offsets[i])


def _node_grad(obj, i, x):
    """Gradient of f_i at x for one node: the reference for ``grad``."""
    if isinstance(obj, objectives.LogisticObjectives):
        a = _features(obj)[i]
        s = expit(-obj.labels[i] * (a @ x))
        return -(a.T @ (obj.labels[i] * s)) / obj.m + obj.reg * x
    return obj.quad[i // (obj.n // obj.quad.shape[0])] @ x + obj.lin[i]


def _node_hessian(obj, i, x):
    """Hessian of f_i at x for one node: the reference for ``mean_hessian``."""
    if isinstance(obj, objectives.LogisticObjectives):
        a = _features(obj)[i]
        t = -obj.labels[i] * (a @ x)
        return (a.T * (expit(t) * expit(-t))) @ a / obj.m + obj.reg * np.eye(obj.d)
    return obj.quad[i // (obj.n // obj.quad.shape[0])]


def _central_diff(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e.flat[j] = h
        g.flat[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.fixture(scope="module")
def logistic():
    return objectives.gen_synthetic_logistic(5, 12, 6, seed=0, kappa=50.0)


@pytest.fixture(scope="module")
def quadratic():
    return objectives.gen_random_quadratic(4, 5, L=9.0, mu=1.5, seed=1)


def test_quadratic_gradient_is_linear_map():
    obj = objectives.QuadraticObjectives(
        np.array([[[2.0, 0.0], [0.0, 2.0]]]), np.zeros((1, 2)), L=2.0, mu=2.0
    )
    assert np.allclose(obj.grad(np.array([[1.0, 1.0]]))[0], [2.0, 2.0])


def test_logistic_gradient_at_zero(logistic):
    # sigmoid(0) = 1/2 and the regularizer vanishes at the origin
    got = logistic.grad(np.zeros((logistic.n, logistic.d)))
    for i in range(logistic.n):
        expected = (
            -(_features(logistic)[i].T @ logistic.labels[i]) * 0.5 / logistic.m
        )
        assert np.allclose(got[i], expected, atol=1e-14)


@pytest.mark.parametrize("kind", ["logistic", "quadratic"])
def test_gradient_matches_finite_differences(kind, logistic, quadratic):
    # value sums the nodes' f_i, so its gradient in the stacked point is grad
    obj = logistic if kind == "logistic" else quadratic
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal((obj.n, obj.d))
        fd = _central_diff(obj.value, x)
        g = obj.grad(x)
        assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))


def test_stacked_gradient_matches_blocks(logistic, quadratic):
    rng = np.random.default_rng(3)
    for obj in (logistic, quadratic):
        x = rng.standard_normal((obj.n, obj.d))
        stacked = obj.grad(x)
        for i in range(obj.n):
            assert np.allclose(stacked[i], _node_grad(obj, i, x[i]), atol=1e-12)
        assert abs(obj.value(x) - sum(_node_value(obj, i, x[i]) for i in range(obj.n))) < 1e-10


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
    # x and y differ in node i only, so the gap is node i's own
    rng = np.random.default_rng(5)
    for obj in (logistic, quadratic):
        for _ in range(50):
            i = int(rng.integers(obj.n))
            y = rng.standard_normal((obj.n, obj.d))
            x = y.copy()
            x[i] = rng.standard_normal(obj.d)
            gap = obj.value(x) - obj.value(y) - float(np.vdot(obj.grad(y), x - y))
            dist = float(np.vdot(x - y, x - y))
            assert gap >= 0.5 * obj.mu * dist - 1e-9 * (1 + dist)
            assert gap <= 0.5 * obj.L * dist + 1e-9 * (1 + dist)


def test_synthetic_logistic_condition_number_exact():
    obj = objectives.gen_synthetic_logistic(4, 10, 6, seed=3, kappa=10.0)
    assert abs(obj.L / obj.mu - 10.0) <= 1e-9


def test_synthetic_logistic_deterministic():
    a = objectives.gen_synthetic_logistic(3, 8, 5, seed=11, kappa=25.0)
    b = objectives.gen_synthetic_logistic(3, 8, 5, seed=11, kappa=25.0)
    assert np.array_equal(a._signed, b._signed)
    assert np.array_equal(a.labels, b.labels)
    assert a.reg == b.reg


def test_stored_L_bounds_empirical_lipschitz(logistic):
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal((logistic.n, logistic.d))
        y = rng.standard_normal((logistic.n, logistic.d))
        num = np.linalg.norm(logistic.grad(x) - logistic.grad(y), axis=1)
        assert np.all(num <= logistic.L * np.linalg.norm(x - y, axis=1) * (1 + 1e-9))


def _count_hessians(obj):
    """Wrap ``obj.mean_hessian`` to count its calls, one per Newton step."""
    calls = []
    hessian = obj.mean_hessian

    def counted(x):
        calls.append(x)
        return hessian(x)

    obj.mean_hessian = counted
    return calls


def test_reference_minimizer_mean_closed_form():
    # with Q_i = I and c_i = -v_i the average objective peaks at mean(v_i)
    rng = np.random.default_rng(10)
    v = rng.standard_normal((5, 3))
    obj = objectives.QuadraticObjectives(
        np.tile(np.eye(3), (5, 1, 1)), -v, L=1.5, mu=0.5
    )
    x_ref = objectives.reference_minimizer(obj)
    assert np.allclose(x_ref, v.mean(axis=0), atol=1e-10)
    assert np.linalg.norm(obj.mean_grad(x_ref)) <= 1e-12


def _separable_logistic():
    # every label is the sign of a planted direction, so only reg keeps the
    # minimizer finite
    rng = np.random.default_rng(13)
    features = rng.standard_normal((5, 20, 4))
    labels = np.where(features @ rng.standard_normal(4) >= 0.0, 1.0, -1.0)
    return _logistic(features, labels, 1e-8)


@pytest.mark.parametrize(
    "make",
    [
        lambda: objectives.gen_synthetic_logistic(10, 30, 20, seed=1, kappa=10.0),
        lambda: objectives.gen_synthetic_logistic(10, 30, 20, seed=1, kappa=1e3),
        lambda: objectives.gen_synthetic_logistic(10, 30, 20, seed=1, kappa=1e6),
        _separable_logistic,
    ],
    ids=["kappa10", "kappa1e3", "kappa1e6", "separable"],
)
def test_newton_reaches_the_float_floor_in_few_steps(make):
    obj = make()
    calls = _count_hessians(obj)
    x_ref = objectives.reference_minimizer(obj)
    assert np.linalg.norm(obj.mean_grad(x_ref)) <= 1e-15
    assert len(calls) <= 30


@pytest.mark.parametrize(
    "make",
    [
        lambda: objectives.gen_random_quadratic(6, 5, L=2.0, mu=1.0, seed=14),
        lambda: objectives.gen_random_quadratic(6, 5, L=100.0, mu=1.0, seed=14),
        lambda: objectives.gen_random_quadratic(6, 5, L=1e4, mu=1.0, seed=14),
        # the second step here stays above a few ulps of |x| but raises the
        # gradient norm, so only the gradient rule stops the solve
        lambda: hardcase.build_hard_instance(9.0, 1e4, 1.0, 834).objectives,
    ],
    ids=["L2", "L100", "L1e4", "hard_L1e4"],
)
def test_newton_solves_a_quadratic_in_two_steps(make):
    obj = make()
    calls = _count_hessians(obj)
    x_ref = objectives.reference_minimizer(obj)
    assert len(calls) <= 2
    exact = np.linalg.solve(obj.quad.mean(axis=0), -obj.lin.mean(axis=0))
    assert np.linalg.norm(x_ref - exact) <= 1e-12 * obj.L * np.linalg.norm(exact)


def test_reference_minimizer_iteration_cap():
    class Overcurved(objectives.QuadraticObjectives):
        # four times the true curvature: each step removes a quarter of the
        # error, so the gradient keeps falling past the step cap
        def mean_hessian(self, x):
            return 4.0 * super().mean_hessian(x)

    base = objectives.gen_random_quadratic(3, 4, L=50.0, mu=0.5, seed=12)
    obj = Overcurved(base.quad, base.lin, L=base.L, mu=base.mu)
    with pytest.raises(RuntimeError, match="still falling after 50 steps"):
        objectives.reference_minimizer(obj)


def test_objective_validation_errors():
    with pytest.raises(ValueError):
        objectives.QuadraticObjectives(np.zeros((2, 3, 2)), np.zeros((2, 3)), 1.0, 1.0)
    with pytest.raises(ValueError, match="L >= mu > 0"):
        objectives.QuadraticObjectives(
            np.tile(np.eye(2), (2, 1, 1)), np.zeros((2, 2)), L=1.0, mu=0.0
        )
    with pytest.raises(ValueError, match="labels"):
        objectives.LogisticObjectives(np.zeros((1, 2, 2)), np.zeros((1, 2)), 0.1, 1.0)
    with pytest.raises(ValueError, match="kappa"):
        objectives.gen_synthetic_logistic(2, 3, 2, seed=0, kappa=1.0)
    with pytest.raises(ValueError, match="L > mu > 0"):
        objectives.gen_random_quadratic(2, 3, L=1.0, mu=1.0, seed=0)


def test_quadratic_rejects_asymmetric_curvature():
    quad = np.tile(np.eye(3), (2, 1, 1))
    quad[1, 0, 2] += 1e-6
    with pytest.raises(ValueError, match=r"symmetric: .*1\.000e-06 at matrix 1"):
        objectives.QuadraticObjectives(quad, np.zeros((4, 3)), L=1.0, mu=1.0)
    # rounding-level asymmetry relative to the entries is accepted
    quad = np.tile(1e6 * np.eye(3), (2, 1, 1))
    quad[1, 0, 2] += 1e-9
    objectives.QuadraticObjectives(quad, np.zeros((4, 3)), L=2e6, mu=1.0)


def test_quadratic_rejects_group_count_not_dividing_n():
    with pytest.raises(ValueError, match=r"\(3, 2, 2\).*\(4, 2\)"):
        objectives.QuadraticObjectives(np.tile(np.eye(2), (3, 1, 1)), np.zeros((4, 2)), 1.0, 1.0)
    with pytest.raises(ValueError, match="K=0"):
        objectives.QuadraticObjectives(np.zeros((0, 2, 2)), np.zeros((4, 2)), 1.0, 1.0)


@pytest.mark.parametrize(
    "shape", [(3,), (6, 6), (), (6, 1)], ids=["short", "square", "scalar", "column"]
)
def test_quadratic_rejects_offsets_of_the_wrong_shape(shape):
    # offsets of any other shape broadcast into value: n=6 with (3,) summed to 3
    with pytest.raises(ValueError, match=rf"offsets shape {re.escape(str(shape))}.*\(6,\)"):
        objectives.QuadraticObjectives(
            np.eye(2)[None], np.zeros((6, 2)), L=1.0, mu=1.0, offsets=np.ones(shape)
        )


@st.composite
def _grouped_quadratics(draw, max_d=6, shared=False):
    """Quadratics on n nodes in K groups, K a divisor of n that is below n
    when ``shared``, and a point."""
    n = draw(st.integers(2 if shared else 1, 12))
    top = n - 1 if shared else n
    groups = draw(st.sampled_from([k for k in range(1, top + 1) if n % k == 0]))
    d = draw(st.integers(1, max_d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((groups, d, d))
    quad = a @ a.transpose(0, 2, 1) + np.eye(d)
    eigs = np.linalg.eigvalsh(quad)
    obj = objectives.QuadraticObjectives(
        quad, rng.standard_normal((n, d)), L=eigs.max(), mu=eigs.min(),
        offsets=rng.standard_normal(n),
    )
    return obj, rng.standard_normal((n, d))


@settings(max_examples=150)
@given(_grouped_quadratics())
@example(  # K = 1: every node shares one matrix
    (objectives.QuadraticObjectives(np.eye(2)[None] * 3.0, np.ones((6, 2)), 3.0, 3.0),
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
    blocks = np.array([_node_grad(obj, i, x[i]) for i in range(obj.n)])
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
    value_blocks = sum(_node_value(obj, i, x[i]) for i in range(obj.n))
    assert abs(obj.value(x) - value_ref) <= 1e-12 * value_scale
    assert abs(obj.value(x) - value_blocks) <= 1e-12 * value_scale


@st.composite
def _logistic_cases(draw):
    n, m, d = draw(st.integers(1, 8)), draw(st.integers(1, 16)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n, m, d))
    labels = np.where(rng.random((n, m)) < 0.5, -1.0, 1.0)
    obj = _logistic(features, labels, draw(st.floats(1e-4, 1.0)))
    x = draw(st.sampled_from([0.1, 1.0, 10.0])) * rng.standard_normal((n, d))
    if draw(st.booleans()):
        # scale each node's point until its smallest margin |b a'x| is 801
        margins = np.abs(np.einsum("nmd,nd->nm", features, x))
        x *= 801.0 / margins.min(axis=1, keepdims=True)
    return obj, x


@settings(max_examples=150)
@given(_logistic_cases())
@example(  # margins of -900 and +900 at node 0, -1000 twice at node 1
    (_logistic(np.ones((2, 2, 1)), np.array([[1.0, -1.0], [-1.0, -1.0]]), reg=0.5),
     np.array([[900.0], [-1000.0]]))
)
def test_logistic_oracle_matches_per_node_reference(case):
    obj, x = case
    features = _features(obj)
    t = -obj.labels * np.einsum("nmd,nd->nm", features, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing exp would warn
        value, grad, mean = obj.value(x), obj.grad(x), obj.mean_grad(x[0])
    assert np.isfinite(value)
    big = np.abs(t) >= 800.0
    # there log(1 + e^t) is max(t, 0) to the last bit
    assert np.array_equal(np.logaddexp(0.0, t[big]), np.maximum(t[big], 0.0))

    # Error scales: a margin's rounding is at most d eps |a|'|x|, and it moves
    # a loss by s times that and a sigmoid by s (1 - s) times that.
    def scales(t, bound):
        s = expit(t)
        losses = np.logaddexp(0.0, t)
        per_row = np.einsum("nmd,nm->nd", np.abs(features), s + s * (1 - s) * bound)
        return (losses + s * bound).sum() / obj.m, per_row / obj.m

    bound = np.einsum("nmd,nd->nm", np.abs(features), np.abs(x))
    value_scale, grad_scale = scales(t, bound)
    value_ref = sum(_node_value(obj, i, x[i]) for i in range(obj.n))
    assert abs(value - value_ref) <= 1e-13 * (value_scale + 0.5 * obj.reg * np.vdot(x, x))
    grad_ref = np.array([_node_grad(obj, i, x[i]) for i in range(obj.n)])
    assert np.all(np.abs(grad - grad_ref) <= 1e-13 * (grad_scale + obj.reg * np.abs(x)))

    x0 = x[0]
    t0 = -obj.labels * (features @ x0)
    _, mean_scale = scales(t0, np.abs(features) @ np.abs(x0))
    mean_ref = np.mean([_node_grad(obj, i, x0) for i in range(obj.n)], axis=0)
    tol = 1e-13 * (mean_scale.mean(axis=0) + obj.reg * np.abs(x0))
    assert np.all(np.abs(mean - mean_ref) <= tol)


@settings(max_examples=150)
@given(
    case=st.one_of(
        _logistic_cases(),
        _grouped_quadratics(),
        _grouped_quadratics(max_d=40, shared=True),
    ),
    count=st.integers(1, 49),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_value_matches_each_point_bit_for_bit(case, count, seed):
    # The solver's potential evaluates x_f of a block of iterates as a
    # strided view of its (count, 7, n, d) history: one point per iterate.
    # A quadratic stack takes one curvature matmul over all its points, in
    # blocks of several nodes when there are fewer groups than nodes.
    obj, x = case
    rng = np.random.default_rng(seed)
    history = x * rng.uniform(0.5, 2.0, (count, 7, 1, 1))
    history += rng.standard_normal(history.shape)
    for stack in (history[:, 4], history[:, 4:6], history[:, 4:6].swapaxes(0, 1)):
        got = obj.value(stack)
        assert got.shape == stack.shape[:-2]
        want = [obj.value(np.ascontiguousarray(p)) for p in stack.reshape(-1, obj.n, obj.d)]
        assert got.ravel().tolist() == want
    assert isinstance(obj.value(history[0, 4]), float)


@settings(max_examples=60)
@given(
    count=st.integers(1, 64),
    size=st.integers(1, 5000),
    strided=st.booleans(),
    other=st.sampled_from(["none", "vector", "rows"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=64, size=5000, strided=True, other="vector", seed=0)
@example(count=64, size=5000, strided=False, other="none", seed=1)
@example(count=49, size=4000, strided=True, other="rows", seed=2)
def test_row_dots_have_the_bits_of_vdot(count, size, strided, other, seed):
    # The solver takes a block's dot products, one per iterate, in one
    # _row_dots call, and its records keep the bits of one vdot each. The
    # strided rows are those of lyapunov's flat[4::7], one x_f - x* row per
    # iterate; each row, the vector and the paired rows get a magnitude from
    # 1e-150 to 1e100. A stacked quadratic value pairs each point's row
    # with its curvature row.
    rng = np.random.default_rng(seed)
    base = 10.0 ** rng.uniform(-150, 100, (7 * count + 4, 1))
    base = base * rng.standard_normal((7 * count + 4, size))
    rows = base[4::7] if strided else base[:count]
    assert rows.shape == (count, size)
    if other == "vector":
        vector = 10.0 ** rng.uniform(-150, 100) * rng.standard_normal(size)
        got = objectives._row_dots(rows, vector)
        want = [np.vdot(vector, row) for row in rows]
    elif other == "rows":
        paired = 10.0 ** rng.uniform(-150, 100, (count, 1))
        paired = paired * rng.standard_normal((count, size))
        got = objectives._row_dots(rows, paired)
        want = [np.vdot(row, pair) for row, pair in zip(rows, paired)]
    else:
        got = objectives._row_dots(rows)
        want = [np.vdot(row, row) for row in rows]
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=50)
@given(st.one_of(_logistic_cases(), _grouped_quadratics()))
@example((objectives.gen_synthetic_logistic(5, 12, 6, seed=0, kappa=50.0),
          np.arange(30.0).reshape(5, 6) / 10.0))
@example((objectives.gen_random_quadratic(4, 5, L=9.0, mu=1.5, seed=1),
          np.arange(20.0).reshape(4, 5) / 10.0))
def test_grad_into_its_own_input_has_the_bits_of_grad(case):
    # The solver's step writes the gradient over the point it is taken at.
    obj, x = case
    want = obj.grad(x)
    same = x.copy()
    assert obj.grad(same, out=same) is same
    assert same.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(st.one_of(_logistic_cases(), _grouped_quadratics()))
def test_mean_hessian_matches_per_node_reference(case):
    obj, x = case
    x0 = x[0]
    hess = obj.mean_hessian(x0)
    reference = np.mean([_node_hessian(obj, i, x0) for i in range(obj.n)], axis=0)
    if isinstance(obj, objectives.QuadraticObjectives):
        scale = np.abs(obj.quad).mean(axis=0)
    else:
        # each term s (1 - s) a a' is positive, and rounding a margin moves
        # its weight by at most s (1 - s) times d eps |a|'|x|
        a = _features(obj).reshape(-1, obj.d)
        t = a @ x0
        weight = expit(t) * expit(-t) * (1 + np.abs(a) @ np.abs(x0))
        scale = (np.abs(a).T * weight) @ np.abs(a) / (obj.n * obj.m) + obj.reg * np.eye(obj.d)
    assert hess.shape == (obj.d, obj.d)
    assert np.all(np.abs(hess - reference) <= 1e-12 * scale)


@pytest.mark.parametrize("n, d, seed", [(5, 2, 0), (30, 50, 11), (7, 3, 123456789), (100, 20, 3)])
def test_random_quadratic_equals_per_node_construction(n, d, seed):
    # The generator draws node by node and runs its algebra stacked over
    # blocks of nodes: 20 blocks of 5 at (100, 20), one node a block at
    # (30, 50), one block for the small cases. This is the one-node-at-a-time
    # construction it must equal bit for bit.
    L, mu = 100.0, 1.0
    rng = np.random.default_rng(seed)
    quad = np.empty((n, d, d))
    for i in range(n):
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(mu, L, size=d)
        eigs[0], eigs[-1] = mu, L
        quad[i] = (basis * eigs) @ basis.T
        quad[i] = 0.5 * (quad[i] + quad[i].T)
    lin = rng.standard_normal((n, d))
    obj = objectives.gen_random_quadratic(n, d, L=L, mu=mu, seed=seed)
    assert np.array_equal(obj.quad, quad)
    assert np.array_equal(obj.lin, lin)
