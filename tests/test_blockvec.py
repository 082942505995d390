import math

import numpy as np
import pytest

from gossipopt import blockvec, topology

PATH2_W = np.array([[0.5, -0.5], [-0.5, 0.5]])


def test_mix_kills_consensus_vector():
    v = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert np.allclose(blockvec.mix(PATH2_W, v), 0.0, atol=1e-15)


def test_mix_fixes_disagreement_eigenvector():
    # (1, -1) is the eigenvector of the path-2 gossip matrix with eigenvalue 1
    v = np.array([[1.0], [-1.0]])
    assert np.allclose(blockvec.mix(PATH2_W, v), v, atol=1e-15)


def test_mix_output_has_zero_block_sum():
    rng = np.random.default_rng(0)
    mixing = topology.build_mixing(topology.ring_star_schedule(6))
    for q in range(2):
        v = rng.standard_normal((6, 4))
        out = blockvec.mix(mixing.w(q), v)
        assert np.linalg.norm(out.sum(axis=0)) <= 1e-10 * (1 + np.linalg.norm(v))


def test_mix_shape_errors():
    with pytest.raises(ValueError, match="mismatch"):
        blockvec.mix(PATH2_W, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="2-d"):
        blockvec.mix(PATH2_W, np.zeros(2))
    with pytest.raises(ValueError, match="square"):
        blockvec.mix(np.zeros((2, 3)), np.zeros((2, 2)))


def test_project_consensus_examples():
    assert np.allclose(
        blockvec.project_consensus(np.array([[1.0], [1.0], [1.0]])), 0.0
    )
    assert np.allclose(
        blockvec.project_consensus(np.array([[2.0], [0.0]])),
        np.array([[1.0], [-1.0]]),
    )


def test_project_consensus_projects_each_vector_of_a_stack():
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((3, 7, 5, 2))[:, 3]  # strided, as in a history
    got = blockvec.project_consensus(stack)
    for v, p in zip(stack, got):
        assert np.array_equal(p, blockvec.project_consensus(v))
    out = np.empty_like(stack)
    assert blockvec.project_consensus(stack, out=out) is out
    assert np.array_equal(out, got)
    with pytest.raises(ValueError, match=r"\(\.\.\., n, d\)"):
        blockvec.project_consensus(np.zeros(4))


def test_project_consensus_idempotent_and_orthogonal():
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.standard_normal((5, 3))
        p = blockvec.project_consensus(v)
        assert np.allclose(blockvec.project_consensus(p), p, atol=1e-12)
        assert abs(np.vdot(p, v - p)) <= 1e-10 * (1 + np.vdot(v, v))


def test_multi_mix_with_one_round_equals_mix():
    rng = np.random.default_rng(3)
    mixing = topology.build_mixing(topology.ring_star_schedule(5))
    for k in range(4):
        v = rng.standard_normal((5, 3))
        a = blockvec.multi_mix(mixing, k, 1, v)
        b = blockvec.mix(mixing.w(k), v)
        assert np.allclose(a, b, atol=1e-14)


def test_multi_mix_kills_consensus_vector():
    mixing = topology.build_mixing(topology.star_cycle_schedule(9))
    v = np.tile(np.array([2.0, -1.0]), (9, 1))
    out = blockvec.multi_mix(mixing, 0, 4, v)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_multi_mix_star3_halving_bound():
    # chi = 3, T = ceil(3 ln 2) = 3, so the contraction is (2/3)^3 < 1/2
    mixing = topology.build_mixing(topology.star_cycle_schedule(3))
    assert math.ceil(mixing.chi * math.log(2.0)) == 3
    rng = np.random.default_rng(4)
    for k in range(5):
        v = rng.standard_normal((3, 2))
        v -= v.mean(axis=0)
        out = blockvec.multi_mix(mixing, k, 3, v)
        ratio = np.vdot(out - v, out - v) / np.vdot(v, v)
        assert ratio <= (2.0 / 3.0) ** 3
        assert ratio <= 0.5


@pytest.mark.parametrize(
    "sched",
    [
        topology.ring_star_schedule(8),
        topology.star_cycle_schedule(9),
        topology.random_geometric_schedule(10, 0.6, 5, 2),
    ],
    ids=["ring_star", "star_cycle", "random_geometric"],
)
def test_multi_mix_contraction_for_each_T(sched):
    mixing = topology.build_mixing(sched)
    chi = mixing.chi
    rng = np.random.default_rng(5)
    for T in (1, 2, math.ceil(chi * math.log(2.0))):
        bound = (1.0 - 1.0 / chi) ** T
        for k in range(6):
            v = rng.standard_normal((sched.n, 50))
            v -= v.mean(axis=0)
            out = blockvec.multi_mix(mixing, k, T, v)
            diff = out - v
            ratios = (diff**2).sum(axis=0) / (v**2).sum(axis=0)
            assert ratios.max() <= bound
            if T == math.ceil(chi * math.log(2.0)):
                assert ratios.max() <= 0.5


def test_mix_linearity():
    rng = np.random.default_rng(6)
    mixing = topology.build_mixing(topology.ring_star_schedule(6))
    w = mixing.w(0)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        u = rng.standard_normal((6, 3))
        v = rng.standard_normal((6, 3))
        lhs = blockvec.mix(w, a * u + b * v)
        rhs = a * blockvec.mix(w, u) + b * blockvec.mix(w, v)
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())


def test_multi_mix_rejects_bad_T():
    mixing = topology.build_mixing(topology.ring_star_schedule(4))
    with pytest.raises(ValueError):
        blockvec.multi_mix(mixing, 0, 0, np.zeros((4, 1)))
