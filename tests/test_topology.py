import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gossipopt import blockvec, topology


def _connected_by_bfs(edges, n):
    # independent connectivity check (breadth-first search, no union-find)
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == n


def test_ring_star_edges_match_definitions():
    sched = topology.ring_star_schedule(4)
    assert sched.edges(0).tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert sched.edges(1).tolist() == [[0, 1], [0, 2], [0, 3]]
    assert sched.edges(2) is sched.edges(0)
    assert sched.cycle == 2


def test_edge_sets_drop_repeated_pairs():
    # the ring on two nodes lists its one edge twice, once from each end
    assert topology.ring_edges(2).tolist() == [[0, 1]]
    assert topology.ring_edges(3).tolist() == [[0, 1], [0, 2], [1, 2]]


def test_star_cycle_centers_have_period_n_over_3():
    sched = topology.star_cycle_schedule(9)
    assert sched.cycle == 3
    for q in range(12):
        center = topology.star_cycle_center(9, q)
        assert 3 <= center <= 5
        assert np.array_equal(sched.edges(q), topology.star_edges(9, center))
    assert [topology.star_cycle_center(9, q) for q in range(4)] == [3, 4, 5, 3]


def test_random_geometric_is_cyclic_and_deterministic():
    sched = topology.random_geometric_schedule(12, 0.5, pool_size=7, seed=7)
    assert sched.edges(0) is sched.edges(7)
    assert sched.edges(3) is sched.edges(10)
    again = topology.random_geometric_schedule(12, 0.5, pool_size=7, seed=7)
    assert [e.tolist() for e in sched.pool] == [e.tolist() for e in again.pool]
    other = topology.random_geometric_schedule(12, 0.5, pool_size=7, seed=8)
    assert [e.tolist() for e in sched.pool] != [e.tolist() for e in other.pool]


@pytest.mark.parametrize(
    "sched",
    [
        topology.ring_star_schedule(7),
        topology.star_cycle_schedule(9),
        topology.random_geometric_schedule(20, 0.3, pool_size=4, seed=5),
        # every node its own component: all 19 edges are bridges
        topology.random_geometric_schedule(20, 0.01, pool_size=2, seed=0),
    ],
    ids=["ring_star", "star_cycle", "random_geometric", "random_geometric_bridged"],
)
def test_every_edge_set_is_a_read_only_canonical_array(sched):
    n = sched.n
    for q in range(sched.cycle):
        edges = sched.edges(q)
        assert type(edges) is np.ndarray and edges.dtype == np.int64
        assert edges.ndim == 2 and edges.shape[1] == 2 and len(edges) > 0
        assert edges.flags.c_contiguous and not edges.flags.writeable
        i, j = edges[:, 0], edges[:, 1]
        assert np.all(0 <= i) and np.all(i < j) and np.all(j < n)
        assert np.all(np.diff(i * n + j) > 0)
        with pytest.raises(ValueError, match="read-only"):
            edges[0, 0] = 1


def test_random_geometric_pool_holds_two_int64_per_edge():
    # 104,951 edges over the 50 graphs take 1.68 MB as two int64 each
    tracemalloc.start()
    try:
        sched = topology.random_geometric_schedule(200, 0.2, 50, 7)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, sched.pool)) == 104951
    assert traced <= 2.5e6


def test_random_geometric_pool_graphs_are_connected():
    sched = topology.random_geometric_schedule(30, 0.2, pool_size=12, seed=3)
    for q in range(sched.cycle):
        edges = sched.edges(q)
        assert _connected_by_bfs(edges, 30)
        assert all(i != j for i, j in edges)


def _random_geometric_by_loops(n, radius, seed, index):
    # reference: the same coordinates and distances, a pair loop, and
    # union-find bridging along the index path
    coords = np.empty((n, 2))
    for i in range(n):
        coords[i] = np.random.default_rng([seed, index, i]).random(2)
    diffs = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] < radius
    ]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(j)] = find(i)
    for i in range(n - 1):
        if find(i) != find(i + 1):
            parent[find(i + 1)] = find(i)
            edges.append((i, i + 1))
    return tuple(sorted(set(edges)))


def _laplacian_by_loops(edges, n):
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    return lap


@settings(max_examples=80)
@given(
    st.integers(2, 60),
    st.floats(0.01, 1.4),
    st.integers(0, 2**16),
    st.integers(0, 100),
)
# every node its own component: 19 bridges
@example(n=20, radius=0.01, seed=0, index=0)
# 8 components of sizes 1, 1, 2, 3, 4, 6, 7 and 16: 7 bridges
@example(n=40, radius=0.15, seed=0, index=0)
# seeds and indices of more than one 32-bit word, six entropy words a key
@example(n=30, radius=0.3, seed=2**32 + 5, index=3)
@example(n=12, radius=0.5, seed=2**64 + 1, index=2**33)
def test_random_geometric_edges_match_loop_reference(n, radius, seed, index):
    edges = topology._random_geometric_pool(n, radius, seed, (index,))[0]
    reference = _random_geometric_by_loops(n, radius, seed, index)
    assert edges.tolist() == [list(e) for e in reference]
    assert edges.dtype == np.int64 and edges.flags.c_contiguous
    assert not edges.flags.writeable
    assert np.array_equal(
        topology.laplacian(edges, n), _laplacian_by_loops(edges, n)
    )


# seeds on either side of a 32-bit word boundary and beyond; the indices of
# one call split into the same number of words, one or two
_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1]), st.integers(0, 2**96)
)
_INDICES = st.one_of(
    st.lists(st.sampled_from([0, 1, 2**32 - 1]), min_size=1, max_size=3),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    st.lists(st.integers(2**32, 2**33), min_size=1, max_size=2),
)


@settings(max_examples=40)
@given(_SEEDS, _INDICES, st.integers(1, 200))
@example(seed=2**40 + 3, indices=[0, 49], n=200)
def test_unit_square_points_equal_default_rng_bit_for_bit(seed, indices, n):
    # no uint overflow warning may fire on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = topology._unit_square_points(seed, indices, n)
    expected = [
        [np.random.default_rng([seed, g, i]).random(2) for i in range(n)]
        for g in indices
    ]
    assert points.dtype == np.float64
    assert points.tobytes() == np.array(expected).tobytes()


def _no_draws(*args):
    raise AssertionError("drew coordinates for a negative seed or index")


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: topology.random_geometric_schedule(5, 0.5, 3, -1), "seed"),
        (lambda: topology._random_geometric_pool(5, 0.5, -1, (0,))[0], "seed"),
        (lambda: topology._random_geometric_pool(5, 0.5, 0, (-2,))[0], "graph index"),
    ],
    ids=["schedule_seed", "edges_seed", "edges_index"],
)
def test_negative_seed_or_index_rejected_before_drawing(monkeypatch, build, named):
    # splitting a negative int into 32-bit words would never end
    monkeypatch.setattr(topology, "_unit_square_points", _no_draws)
    with pytest.raises(ValueError, match=f"{named} must be >= 0"):
        build()


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 2), (1, 2, 0)],
        ((0,), (1, 2)),
        [(0, 1), [1, 2, 0]],
        np.array([[0, 1, 2], [1, 2, 0]]),
        np.array([0, 1, 1, 2]),
    ],
    ids=["triples", "single_and_pair", "pair_and_triple", "array_triples", "flat_array"],
)
def test_edges_that_are_not_pairs_rejected(edges):
    with pytest.raises(ValueError, match="every edge must be a pair"):
        topology.laplacian(edges, 3)
    with pytest.raises(ValueError, match="every edge must be a pair"):
        topology.validate_gossip(np.zeros((3, 3)), edges, 2.0)


@pytest.mark.parametrize(
    "edges",
    [
        [(0.5, 1)],
        [(0, 1.9)],
        [("0", 1)],
        np.array([[0.5, 1.0]]),
        [(False, True)],
    ],
    ids=["float_first", "float_second", "string", "float_array", "bool"],
)
def test_edges_with_non_integer_endpoints_rejected(edges):
    # unchecked, each was read as the edge (0, 1)
    with pytest.raises(ValueError, match="endpoints must be integers"):
        topology.laplacian(edges, 3)
    with pytest.raises(ValueError, match="endpoints must be integers"):
        topology.validate_gossip(np.zeros((3, 3)), edges, 2.0)


def test_laplacian_counts_duplicates_and_rejects_out_of_range_nodes():
    edges = [(0, 1), (1, 0), (1, 2)]
    assert np.array_equal(topology.laplacian(edges, 3), _laplacian_by_loops(edges, 3))
    with pytest.raises(ValueError, match="out of range"):
        topology.laplacian([(0, 3)], 3)
    with pytest.raises(ValueError, match="out of range"):
        topology.laplacian([(0, 1), (1, -1)], 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: topology.ring_star_schedule(1),
        lambda: topology.star_cycle_schedule(8),
        lambda: topology.star_cycle_schedule(0),
        lambda: topology.random_geometric_schedule(5, 0.0, 3, 1),
        lambda: topology.random_geometric_schedule(5, 1.5, 3, 1),
        lambda: topology.random_geometric_schedule(5, 0.4, 0, 1),
        lambda: topology.make_schedule("nope", 4),
        lambda: topology.make_schedule("ring_star", 4, radius=0.3, pool_size=9),
        lambda: topology.make_schedule(
            "random_geometric", 5, radius=0.5, pool_size=2, seed=0, kappa=5.0
        ),
    ],
)
def test_invalid_schedules_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("pool_size", [2.5, 3.0, True, "3", 0])
def test_geometric_pool_size_must_be_an_integer_from_1(pool_size):
    # unchecked, 2.5 raised TypeError from range()
    with pytest.raises(ValueError, match=re.escape(
        f"pool_size must be an integer >= 1, got {pool_size!r}"
    )):
        topology.random_geometric_schedule(5, 0.8, pool_size, 0)


def test_make_schedule_dispatch():
    sched = topology.make_schedule(
        "random_geometric", 8, radius=0.6, pool_size=4, seed=2
    )
    assert sched.kind == "random_geometric"
    assert topology.make_schedule("ring_star", 5).kind == "ring_star"
    assert topology.make_schedule("star_cycle", 6).kind == "star_cycle"


def _mixing_of(pool, n):
    return topology.build_mixing(topology.TopologySchedule(n=n, kind="custom", pool=pool))


def _position_chi(edges, n):
    """Laplacian condition number of one connected edge set."""
    evals = np.linalg.eigvalsh(topology.laplacian(edges, n))
    return evals[-1] / evals[1]


def test_path2_gossip_matrix_frozen():
    # Laplacian [[1,-1],[-1,1]] has lambda_max = 2
    w = _mixing_of((((0, 1),),), 2).w(0)
    assert np.allclose(w, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_star3_spectrum_frozen():
    # Laplacian [[2,-1,-1],[-1,1,0],[-1,0,1]] has eigenvalues {0, 1, 3}
    lap = topology.laplacian(topology.star_edges(3, 0), 3)
    evals = np.linalg.eigvalsh(lap)
    assert np.allclose(evals, [0.0, 1.0, 3.0], atol=1e-12)
    chi = topology.build_mixing(topology.star_cycle_schedule(3)).chi
    assert abs(chi - 3.0) < 1e-9


def test_gossip_annihilates_consensus():
    for sched in (
        topology.ring_star_schedule(6),
        topology.star_cycle_schedule(6),
        topology.random_geometric_schedule(6, 0.8, 3, 1),
    ):
        mixing = topology.build_mixing(sched)
        for q in range(sched.cycle):
            w = mixing.w(q)
            assert np.abs(w @ np.ones(6)).max() <= 1e-12
            assert np.abs(np.ones(6) @ w).max() <= 1e-12


def test_disconnected_graph_rejected():
    split = ((0, 1), (2, 3))
    with pytest.raises(ValueError, match="connected"):
        _mixing_of((split,), 4)
    # at any position of the cycle, not only the first
    with pytest.raises(ValueError, match="connected"):
        _mixing_of((topology.ring_edges(4), split), 4)


def test_edgeless_graph_rejected():
    # every Laplacian eigenvalue is zero, so lambda_max is too
    with pytest.raises(ValueError, match="connected"):
        _mixing_of(((),), 4)


def test_estimate_chi_complete_graph_is_one():
    # all nonzero Laplacian eigenvalues of K_n equal n
    for n in (3, 4, 6):
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        assert abs(_mixing_of((edges,), n).chi - 1.0) <= 1e-12


def test_estimate_chi_takes_max_over_rounds():
    k3 = ((0, 1), (0, 2), (1, 2))
    star3 = topology.star_edges(3, 0)
    mixing = _mixing_of((k3, star3), 3)
    assert abs(mixing.chi - 3.0) < 1e-9
    assert abs(_position_chi(k3, 3) - 1.0) <= 1e-12
    assert mixing.chi == max(_position_chi(k3, 3), _position_chi(star3, 3))


def test_contraction_holds_with_measured_chi():
    rng = np.random.default_rng(0)
    for sched in (
        topology.ring_star_schedule(8),
        topology.star_cycle_schedule(9),
        topology.random_geometric_schedule(10, 0.6, 5, 2),
    ):
        mixing = topology.build_mixing(sched)
        bound = 1.0 - 1.0 / mixing.chi
        for q in range(sched.cycle):
            x = rng.standard_normal((100, sched.n))
            x -= x.mean(axis=1, keepdims=True)
            diff = x @ mixing.w(q).T - x
            ratios = (diff**2).sum(axis=1) / (x**2).sum(axis=1)
            assert ratios.max() <= bound


def test_validate_gossip_passes_for_constructed_matrices():
    sched = topology.ring_star_schedule(7)
    mixing = topology.build_mixing(sched)
    for q in range(sched.cycle):
        report = topology.validate_gossip(mixing.w(q), sched.edges(q), mixing.chi)
        assert report.passed
        assert report.spectral_worst_ratio is not None
        assert report.spectral_worst_ratio <= 1.0 - 1.0 / mixing.chi + 1e-12


def test_validate_gossip_contraction_is_exact_for_nonsymmetric_matrices():
    # W = P0 + s B is non-symmetric with exact kernel and range; s puts its
    # exact worst zero-sum ratio just below, then 0.1% above, the chi = 4
    # bound, where random zero-sum samples rarely reach the worst direction
    n = 4
    p0 = np.eye(n) - 1.0 / n
    b = p0 @ np.random.default_rng(1).standard_normal((n, n)) @ p0
    basis = np.linalg.svd(p0)[0][:, : n - 1]  # orthonormal zero-sum basis
    top = np.linalg.svd(b @ basis, compute_uv=False)[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for factor in (0.999, 1.001):
        w = p0 + math.sqrt(factor * 0.75) / top * b
        assert not np.allclose(w, w.T)
        report = topology.validate_gossip(w, edges, chi=4.0)
        assert report.sparsity_ok and report.kernel_ok and report.range_ok
        assert report.contraction_ok == (factor < 1)
        exact = np.linalg.svd((w - np.eye(n)) @ basis, compute_uv=False)[0] ** 2
        assert math.isclose(report.spectral_worst_ratio, exact, rel_tol=1e-12)


def test_validate_gossip_flags_sparsity_violation():
    edges = topology.star_edges(4, 0)
    w = _mixing_of((edges,), 4).w(0).copy()
    w[1, 2] = 0.3  # (1, 2) is not a star edge
    report = topology.validate_gossip(w, edges, chi=4.0)
    assert not report.sparsity_ok
    assert not report.passed


def test_validate_gossip_flags_kernel_violation():
    edges = topology.ring_edges(4)
    report = topology.validate_gossip(np.eye(4), edges, chi=1.0)
    assert not report.kernel_ok
    assert not report.passed


def test_mixing_schedule_matrices_are_read_only():
    mixing = topology.build_mixing(topology.ring_star_schedule(4))
    with pytest.raises(ValueError):
        mixing.w(0)[0, 0] = 1.0


def test_gossip_csv_full_precision(tmp_path):
    w = _mixing_of((topology.ring_edges(5),), 5).w(0)
    path = tmp_path / "w.csv"
    topology.save_gossip_csv(w, path)
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in path.read_text().strip().splitlines()
    ]
    assert np.array_equal(np.array(rows), w)


def test_ring_star_chi_near_thousand_for_n100():
    # the ring dominates: lambda_max ~ 4, lambda_min_plus ~ (2 pi / n)^2
    sched = topology.ring_star_schedule(100)
    mixing = topology.build_mixing(sched)
    assert 900 < mixing.chi < 1100
    assert abs(_position_chi(sched.edges(1), 100) - 100.0) < 1e-6
    assert mixing.chi == _position_chi(sched.edges(0), 100)


@st.composite
def _connected_pools(draw):
    # each graph is a random spanning tree plus random extra edges
    n = draw(st.integers(2, 12))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges += draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
        pool.append(tuple(sorted(set(edges))))  # canonical: i < j, no repeats
    return topology.TopologySchedule(n=n, kind="custom", pool=tuple(pool))


@settings(max_examples=60)
@given(_connected_pools())
def test_build_mixing_matches_per_graph_spectra(sched):
    mixing = topology.build_mixing(sched)
    chis = []
    for q in range(sched.cycle):
        lap = topology.laplacian(sched.edges(q), sched.n)
        evals = np.linalg.eigvalsh(lap)
        assert np.array_equal(mixing.w(q), lap / evals[-1])
        lam_min_plus = evals[evals > topology.EIGENVALUE_FLOOR * evals[-1]][0]
        chis.append(evals[-1] / lam_min_plus)
    assert mixing.chi == max(chis)


_PATH5 = ((0, 1), (1, 2), (2, 3), (3, 4))


def _per_round_mix(mixing, k, T, v):
    # reference: the T rounds of iteration k one at a time
    r = v.copy()
    for q in range(k * T, (k + 1) * T):
        r -= mixing.w(q) @ r
    return v - r


@settings(max_examples=60)
@given(_connected_pools(), st.integers(0, 6), st.data())
def test_compound_matches_sequential_multi_mix(sched, whole, data):
    mixing = topology.build_mixing(sched)
    cycle = sched.cycle
    # T is whole cycles plus rest leftover rounds
    T = whole * cycle + data.draw(st.integers(0, cycle - 1))
    assume(T >= 1)
    k = data.draw(st.integers(0, 3 * cycle))
    seed = data.draw(st.integers(0, 2**32 - 1))
    v = np.random.default_rng(seed).standard_normal((sched.n, 3))
    op = mixing.compound(k, T)
    want = _per_round_mix(mixing, k, T, v)
    tol = 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(blockvec.multi_mix(mixing, k, T, v) - want) <= tol
    assert np.linalg.norm(blockvec.mix(op, v) - want) <= tol
    assert mixing.compound(k, 1) is mixing.w(k)
    assert mixing.compound(k + cycle // math.gcd(T, cycle), T) is op
    assert not op.flags.writeable
    # contraction on the zero-block-sum subspace, up to rounding
    u = v - v.mean(axis=0)
    diff = blockvec.mix(op, u) - u
    bound = (1.0 - 1.0 / mixing.chi) ** T
    assert np.vdot(diff, diff) <= (bound + 1e-12) * np.vdot(u, u)


@pytest.mark.parametrize(
    "sched, T",
    [
        (topology.ring_star_schedule(7), 1),  # no whole cycle
        (topology.ring_star_schedule(7), 2),  # one cycle, no rest
        (topology.ring_star_schedule(7), 3),  # one cycle and a rest
        (topology.ring_star_schedule(7), 12),  # even power, no rest
        (topology.star_cycle_schedule(9), 23),  # odd power and a rest
        (topology.TopologySchedule(n=5, kind="custom", pool=(_PATH5,)), 9),
    ],
    ids=["whole0", "whole1", "whole1_rest", "whole6", "whole7_rest2", "cycle1"],
)
def test_multi_mix_matches_per_round_mixes(sched, T):
    mixing = topology.build_mixing(sched)
    rng = np.random.default_rng(T)
    for k in range(2 * sched.cycle):
        v = rng.standard_normal((sched.n, 3))
        want = _per_round_mix(mixing, k, T, v)
        got = blockvec.multi_mix(mixing, k, T, v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(v)


def test_compound_build_product_count(monkeypatch):
    mixing = topology.build_mixing(topology.ring_star_schedule(100))
    T = 703
    whole, rest = divmod(T, mixing.cycle)
    products = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        products.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    op = mixing.compound(1, T)
    monkeypatch.undo()
    assert 0 < len(products) <= mixing.cycle + rest + 2 * whole.bit_length()
    want = _per_round_mix(mixing, 1, T, np.eye(100))
    assert np.linalg.norm(op - want) <= 1e-12 * np.linalg.norm(np.eye(100))


def _worst_zero_sum_ratio(op):
    """Largest ||(op - I) v||^2 / ||v||^2 over zero-sum v, from the spectrum
    as ``validate_gossip`` takes it."""
    n = len(op)
    p0 = np.eye(n) - np.full((n, n), 1.0 / n)
    m = op - np.eye(n)
    return float(np.linalg.eigvalsh(p0 @ (m.T @ m) @ p0)[-1])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    radius=st.floats(0.05, math.sqrt(2.0)),
    pool_size=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 14),
)
def test_random_geometric_mixing_meets_the_gossip_axioms(n, radius, pool_size, seed, T):
    sched = topology.random_geometric_schedule(n, radius, pool_size, seed)
    mixing = topology.build_mixing(sched)
    for q in range(sched.cycle):
        report = topology.validate_gossip(mixing.w(q), sched.edges(q), mixing.chi)
        assert report.passed, report
    bound = (1.0 - 1.0 / mixing.chi) ** T + 1e-12
    for k in range(sched.cycle):
        assert _worst_zero_sum_ratio(mixing.compound(k, T)) <= bound
