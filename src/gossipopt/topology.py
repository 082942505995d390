"""Time-varying communication topologies and gossip matrices.

A topology schedule is a deterministic map from a communication-round index
``q`` to an edge set on ``n`` nodes; ``make_schedule`` builds one by kind
name. One decentralized communication round is simulated as a multiplication
with the round's gossip matrix: the graph Laplacian divided by its largest
eigenvalue. ``build_mixing`` is the one place gossip matrices are built, and
its eigendecomposition is the one check that rejects a disconnected graph.

Every gossip matrix ``W`` produced by this module satisfies four axioms:

1. sparsity: ``W[i, j] != 0`` only for edges ``(i, j)`` or ``i == j``,
2. kernel: ``W @ ones == 0``,
3. range: ``ones @ W == 0`` (outputs are zero-sum),
4. contraction: ``||W x - x||^2 <= (1 - 1/chi) ||x||^2`` for zero-sum ``x``,

where ``chi >= 1`` is the network condition number, the supremum over rounds
of ``lambda_max / lambda_min_plus`` of the Laplacian. ``chi`` governs how
fast repeated gossip rounds contract disagreement between nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blockvec

__all__ = [
    "TopologySchedule",
    "MixingSchedule",
    "ValidationReport",
    "ring_edges",
    "star_edges",
    "random_geometric_edges",
    "ring_star_schedule",
    "star_cycle_schedule",
    "random_geometric_schedule",
    "make_schedule",
    "star_cycle_center",
    "laplacian",
    "validate_gossip",
    "build_mixing",
    "save_gossip_csv",
]

# Relative cutoff separating structural zero Laplacian eigenvalues from
# numerical noise: a second eigenvalue at or below it means disconnected.
EIGENVALUE_FLOOR = 1e-9


def _pairs(edges, n):
    """Edge list as an (m, 2) integer array; every endpoint must be in [0, n)."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError(f"edge endpoint out of range for n={n}")
    return pairs


def _canonical(edges, n):
    """Sorted tuple of (i, j) pairs with i < j and duplicates removed.

    Each pair is keyed as ``i * n + j`` once its ends are ordered, so one
    ``np.unique`` sorts and dedupes; the pairs come back as Python ints.
    """
    pairs = _pairs(edges, n)
    keys = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    return tuple(zip((keys // n).tolist(), (keys % n).tolist()))


def ring_edges(n):
    """Edge set of the ring on n nodes: (i, i+1 mod n)."""
    if n < 2:
        raise ValueError(f"ring needs n >= 2, got {n}")
    return _canonical([(i, (i + 1) % n) for i in range(n)], n)


def star_edges(n, center=0):
    """Edge set of the star on n nodes centered at the given node."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for n={n}")
    return _canonical([(center, j) for j in range(n) if j != center], n)


def random_geometric_edges(n, radius, seed, index):
    """One connected random geometric graph on the unit square.

    Node coordinates are drawn from a counter-based generator keyed by
    ``(seed, index, node)``, so the graph is a pure function of its arguments
    and reproducible across platforms. Pairs closer than ``radius`` are
    connected. If the threshold graph is disconnected, it is bridged along
    the index path: the lowest-index node ``m > 0`` of each component is
    joined to its predecessor by the edge ``(m - 1, m)``, the minimum number
    of edges that connects it. Component minima are found by labelling
    every node with the smallest index it can reach, iterated to a fixed
    point on the threshold matrix.

    Parameters
    ----------
    n : int
        Number of nodes.
    radius : float
        Connection radius, in (0, sqrt(2)].
    seed : int
        Base seed of the schedule.
    index : int
        Position of this graph within the schedule's pool.

    Returns
    -------
    tuple of (int, int)
        Canonical edge list of a connected graph.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < radius <= math.sqrt(2.0):
        raise ValueError(f"radius must be in (0, sqrt(2)], got {radius}")
    coords = np.empty((n, 2))
    for i in range(n):
        coords[i] = np.random.default_rng([seed, index, i]).random(2)

    diffs = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    adjacent = dist < radius
    rows, cols = np.nonzero(np.triu(adjacent, 1))

    # Min-label fixed point: each pass gives a node the least label among
    # itself and its neighbours, then that label's own label.
    label, lower = None, np.arange(n)
    while not np.array_equal(lower, label):
        label = lower
        lower = np.where(adjacent, label, n).min(axis=1)
        lower = lower[lower]
    minima = np.flatnonzero(label == np.arange(n))[1:]
    rows = np.concatenate([rows, minima - 1])
    cols = np.concatenate([cols, minima])
    return _canonical(np.column_stack([rows, cols]), n)


def star_cycle_center(n, q):
    """Zero-based center of round q's star for the cycling-star schedule.

    Centers traverse the middle third of the node set with period n/3.
    """
    g = n // 3
    return g + (q % g)


@dataclass(frozen=True)
class TopologySchedule:
    """Deterministic map from round index q to an edge set.

    All supported schedules are cyclic: ``edges(q) = pool[q % cycle]``. Two
    queries at the same q always return the identical edge tuple.
    """

    n: int
    kind: str
    pool: tuple

    @property
    def cycle(self):
        return len(self.pool)

    def edges(self, q):
        if q < 0:
            raise ValueError(f"round index must be >= 0, got {q}")
        return self.pool[q % self.cycle]


def ring_star_schedule(n):
    """Alternate between the ring (even rounds) and the star at node 0."""
    return TopologySchedule(
        n=n, kind="ring_star", pool=(ring_edges(n), star_edges(n, 0))
    )


def star_cycle_schedule(n):
    """Stars whose center cycles through the middle third of the nodes.

    This is the adversarial sequence used by the communication lower bound:
    the only route between the first and last third of the nodes is through
    a center that changes every round.
    """
    if n < 3 or n % 3 != 0:
        raise ValueError(f"star cycle needs n divisible by 3 and >= 3, got {n}")
    pool = tuple(star_edges(n, star_cycle_center(n, q)) for q in range(n // 3))
    return TopologySchedule(n=n, kind="star_cycle", pool=pool)


def random_geometric_schedule(n, radius, pool_size, seed):
    """Cycle through a fixed pool of connected random geometric graphs."""
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    pool = tuple(
        random_geometric_edges(n, radius, seed, g) for g in range(pool_size)
    )
    return TopologySchedule(n=n, kind="random_geometric", pool=pool)


# Builder of each schedule kind and the parameters it takes besides n.
_SCHEDULE_BUILDERS = {
    "ring_star": (ring_star_schedule, ()),
    "star_cycle": (star_cycle_schedule, ()),
    "random_geometric": (random_geometric_schedule, ("radius", "pool_size", "seed")),
}


def make_schedule(kind, n, **params):
    """Build a schedule by kind name; see the individual constructors.

    Every parameter the kind takes is required; any other is an error.
    """
    try:
        builder, keys = _SCHEDULE_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown schedule kind {kind!r}; expected one of "
            f"{sorted(_SCHEDULE_BUILDERS)}"
        ) from None
    given, keys = set(params), set(keys)
    for word, names in (("unknown", given - keys), ("missing", keys - given)):
        if names:
            names = ", ".join(sorted(names))
            raise ValueError(f"{word} key for a {kind} topology: {names}")
    return builder(n, **params)


def laplacian(edges, n):
    """Combinatorial graph Laplacian (degree matrix minus adjacency)."""
    pairs = _pairs(edges, n)
    i, j = pairs[:, 0], pairs[:, 1]
    adjacency = np.bincount(np.concatenate([i * n + j, j * n + i]), minlength=n * n)
    degree = np.bincount(pairs.ravel(), minlength=n)
    return (np.diag(degree) - adjacency.reshape(n, n)).astype(float)


@dataclass(frozen=True)
class ValidationReport:
    """Per-axiom outcome of a gossip-matrix check.

    ``spectral_worst_ratio`` is the exact worst ``||W x - x||^2 / ||x||^2``
    over zero-sum ``x``; ``contraction_ok`` compares it with ``1 - 1/chi``.
    """

    sparsity_ok: bool
    kernel_ok: bool
    range_ok: bool
    contraction_ok: bool
    kernel_residual: float
    range_residual: float
    spectral_worst_ratio: float

    @property
    def passed(self):
        return (
            self.sparsity_ok
            and self.kernel_ok
            and self.range_ok
            and self.contraction_ok
        )


def validate_gossip(w, edges, chi):
    """Check the four gossip axioms of a matrix against an edge set.

    Sparsity, kernel and range are checked entrywise at 1e-12. The
    contraction axiom is checked exactly, for any matrix, symmetric or not:
    the worst ratio over zero-sum vectors is the largest eigenvalue of
    ``(W - I)' (W - I)`` restricted to the zero-sum subspace.

    Failures are reported, not raised.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError(f"gossip matrix must be square, got {w.shape}")
    pairs = _pairs(edges, n)
    off_edge = ~np.eye(n, dtype=bool)
    off_edge[pairs[:, 0], pairs[:, 1]] = False
    off_edge[pairs[:, 1], pairs[:, 0]] = False
    sparsity_ok = not np.any(off_edge & (np.abs(w) > 1e-12))

    ones = np.ones(n)
    kernel_residual = float(np.abs(w @ ones).max())
    range_residual = float(np.abs(ones @ w).max())

    p0 = np.eye(n) - np.full((n, n), 1.0 / n)
    m = w - np.eye(n)
    spectral_worst = float(np.linalg.eigvalsh(p0 @ (m.T @ m) @ p0)[-1])

    return ValidationReport(
        sparsity_ok=sparsity_ok,
        kernel_ok=kernel_residual <= 1e-12,
        range_ok=range_residual <= 1e-12,
        contraction_ok=spectral_worst <= 1.0 - 1.0 / chi + 1e-12,
        kernel_residual=kernel_residual,
        range_residual=range_residual,
        spectral_worst_ratio=spectral_worst,
    )


class MixingSchedule:
    """Gossip matrices of a topology schedule, precomputed over one cycle.

    Attributes
    ----------
    topology : TopologySchedule
    chi : float
        Measured condition number over the cycle.
    per_round : tuple of float
        Per-position Laplacian condition numbers.
    """

    def __init__(self, topology, mats, chi, per_round):
        self.topology = topology
        self._mats = tuple(mats)
        self.chi = chi
        self.per_round = per_round
        self._compound = {}
        for mat in self._mats:
            mat.setflags(write=False)

    @property
    def n(self):
        return self.topology.n

    @property
    def cycle(self):
        return self.topology.cycle

    def w(self, q):
        """Gossip matrix of round q."""
        return self._mats[q % self.cycle]

    def compound(self, k, T):
        """Read-only T-round operator ``I - prod_{q=kT}^{(k+1)T-1} (I - W(q))``.

        Applying it is one matmul equal to ``blockvec.multi_mix(self, k, T,
        v)``. At T = 1 it is ``w(k)`` itself. For T > 1 it depends only on
        ``kT mod cycle``, so it is built on first use by applying
        ``multi_mix`` to the identity and cached under the key
        ``(kT mod cycle, T)``: at most ``cycle / gcd(T, cycle)`` n x n
        matrices per T used, never more than the per-round matrices held.
        Each build multiplies out one cycle of rounds and raises it to the
        power ``T // cycle``, so it costs about ``cycle + T % cycle +
        2 log2(T / cycle)`` n x n products, not T.
        """
        if T == 1:
            return self.w(k)
        key = (k * T % self.cycle, T)
        op = self._compound.get(key)
        if op is None:
            op = blockvec.multi_mix(self, k, T, np.eye(self.n))
            op.setflags(write=False)
            self._compound[key] = op
        return op


def build_mixing(schedule):
    """Precompute gossip matrices and chi for a schedule.

    Each position of the cycle is eigendecomposed once; its spectrum gives
    both the gossip matrix and the position's Laplacian condition number.
    For a cyclic schedule one cycle already yields the exact supremum over
    all rounds. A Laplacian has one zero eigenvalue per connected component,
    so a graph is connected exactly when only ``evals[0]`` is at or below
    the floor; ``evals[1]`` is then lambda_min_plus.

    Raises
    ------
    ValueError
        If some edge set of the cycle is disconnected (the contraction axiom
        would fail for every finite chi).
    """
    mats = []
    per_round = []
    for q in range(schedule.cycle):
        lap = laplacian(schedule.edges(q), schedule.n)
        evals = np.linalg.eigvalsh(lap)
        if evals[-1] <= 0 or evals[1] <= EIGENVALUE_FLOOR * evals[-1]:
            raise ValueError("gossip matrix requires a connected graph")
        mats.append(lap / float(evals[-1]))
        per_round.append(float(evals[-1] / evals[1]))
    return MixingSchedule(schedule, mats, max(per_round), tuple(per_round))


def save_gossip_csv(w, path):
    """Write a gossip matrix as dense row-major CSV at full precision."""
    with open(path, "w", newline="\n") as fh:
        for row in np.asarray(w, dtype=float):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
