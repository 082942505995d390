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
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import blockvec

__all__ = [
    "TopologySchedule",
    "MixingSchedule",
    "ValidationReport",
    "ring_edges",
    "star_edges",
    "ring_star_schedule",
    "star_cycle_schedule",
    "random_geometric_schedule",
    "check_section",
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

_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, as four little-endian 32-bit limbs.
_PCG_MULT = [
    (0x2360ED051FC65DA44385DF649FCCF645 >> s) & _MASK32 for s in (0, 32, 64, 96)
]


def _pairs(edges, n):
    """Edge list as an (m, 2) int64 array; every endpoint must be in [0, n).

    Any edge list is read with one ``np.asarray``; an empty one has no
    edges. An edge that is not a pair, or endpoints whose type is not an
    integer type (a float, a string or a bool), is an error.
    """
    try:
        pairs = np.asarray(edges)
    except ValueError:  # a ragged list: pairs mixed with other lengths
        raise ValueError("every edge must be a pair of nodes") from None
    if pairs.size == 0:
        return np.empty((0, 2), np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("every edge must be a pair of nodes")
    if not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError(f"edge endpoints must be integers, got {pairs.dtype}")
    pairs = pairs.astype(np.int64, copy=False)
    if pairs.min() < 0 or pairs.max() >= n:
        raise ValueError(f"edge endpoint out of range for n={n}")
    return pairs


def _canonical(edges, n):
    """Read-only C-contiguous int64 (m, 2) array of the pairs, each ordered
    i < j, sorted by ``i * n + j`` and with duplicates removed."""
    pairs = _pairs(edges, n)
    i, j = pairs[:, 0], pairs[:, 1]
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    pairs = np.column_stack(np.divmod(keys, n))
    pairs.setflags(write=False)
    return pairs


def ring_edges(n):
    """Edge set of the ring on n nodes: (i, i+1 mod n)."""
    if n < 2:
        raise ValueError(f"ring needs n >= 2, got {n}")
    i = np.arange(n)
    return _canonical(np.column_stack([i, (i + 1) % n]), n)


def star_edges(n, center=0):
    """Edge set of the star on n nodes centered at the given node."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for n={n}")
    others = np.delete(np.arange(n), center)
    return _canonical(np.column_stack([np.full(n - 1, center), others]), n)


def _words(value):
    """Little-endian 32-bit words of an int >= 0, as ``SeedSequence`` splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mul_add(a, m, c):
    """``(a * m + c) mod 2**128`` on four little-endian 32-bit limbs.

    ``a`` and ``c`` are lists of uint64 arrays holding limbs below 2**32,
    ``m`` a list of int limbs. Each 32 x 32-bit product is split into its
    halves before the columns are summed, so no uint64 sum overflows.
    """
    cols = list(c)
    for i in range(4):
        for j in range(4 - i):
            p = a[i] * m[j]
            cols[i + j] = cols[i + j] + (p & _MASK32)
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (p >> 32)
    out, carry = [], 0
    for col in cols:
        col = col + carry
        out.append(col & _MASK32)
        carry = col >> 32
    return out


def _unit_square_points(seed, indices, n):
    """Coordinates of n nodes for each graph index, shape (len(indices), n, 2).

    Row ``[g, i]`` is ``np.random.default_rng([seed, indices[g], i]).random(2)``
    bit for bit, computed for every key at once in uint32/uint64 arithmetic:
    ``SeedSequence`` mixes the key's entropy words (pool size 4) and
    generates four 64-bit words, which seed PCG64 (O'Neill 2014,
    XSL-RR 128/64); each draw is its next output's top 53 bits times 2**-53.
    Both algorithms are fixed, and numpy keeps their streams stable. Every
    index must split into as many 32-bit words as the others; indices below
    2**32 all do.
    """
    heads = np.array([_words(seed) + _words(g) for g in indices], np.uint32)
    width = heads.shape[1] + 1
    entropy = np.empty((len(heads), n, width), np.uint32)
    entropy[:, :, :-1] = heads[:, None, :]
    entropy[:, :, -1] = np.arange(n)
    entropy = entropy.reshape(-1, width)

    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * 0xCA01F9DD - y * 0x4973F715
        return out ^ (out >> 16)

    # A key shorter than the pool hashes zeros in place of its missing words.
    zeros = np.zeros(len(entropy), np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, width):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = 0x8B51F9DD
    state = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # The words pair up little-endian into 64-bit words w0..w3; PCG64 takes
    # initstate = w0 * 2**64 + w1 and initseq = w2 * 2**64 + w3.
    initstate = [state[2], state[3], state[0], state[1]]
    initseq = [state[6], state[7], state[4], state[5]]
    # inc = 2 initseq + 1: each limb takes the top bit of the one below.
    carried = [1] + [limb >> 31 for limb in initseq[:3]]
    inc = [(limb << 1) & _MASK32 | bit for limb, bit in zip(initseq, carried)]
    # Seeding: state 0, one step (state = inc), add initstate, one step.
    rng = _mul_add(initstate, [1, 0, 0, 0], inc)
    rng = _mul_add(rng, _PCG_MULT, inc)
    draws = []
    for _ in range(2):
        rng = _mul_add(rng, _PCG_MULT, inc)
        folded = (rng[3] << 32 | rng[2]) ^ (rng[1] << 32 | rng[0])
        rot = rng[3] >> 26
        out = folded >> rot | folded << ((64 - rot) & 63)
        draws.append((out >> 11).astype(float) * 2.0**-53)
    return np.stack(draws, axis=-1).reshape(len(heads), n, 2)


def _random_geometric_pool(n, radius, seed, indices):
    """Edge sets of the graphs ``indices`` of a random-geometric pool.

    The coordinates of every graph are drawn in one call; the distances,
    thresholds and bridges are then taken one graph at a time.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < radius <= math.sqrt(2.0):
        raise ValueError(f"radius must be in (0, sqrt(2)], got {radius}")
    seed, indices = operator.index(seed), [operator.index(g) for g in indices]
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if min(indices) < 0:
        raise ValueError(f"graph index must be >= 0, got {min(indices)}")
    pool = []
    for coords in _unit_square_points(seed, indices, n):
        x, y = coords.T
        dx, dy = x[:, None] - x, y[:, None] - y
        adjacent = np.sqrt(dx * dx + dy * dy) < radius

        # Min-label fixed point: each pass gives a node the least label among
        # itself and its neighbours, then that label's own label.
        label, lower = None, np.arange(n)
        while not np.array_equal(lower, label):
            label = lower
            lower = np.where(adjacent, label, n).min(axis=1)
            lower = lower[lower]
        minima = np.flatnonzero(label == np.arange(n))[1:]
        adjacent[minima - 1, minima] = True
        # Read off in row-major order, the pairs i < j come out as
        # _canonical returns them: sorted by i * n + j, each pair once.
        pairs = np.column_stack(np.nonzero(np.triu(adjacent, 1)))
        pairs.setflags(write=False)
        pool.append(pairs)
    return tuple(pool)


def star_cycle_center(n, q):
    """Zero-based center of round q's star for the cycling-star schedule.

    Centers traverse the middle third of the node set with period n/3.
    """
    g = n // 3
    return g + (q % g)


@dataclass(frozen=True, eq=False)
class TopologySchedule:
    """Deterministic map from round index q to an edge set.

    All supported schedules are cyclic: ``edges(q) = pool[q % cycle]``, and
    two queries at the same q return the same read-only array. Schedules
    compare by identity, as ``==`` on arrays has no single truth value.
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
    """Cycle through a fixed pool of connected random geometric graphs.

    Node ``i`` of graph ``g`` sits at ``np.random.default_rng([seed, g,
    i]).random(2)`` on the unit square: the coordinates of the whole pool
    are drawn in one vectorized ``SeedSequence``/PCG64 pass that equals that
    generator bit for bit, so each graph is a pure function of ``(n, radius,
    seed, g)`` and reproducible across platforms. Pairs closer than
    ``radius``, in (0, sqrt(2)], are connected. If a threshold graph is
    disconnected, it is bridged along the index path: the lowest-index node
    ``m > 0`` of each component is joined to its predecessor by the edge
    ``(m - 1, m)``, the minimum number of edges that connects it. Component
    minima are found by labelling every node with the smallest index it can
    reach, iterated to a fixed point on the threshold matrix. ``pool_size``
    must be an integer >= 1 and ``seed`` >= 0. Each graph's edges are one
    read-only int64 (m, 2) array of pairs i < j in sorted order, read
    straight off its adjacency matrix.
    """
    blockvec._check_integer("pool_size", pool_size, 1)
    pool = _random_geometric_pool(n, radius, seed, range(pool_size))
    return TopologySchedule(n=n, kind="random_geometric", pool=pool)


# Builder of each schedule kind, and the number type of each key its
# topology section takes besides "kind".
_SCHEDULE_BUILDERS = {
    "ring_star": (ring_star_schedule, {"n": int}),
    "star_cycle": (star_cycle_schedule, {"n": int}),
    "random_geometric": (
        random_geometric_schedule,
        {"n": int, "radius": float, "pool_size": int, "seed": int},
    ),
}
TOPOLOGY_KEYS = {kind: keys for kind, (_, keys) in _SCHEDULE_BUILDERS.items()}


def _is_number(value, kind=float):
    """A number, not a bool: an integer of any size, or a finite real when
    ``kind`` is float. JSON may spell NaN and Infinity, which no config
    value takes."""
    if isinstance(value, numbers.Integral):
        return not isinstance(value, bool)
    return kind is float and isinstance(value, numbers.Real) and math.isfinite(value)


def check_section(name, section, kinds=None):
    """Reject a config section unless it is a JSON object holding its kind
    and exactly that kind's keys, each a number of the key's type.

    ``kinds`` maps each kind name to its key table, which gives every key
    the kind takes besides ``"kind"`` its number type, ``int`` or ``float``
    (``TOPOLOGY_KEYS`` for a topology). Without ``kinds`` the section has
    no kind and every key takes a float. A float is finite, neither type is
    a bool, and a ``seed`` is also >= 0, which numpy would check only once
    the run draws from it. Each error names the section and the kind or key.
    """
    if not isinstance(section, dict):
        raise ValueError(
            f"config section {name!r} must be a JSON object, got {section!r}"
        )
    if kinds is None:
        types = dict.fromkeys(section, float)
    else:
        if "kind" not in section:
            raise ValueError(f"{name} section needs a 'kind'")
        kind = section["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise ValueError(
                f"unknown {name} kind {kind!r}; expected one of {sorted(kinds)}"
            )
        given, types = section.keys() - {"kind"}, kinds[kind]
        for word, names in (("unknown", given - types.keys()),
                            ("missing", types.keys() - given)):
            if names:
                names = ", ".join(sorted(names))
                raise ValueError(f"{word} key for a {kind} {name}: {names}")
    for key, number in types.items():
        value = section[key]
        if not _is_number(value, number):
            what = "an integer" if number is int else "a finite number"
            raise ValueError(f"{name} key {key!r} must be {what}, got {value!r}")
        if key == "seed" and value < 0:
            raise ValueError(f"{name} key 'seed' must be >= 0, got {value!r}")


def make_schedule(kind, n, **params):
    """Build a schedule by kind name; see the individual constructors.

    The arguments, as a topology section, must pass :func:`check_section`,
    the check every config's topology section passes when it is loaded.
    """
    check_section("topology", {"kind": kind, "n": n, **params}, TOPOLOGY_KEYS)
    builder, _ = _SCHEDULE_BUILDERS[kind]
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

    p0 = np.eye(n) - np.full((n, n), 1.0 / n)
    m = w - np.eye(n)
    spectral_worst = float(np.linalg.eigvalsh(p0 @ (m.T @ m) @ p0)[-1])

    return ValidationReport(
        sparsity_ok=sparsity_ok,
        kernel_ok=float(np.abs(w @ ones).max()) <= 1e-12,
        range_ok=float(np.abs(ones @ w).max()) <= 1e-12,
        contraction_ok=spectral_worst <= 1.0 - 1.0 / chi + 1e-12,
        spectral_worst_ratio=spectral_worst,
    )


class MixingSchedule:
    """Gossip matrices of a topology schedule, precomputed over one cycle.

    Attributes
    ----------
    topology : TopologySchedule
    chi : float
        Measured condition number over the cycle: the largest Laplacian
        condition number of its positions.
    """

    def __init__(self, topology, mats, chi):
        self.topology = topology
        self._mats = tuple(mats)
        self.chi = chi
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
        """Gossip matrix of round q; the matrices are one per position of
        the cycle."""
        return self._mats[q % len(self._mats)]

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
    chis = []
    for q in range(schedule.cycle):
        lap = laplacian(schedule.edges(q), schedule.n)
        evals = np.linalg.eigvalsh(lap)
        if evals[-1] <= 0 or evals[1] <= EIGENVALUE_FLOOR * evals[-1]:
            raise ValueError("gossip matrix requires a connected graph")
        mats.append(lap / float(evals[-1]))
        chis.append(float(evals[-1] / evals[1]))
    return MixingSchedule(schedule, mats, max(chis))


def save_gossip_csv(w, path):
    """Write a gossip matrix as dense row-major CSV at full precision."""
    with open(path, "w", newline="\n") as fh:
        for row in np.asarray(w, dtype=float):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
