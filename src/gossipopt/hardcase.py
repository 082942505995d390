"""Worst-case instance certifying the communication lower bound.

The construction splits n = 3 floor(chi/3) nodes into thirds. The first
third holds the odd links of a chain quadratic plus an anchor pulling the
first coordinate toward 1; the last third holds the even links; the middle
third holds pure regularizers and exists only to relay information. Each
third shares one curvature matrix, so the instance stores three d_trunc x
d_trunc matrices however large chi is. The communication graph at round q
is the star centered at the (q mod n/3)-th middle node, so a new
coordinate of the chain can only light up after the star center has
cycled, forcing Omega(chi sqrt(L/mu) log(1/eps)) communication rounds for
any first-order decentralized method.

The minimizer has the closed form x* = (rho, rho^2, ...) with

    rho = (sqrt(2L/(3 mu) + 1/3) - 1) / (sqrt(2L/(3 mu) + 1/3) + 1),

truncated here to d_trunc coordinates. Runs measure their error against
the truncated objective's own minimizer; the certificate's distance floor
subtracts the truncation slack, so any d_trunc >= 4 runs and certifies.
A span tracker replays the worst-case growth of the coordinate prefix each
node can have touched; the certifier checks any traced run against it,
advancing the tracker one whole iteration (a local computation and T
communication rounds) at a time through a closed-form update that the
round-by-round tracker methods serve as the reference for, until every span
covers the truncation and no later iterate can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import QuadraticObjectives
from .topology import _is_number, star_cycle_center, star_cycle_schedule

__all__ = [
    "HardInstance",
    "SpanTracker",
    "CertReport",
    "hard_rho",
    "hard_solution",
    "hard_node_count",
    "build_hard_instance",
    "span_ceiling",
    "checked_iterates",
    "certify_run",
    "lower_bound_curve",
]


def hard_rho(L, mu):
    """Geometric decay rate of the worst-case solution; in [0, 1)."""
    if not math.inf > L > mu > 0:
        raise ValueError(f"need L > mu > 0 and L finite, got L={L}, mu={mu}")
    root = math.sqrt(2.0 * L / (3.0 * mu) + 1.0 / 3.0)
    return (root - 1.0) / (root + 1.0)


def hard_solution(L, mu, d_trunc):
    """Truncated minimizer (rho^1, ..., rho^d_trunc)."""
    rho = hard_rho(L, mu)
    return rho ** np.arange(1, d_trunc + 1)


@dataclass(frozen=True)
class HardInstance:
    """Adversarial problem plus its star-cycle topology."""

    chi: float
    n: int
    L: float
    mu: float
    d_trunc: int
    rho: float
    objectives: QuadraticObjectives
    schedule: object

    def solution(self):
        return hard_solution(self.L, self.mu, self.d_trunc)


def _chain_quadratic(d, L, mu, pairs, anchor):
    """mu I plus (L - mu)/2 times disjoint difference links (+ anchor e1)."""
    h = 0.5 * (L - mu)
    quad = mu * np.eye(d)
    lin = np.zeros(d)
    offset = 0.0
    if anchor:
        quad[0, 0] += h
        lin[0] = -h
        offset = 0.25 * (L - mu)
    for a, b_ in pairs:
        quad[a, a] += h
        quad[b_, b_] += h
        quad[a, b_] -= h
        quad[b_, a] -= h
    return quad, lin, offset


def hard_node_count(chi):
    """Node count 3 floor(chi / 3) of the hard instance for a finite chi >= 3."""
    if not math.inf > chi >= 3:
        raise ValueError(f"need chi >= 3 and chi finite, got chi={chi}")
    return 3 * int(chi // 3)


def _check_integer(name, value, least):
    """Reject ``value`` unless it is an integer >= ``least``, by the rule and
    wording of ``blockvec._check_integer``; this layer imports topology, not
    blockvec."""
    if not (_is_number(value, int) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def build_hard_instance(chi, L, mu, d_trunc):
    """Assemble the worst-case objectives and their star-cycle schedule.

    Parameters
    ----------
    chi : float
        Target network condition number, finite, >= 3. The node count is
        3 floor(chi / 3), so every round's star has Laplacian condition
        number n <= chi.
    L, mu : float
        Smoothness and strong convexity, finite L > mu > 0.
    d_trunc : int
        Truncation dimension, an integer >= 4. Runs take x* from the truncated
        objective; the certificate subtracts the closed form's truncation slack.

    The objectives hold one curvature matrix per third, shape
    (3, d_trunc, d_trunc), whatever n is: chi = 300 with d_trunc = 400
    stores 3.84 MB of curvature, not 384 MB. The linear terms and offsets
    stay per node.
    """
    n = hard_node_count(chi)
    rho = hard_rho(L, mu)
    _check_integer("d_trunc", d_trunc, 4)
    g = n // 3

    # One-based chain links (2l, 2l+1) for the first group and (2l-1, 2l)
    # for the last, kept only while both ends fit in the truncation.
    odd_pairs = [(a, a + 1) for a in range(1, d_trunc - 1, 2)]
    even_pairs = [(a, a + 1) for a in range(0, d_trunc - 1, 2)]

    q1, l1, o1 = _chain_quadratic(d_trunc, L, mu, odd_pairs, anchor=True)
    q3, l3, _ = _chain_quadratic(d_trunc, L, mu, even_pairs, anchor=False)
    lin = np.zeros((n, d_trunc))
    lin[:g], lin[2 * g :] = l1, l3
    offsets = np.zeros(n)
    offsets[:g] = o1

    # The thirds are contiguous and equal, so each shares one matrix.
    quad = np.stack([q1, mu * np.eye(d_trunc), q3])
    objectives = QuadraticObjectives(quad, lin, offsets=offsets, L=L, mu=mu)
    return HardInstance(
        chi=float(chi),
        n=n,
        L=float(L),
        mu=float(mu),
        d_trunc=d_trunc,
        rho=rho,
        objectives=objectives,
        schedule=star_cycle_schedule(n),
    )


@dataclass(frozen=True)
class SpanTracker:
    """Worst-case prefix lengths s_i reachable by each node's memory.

    s_i starts at 0 (memory holds only the zero vector) and never decreases.
    A local computation extends the prefix by one only where the chain
    structure allows: first-group nodes on even s_i, last-group nodes on odd
    s_i, middle nodes never. A communication round moves information only
    through the round's star center: the center learns the global maximum,
    everyone else at most the center's previous value.

    :meth:`after_compute` and :meth:`after_communicate` apply one round each
    and are the reference; :meth:`after_iteration` applies a computation and
    T communication rounds at once in closed form, reusing
    :meth:`after_compute` and the schedule's ``star_cycle_center``.
    """

    s: tuple
    q: int
    n: int

    @classmethod
    def fresh(cls, n):
        if not (_is_number(n, int) and n >= 3 and n % 3 == 0):
            raise ValueError(f"need n an integer divisible by 3 and >= 3, got {n!r}")
        return cls(s=(0,) * n, q=0, n=n)

    @property
    def group_size(self):
        return self.n // 3

    def after_compute(self):
        g = self.group_size
        s = np.array(self.s)
        s[:g] += 1 - s[:g] % 2
        s[2 * g :] += s[2 * g :] % 2
        return SpanTracker(s=tuple(s.tolist()), q=self.q, n=self.n)

    def after_communicate(self):
        s = np.array(self.s)
        center = star_cycle_center(self.n, self.q)
        peak = s.max()
        s = np.maximum(s, s[center])
        s[center] = peak
        return SpanTracker(s=tuple(s.tolist()), q=self.q + 1, n=self.n)

    def after_iteration(self, T):
        """One local computation followed by T communication rounds.

        Equal to :meth:`after_compute` and then T calls of
        :meth:`after_communicate`, in closed form. No round raises the
        maximum M of the computed spans, and each center leaves its round at
        M. While the T centers C are distinct (T <= n/3), the j-th center
        enters its round holding the largest computed span of the first j
        centers, so every node ends at max(s_i, max(s[C])) and every center
        at M. Past n/3 rounds the first center is revisited holding M and
        passes it to every node.
        """
        _check_integer("T", T, 1)
        s = np.array(self.after_compute().s)
        peak = s.max()
        if T > self.group_size:
            s[:] = peak
        else:
            centers = star_cycle_center(self.n, self.q + np.arange(T))
            s = np.maximum(s, s[centers].max())
            s[centers] = peak
        return SpanTracker(s=tuple(s.tolist()), q=self.q + T, n=self.n)


def span_ceiling(tracker):
    """Per-node ceiling on s_i after q completed communication rounds.

    Equals 2 floor(q / (n/3)), plus one for the nodes below the next star
    center: the first group and the middle nodes the center cycle has
    already passed. The next center lies in the middle third, so the
    last group never gets the extra unit.
    """
    base = 2 * (tracker.q // tracker.group_size)
    below = np.arange(tracker.n) < star_cycle_center(tracker.n, tracker.q)
    return tuple((base + below).tolist())


@dataclass(frozen=True)
class CertReport:
    """Outcome of checking a traced run against the lower-bound model."""

    support_ok: tuple
    distance_ok: tuple
    first_violation: dict | None

    @property
    def passed(self):
        return self.first_violation is None


# A trace coordinate counts toward a node's support when its magnitude
# exceeds this.
ZERO_TOL = 1e-12


def _support_lengths(x):
    """Per-row length of the prefix holding every coordinate above ZERO_TOL."""
    mask = np.abs(x) > ZERO_TOL
    last = x.shape[1] - np.argmax(mask[:, ::-1], axis=1)
    return np.where(mask.any(axis=1), last, 0)


def _span_floors(instance, T):
    """(span, bound, floor) of iterates 0, 1, 2, ... before saturation (see
    :func:`certify_run`): the spans s_i, check (b)'s bound and that bound
    less its tolerance. The tracker advances only when the next iterate is
    asked for."""
    rho = instance.rho
    tail = 1.0 - rho**2
    slack = 2.0 * rho ** (2 * instance.d_trunc) / tail
    tracker = SpanTracker.fresh(instance.n)
    while True:
        span = np.array(tracker.s)
        bound = rho ** (2 * span + 2) / tail - slack
        floor = bound - 1e-12 * np.maximum(1.0, np.abs(bound))
        if span.min() >= instance.d_trunc and floor.max() <= 0.0:
            return
        yield span, bound, floor
        tracker = tracker.after_iteration(T)


def checked_iterates(instance, T):
    """Number of leading iterates :func:`certify_run` checks, at T
    communication rounds per iteration: the length of its tracker walk.

    With T > n/3 every span is k after k iterations, and at s_i = d_trunc
    the truncation slack makes every floor negative, so the count is
    d_trunc, taken without the walk.
    """
    _check_integer("T", T, 1)
    if T > instance.n // 3:
        return instance.d_trunc
    return sum(1 for _ in _span_floors(instance, T))


def certify_run(instance, xs, T=1):
    """Check a traced run of a first-order decentralized method.

    The trace ``xs`` holds the stacked x iterate after 0, 1, 2, ...
    iterations, each iteration consisting of one local computation round
    followed by T communication rounds; the tracker advances one iterate
    per :meth:`SpanTracker.after_iteration`. Two checks per iterate and
    node:

    (a) the nonzero-coordinate prefix of x_i never exceeds the tracker's
        worst-case span s_i, a coordinate counting as nonzero when its
        magnitude exceeds the module's ``ZERO_TOL``;
    (b) ||x_i - x*||^2 >= rho^(2 s_i + 2) / (1 - rho^2) minus the
        truncation slack 2 rho^(2 d_trunc) / (1 - rho^2).

    The first violation reported is the one at the lowest-index node of the
    earliest failing iterate, a support failure before a distance failure.

    Checking stops at the first iterate where neither check can fail, and
    it and every later iterate pass both. Spans never fall, so once every
    s_i >= d_trunc no support (at most d_trunc) exceeds its span; and the
    distance floor, less its 1e-12 relative tolerance, falls as s_i grows,
    so once it is <= 0 at every node no squared distance is below it (the
    truncation slack makes it negative from s_i = d_trunc on).

    So the first ``checked_iterates(instance, T)`` entries give the same
    ``passed`` and ``first_violation`` as the whole trace, with
    ``support_ok`` and ``distance_ok`` covering only them. Later entries
    are checked only for their shape and finite values, which
    ``solver.run`` ensures by raising ``DivergenceError``, so a run may
    leave them out.

    Every entry, checked or not, must have shape (n, d_trunc) and finite
    values, or ValueError names it. An empty trace raises ValueError: it
    would certify nothing.
    """
    _check_integer("T", T, 1)
    x_star = instance.solution()
    shape = (instance.n, instance.d_trunc)
    floors = _span_floors(instance, T)
    support_ok = []
    distance_ok = []
    first_violation = None

    k = -1
    for k, x in enumerate(xs):
        x = np.asarray(x, dtype=float)
        if x.shape != shape:
            raise ValueError(
                f"trace entry {k} has shape {x.shape}, expected {shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError(f"trace entry {k} holds a non-finite value")
        checked = next(floors, None)
        if checked is None:
            continue  # saturated
        span, bound, floor = checked
        support = _support_lengths(x)
        dist = np.sum((x - x_star) ** 2, axis=1)
        bad_a = support > span
        bad_b = dist < floor
        support_ok.append(not bad_a.any())
        distance_ok.append(not bad_b.any())
        bad = bad_a | bad_b
        if first_violation is None and bad.any():
            i = int(np.argmax(bad))
            if bad_a[i]:
                first_violation = {
                    "check": "support",
                    "k": k,
                    "node": i,
                    "support": int(support[i]),
                    "span": int(span[i]),
                }
            else:
                first_violation = {
                    "check": "distance",
                    "k": k,
                    "node": i,
                    "distance_sq": float(dist[i]),
                    "bound": float(bound[i]),
                }

    if k < 0:
        raise ValueError("empty trace: there is no iterate to certify")
    skipped = (True,) * (k + 1 - len(support_ok))
    return CertReport(
        support_ok=tuple(support_ok) + skipped,
        distance_ok=tuple(distance_ok) + skipped,
        first_violation=first_violation,
    )


def lower_bound_curve(chi, L, mu, q_max):
    """Error floor after q communication rounds, exact and relaxed forms.

    The exact form is C rho^(24 q / chi) with C = rho^4 / (1 - rho^2); the
    relaxed form replaces rho^24 by the Bernoulli bound
    max(0, 1 - 24 sqrt(6 mu / L)), clamping at zero. Exact dominates relaxed
    pointwise. ``q_max`` is an integer >= 0.
    """
    hard_node_count(chi)
    _check_integer("q_max", q_max, 0)
    rho = hard_rho(L, mu)
    c = rho**4 / (1.0 - rho**2)
    q = np.arange(q_max + 1)
    exact = c * rho ** (24.0 * q / chi)
    base = max(0.0, 1.0 - 24.0 * math.sqrt(6.0 * mu) / math.sqrt(L))
    relaxed = c * base ** (q / chi)
    return exact, relaxed
