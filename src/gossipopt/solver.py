"""Accelerated decentralized solver over time-varying gossip networks.

The method minimizes sum_i f_i(x) with x constrained to the consensus
subspace, through a saddle-point reformulation with multipliers y (for the
coupling x = w) and z (restricted to the zero-block-sum subspace). Each
iteration takes one full gradient, solves the two implicitly coupled primal
and dual updates in closed form, and performs one compound communication
round: the two payloads that must travel over the network are mixed by the
same per-round gossip matrices, with an error-feedback buffer m absorbing
what a single imperfect averaging round leaves behind.

The seven iterates x, y, z, m, x_f, y_f and z_f are the rows of one
(7, n, d) buffer. The update rules are linear in those rows, the gradient
and the two mixed payloads, so each ``Params`` derives their coefficients
once, by running the rules on unit vectors. An iteration is then three small
coefficient products around one gradient call and one ``mix``; the last is
one (7, 10) product of a workspace holding the seven rows, the gradient and
the mixed payloads.

:func:`run` allocates that workspace once per run, with a history of the
last K iterates. Only the error its stop rule reads is taken at every
iterate; the records and the trace are built once per block of K iterates,
so their numpy calls are paid per block, not per iterate.

A run ends with a named stop reason: the error target was met
(``converged``), the budget or the iteration cap ran out (``budget``), or
the error stopped falling (``stalled``); a divergent iterate raises
:class:`DivergenceError`.

With the closed-form parameter schedule of :func:`derive_params`, the
potential tracked by :func:`lyapunov` contracts by at least
``1 - sqrt(mu) / (32 chi sqrt(L))`` per iteration, which yields
``O(chi sqrt(L/mu) log(1/eps))`` iterations to reach an eps-accurate
solution. Running T consensus sub-rounds per iteration (T about
``chi ln 2``) makes the effective network condition number a constant, at T
communication rounds per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import blockvec
from .objectives import _row_dots, reference_minimizer

__all__ = [
    "Params",
    "State",
    "SaddleReference",
    "LyapunovReport",
    "RunRecord",
    "RunResult",
    "DivergenceError",
    "STOP_METRICS",
    "check_overrides",
    "derive_params",
    "effective_chi",
    "consensus_rounds",
    "init_state",
    "make_reference",
    "saddle_state",
    "step",
    "lyapunov",
    "run",
]

DIVERGENCE_LIMIT = 1e100
# A sum of squares at most this bounds every coordinate by about half the
# limit, far beyond what the dot product's rounding can move it.
GUARD_SQNORM = (DIVERGENCE_LIMIT / 2) ** 2

# A run with an error target stops as stalled once its stop metric has gone
# STALL_WINDOW certified e-folding times without falling below STALL_FACTOR
# times its last such low. An e-folding time, 2 / sigma2 iterations, is how
# long the run's certified rate 1 - sigma2 / 2 takes to shrink the potential
# by e: 32 chi_eff sqrt(L/mu) iterations for the closed-form schedule at
# the chi it was derived from, declared or measured. Above the float floor,
# on 60 random problems, the stacked error always halved within 0.5 of one
# and the block mean's within 2.2 (an early low of the mean can sit below
# the trend). A run without a budget stops after ITERATION_CAP iterations.
STALL_WINDOW = 8.0
STALL_FACTOR = 0.5
ITERATION_CAP = 1_000_000

# run takes the potential of K iterates in one pass, K as many (7, n, d)
# iterates as BLOCK_BYTES holds when that is at least BLOCK_MIN, else 1: 46
# at n d = 200, 8 at n d = 1170, and 1 from n d = 1171 up, where an
# iterate's arithmetic outweighs its calls. A block of 2 to 7 iterates
# pays the block's array calls without enough iterates to spread them over.
BLOCK_BYTES = 512 * 1024
BLOCK_MIN = 8

# Errors the target test can read; see the ``stop_metric`` of :func:`run`.
STOP_METRICS = ("mean_block", "stacked")


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the finite range.

    Carries the iteration ``k``, the ``field`` that blew up (``"x"``,
    ``"y"``, ``"z"`` or ``"m"``) and its largest ``magnitude``. :func:`run`
    attaches the record of the last finite iterate as ``last_record``.
    """

    def __init__(self, k, magnitude, field):
        super().__init__(
            f"divergence at iteration {k}: max |{field}| coordinate = "
            f"{magnitude:.3e}"
        )
        self.k = k
        self.magnitude = magnitude
        self.field = field
        self.last_record = None


@dataclass(frozen=True)
class Params:
    """Step sizes and interpolation weights of the solver.

    All fields are determined in closed form by (L, mu, chi), which are not
    stored; see :func:`derive_params`. Invariants: nu < mu, and tau1, sigma1
    in (0, 1).
    """

    tau1: float
    tau2: float
    eta: float
    alpha: float
    nu: float
    beta: float
    sigma1: float
    sigma2: float
    theta: float
    gamma: float
    delta: float
    zeta: float

    @cached_property
    def _linear_map(self):
        """One iteration as coefficients, read off :func:`_rules`.

        The rules run once on the unit vectors of their ten inputs: the seven
        state rows, the raw gradient and the two mixed payloads, which are
        the ten rows of :func:`step`'s workspace in that order. What they
        hand to the gradient oracle and to the mixer, and what they return,
        are then rows of coefficients over those inputs: ``gather`` (7,)
        gives x_g, ``send`` (2, 7) the payloads [payload, s], and ``update``
        (7, 10) the new rows from the whole workspace.
        """
        unit = np.eye(10)
        seen = {}

        def grad(x_g):
            seen["gather"] = x_g[:7]
            return unit[7]

        def mix(payload, s):
            seen["send"] = np.array([payload[:7], s[:7]])
            return unit[8], unit[9]

        update = np.array(_rules(self, *unit[:7], grad, mix))
        return seen["gather"], seen["send"], update


def check_overrides(values, mu=None):
    """Reject overrides, a dict of ``Params`` field names to numbers, that
    leave the certificate's invariants: every name must be a field, every
    value finite and positive, ``tau1`` and ``sigma1`` below 1, and ``nu``
    below ``mu`` when ``mu`` is given."""
    unknown = sorted(set(values) - {f.name for f in fields(Params)})
    if unknown:
        raise ValueError(f"unknown parameter override: {', '.join(unknown)}")
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"override {name}={value} must be finite")
        if not value > 0:
            raise ValueError(f"override {name}={value} must be positive")
        if name in ("tau1", "sigma1") and not value < 1:
            raise ValueError(f"override {name}={value} must be below 1")
        if name == "nu" and mu is not None and not value < mu:
            raise ValueError(f"override nu={value} must be below mu={mu}")


def _check_chi(chi):
    if not 1 <= chi < math.inf:
        raise ValueError(f"need 1 <= chi < inf, got chi={chi}")


def derive_params(L, mu, chi):
    """Theoretical parameter schedule for constants (L, mu, chi).

    Parameters
    ----------
    L, mu : float
        Smoothness and strong convexity of the local objectives, finite
        L > mu > 0.
    chi : float
        Condition number of the (possibly compound) mixing operator, finite, >= 1.
    """
    if not math.inf > L > mu > 0:
        raise ValueError(f"need L > mu > 0 and L finite, got L={L}, mu={mu}")
    _check_chi(chi)
    tau2 = math.sqrt(mu / L)
    tau1 = 1.0 / (1.0 / tau2 + 0.5)
    eta = 1.0 / (L * tau2)
    alpha = mu / 2.0
    nu = mu / 2.0
    beta = 1.0 / (2.0 * L)
    sigma2 = math.sqrt(mu) / (16.0 * chi * math.sqrt(L))
    sigma1 = 1.0 / (1.0 / sigma2 + 0.5)
    theta = nu / (4.0 * sigma2)
    gamma = nu / (14.0 * sigma2 * chi**2)
    delta = 1.0 / (17.0 * L)
    zeta = 0.5
    return Params(
        tau1=tau1,
        tau2=tau2,
        eta=eta,
        alpha=alpha,
        nu=nu,
        beta=beta,
        sigma1=sigma1,
        sigma2=sigma2,
        theta=theta,
        gamma=gamma,
        delta=delta,
        zeta=zeta,
    )


def effective_chi(chi, T):
    """Condition number of the compound T-round mixing operator.

    One round contracts zero-block-sum vectors by (1 - 1/chi); T chained
    rounds contract by (1 - 1/chi)**T. Whenever that reaches 1/2 (the
    T = ceil(chi ln 2) choice), the compound operator behaves like a network
    with constant condition number 2.
    """
    _check_chi(chi)
    blockvec._check_integer("T", T, 1)
    if T == 1:
        return chi
    contraction = (1.0 - 1.0 / chi) ** T
    if contraction <= 0.5:
        return 2.0
    return 1.0 / (1.0 - contraction)


def consensus_rounds(chi):
    """Number of sub-rounds T = ceil(chi ln 2) that halves disagreement."""
    _check_chi(chi)
    return math.ceil(chi * math.log(2.0))


class _Row:
    """One named row of the state buffer: reading gives a view of the row,
    assigning copies into it."""

    def __init__(self, index):
        self.index = index

    def __get__(self, state, owner=None):
        return self if state is None else state._buf[self.index]

    def __set__(self, state, value):
        state._buf[self.index] = value


class State:
    """Full solver state after k iterations.

    The fields x, y, z, m, x_f, y_f and z_f are, in that order, the rows of
    ``buf``, a (7, n, d) float array that the state owns uncopied.
    """

    x, y, z, m, x_f, y_f, z_f = (_Row(i) for i in range(7))

    def __init__(self, k, buf):
        self.k, self._buf = k, buf


def init_state(n, d):
    """All-zero initial state, which places z in the zero-block-sum
    subspace as required."""
    return State(0, np.zeros((7, n, d)))


@dataclass(frozen=True)
class SaddleReference:
    """Saddle point data derived from a minimizer of the averaged objective.

    x is the minimizer replicated across blocks; y holds the per-node
    gradients shifted by -nu x; z is the zero-block-sum multiplier with
    y + z lying in the consensus subspace.
    """

    x_bar: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    f_star: float
    grad_star: np.ndarray

    @cached_property
    def _rows(self):
        """Saddle values of the seven state rows, stacked: x, y, z, zero for
        the momentum buffer m, then x, y, z again for x_f, y_f, z_f."""
        xyz = [self.x, self.y, self.z]
        return np.array(xyz + [np.zeros_like(self.x)] + xyz)


def make_reference(objectives, nu):
    """Saddle-point reference around the averaged objective's minimizer.

    The multiplier z is the projection of ``-nu x - y = -grad_star`` onto
    the zero-block-sum subspace; the block mean it removes is minus the
    averaged gradient at x_bar, zero up to the minimizer's float floor.
    """
    x_bar = reference_minimizer(objectives)
    x = np.tile(x_bar, (objectives.n, 1))
    grad_star = objectives.grad(x)
    return SaddleReference(
        x_bar=x_bar,
        x=x,
        y=grad_star - nu * x,
        z=blockvec.project_consensus(-grad_star),
        f_star=objectives.value(x),
        grad_star=grad_star,
    )


def saddle_state(reference):
    """State sitting exactly at the saddle point, with zero momentum buffer."""
    return State(0, reference._rows.copy())


def _rules(p, x, y, z, m, x_f, y_f, z_f, grad, mix):
    """The update rules: the seven new rows from the seven old ones.

    ``grad(x_g)`` is the gradient oracle and ``mix(payload, s)`` returns the
    two payloads after the T communication rounds. The mutually implicit
    x/y updates are eliminated in closed form: with g the shifted gradient
    at the extrapolated point, substituting the x-update into the y-update
    leaves a scalar-coefficient linear equation for y, solvable blockwise.
    Every rule is linear in the rows, the gradient and the mixed payloads,
    which is what lets ``Params._linear_map`` run them on unit vectors.
    """
    x_g = p.tau1 * x + (1.0 - p.tau1) * x_f
    y_g = p.sigma1 * y + (1.0 - p.sigma1) * y_f
    z_g = p.sigma1 * z + (1.0 - p.sigma1) * z_f

    g = grad(x_g) - p.nu * x_g

    b = p.eta / (1.0 + p.eta * p.alpha)
    a = (x + p.eta * p.alpha * x_g - p.eta * g) / (1.0 + p.eta * p.alpha)
    denom = 1.0 + p.theta * p.beta + p.theta * b
    y_new = (
        y + p.theta * p.beta * g - p.theta * ((y_g + z_g) / p.nu) - p.theta * a
    ) / denom
    x_new = a + b * y_new

    s = y_g + z_g
    payload = (p.gamma / p.nu) * s + m
    mixed_payload, mixed_s = mix(payload, s)

    return (
        x_new,
        y_new,
        z + p.gamma * p.delta * (z_g - z) - mixed_payload,
        payload - mixed_payload,
        x_g + p.tau2 * (x_new - x),
        y_g + p.sigma2 * (y_new - y),
        z_g - p.zeta * mixed_s,
    )


def step(state, params, objectives, mixing, T=1, *, work=None, out=None):
    """Advance the solver by one iteration; the input's rows are not modified.

    Exactly one full-gradient evaluation and T communication rounds (each
    carrying both network payloads). The iteration applies the coefficient
    matrices of ``params`` (see :func:`_rules`) to a (10, n, d) workspace:
    the seven state rows, then the gradient and the two mixed payloads. One
    row product forms the extrapolated point in row 7, which the gradient
    oracle overwrites with its gradient;
    one (2, 7) product forms the two payloads, which travel side by side
    along the block dimension through the T rounds as one compound-operator
    ``mix`` and land in rows 8 and 9; one (7, 10) product of the whole
    workspace writes the new rows.

    ``work`` and ``out`` let :func:`run` keep its buffers for the whole run;
    both are allocated when omitted. ``work`` is a C-contiguous (10, n, d)
    array whose first seven rows are the state's rows; the step overwrites
    its last three. ``out``, a C-contiguous (7, n, d) array sharing no
    memory with the state, receives the new rows and becomes the returned
    state's buffer.
    """
    gather, send, update = params._linear_map
    buf = state._buf
    _, n, d = buf.shape
    if out is None:
        out = np.empty_like(buf)
    elif np.may_share_memory(out, buf if work is None else work):
        raise ValueError("step's out must share no memory with the state")
    if work is None:
        # Zeroed, so no value left in freed memory by an earlier step can
        # stand in for a scratch row this step fails to write.
        work = np.zeros((10, n, d))
        work[:7] = buf
    rows = work.reshape(10, -1)
    np.matmul(gather, rows[:7], out=rows[7])
    objectives.grad(work[7], out=work[7])
    np.matmul(send, rows[:7], out=rows[8:])
    # mix takes the payloads side by side, (n, 2d); out is free until the
    # last product, so it holds them.
    sent = out[:2].reshape(n, 2, d)
    np.copyto(sent, work[8:].transpose(1, 0, 2))
    mixed = blockvec.mix(mixing.compound(state.k, T), sent.reshape(n, 2 * d))
    np.copyto(work[8:], mixed.reshape(n, 2, d).transpose(1, 0, 2))
    np.matmul(update, rows, out=out.reshape(7, -1))
    return State(state.k + 1, out)


@dataclass(frozen=True)
class LyapunovReport:
    """Decomposition of the contracting potential at one iterate, or at each
    iterate of a block.

    The fields are floats for one iterate and float64 arrays, one entry per
    iterate, for a block (see :func:`lyapunov`). Every component is
    nonnegative: the Bregman term because the objective minus
    (nu/2) ||.||^2 stays convex (nu < mu), the buffer term because it is a
    projection seminorm.
    """

    psi_x: float
    psi_yz: float
    components: dict

    @property
    def total(self):
        return self.psi_x + self.psi_yz


def lyapunov(state, params, objectives, reference, *, diff=None):
    """Evaluate the potential certifying per-iteration geometric decay.

    The state rows minus their stacked saddle values (zero for m) hold
    every distance the potential measures once three rows are combined in
    place; one reduction then takes the seven squared norms.

    The state's buffer is one iterate, (7, n, d), whose report holds
    floats, or a block of B iterates stacked along a leading axis,
    (B, 7, n, d), whose one report holds length-B float64 arrays in
    ``psi_x``, ``psi_yz`` and every ``components`` value. A block costs
    about the numpy calls of one iterate: one stacked ``objectives.value``
    of its x_f points, one difference and projection over the block, one
    reduction for its 7B squared norms, one ``_row_dots`` call for the B
    dot products with ``grad_star``, and the same array expressions as one
    iterate's floats. Those take the floats' operations in their order, and
    ``_row_dots`` gives each dot product the bits of its own ``vdot``, so
    entry i has the bits of a call on iterate i alone.

    ``diff``, an array of the buffer's shape, receives the seven difference
    rows; it is allocated when omitted. It may be the state's own buffer,
    which then turns into its difference rows in place: :func:`run` passes
    its history so.
    """
    p = params
    ref = reference

    buf = state._buf
    if diff is None:
        diff = np.empty_like(buf)
    # Read x_f before diff, which may be the same memory, overwrites it.
    value = objectives.value(buf[..., 4, :, :])
    # One subtraction for all seven rows; m's saddle value is zero, so its
    # row keeps m's bits.
    np.subtract(buf, ref._rows, out=diff)
    # Row-major view of a block, so each row is one plain index.
    gaps = diff if buf.ndim == 3 else diff.swapaxes(0, 1)
    blockvec.project_consensus(gaps[3], out=gaps[3])  # m's zero-sum part
    gaps[2] -= gaps[3]  # z_hat = z - that part
    gaps[6] += gaps[5]  # y_f + z_f
    flat = diff.reshape(-1, buf.shape[-2] * buf.shape[-1])
    norms = np.einsum("ri,ri->r", flat, flat)
    # Each iterate's x_f - x* row against grad_star. For one row a vdot is
    # about 1.2 us cheaper than the _row_dots call, which pays from two on.
    if buf.ndim == 3:
        squares = norms.tolist()
        dot = float(np.vdot(ref.grad_star, flat[4]))
    else:
        squares = norms.reshape(-1, 7).T
        dot = _row_dots(flat[4::7], ref.grad_star.ravel())
    sq_x, sq_y, sq_zhat, sq_m, sq_xf, sq_yf, sq_coupled = squares

    d_f = value - ref.f_star - dot
    x_dist = (1.0 / p.eta + p.alpha) * sq_x
    x_bregman = (2.0 / p.tau2) * (d_f - 0.5 * p.nu * sq_xf)
    psi_x = x_dist + x_bregman

    y_dist = (1.0 / p.theta + 0.5 * p.beta) * sq_y
    yf_dist = (0.5 * p.beta / p.sigma2) * sq_yf
    zhat_dist = (1.0 / p.gamma) * sq_zhat
    m_proj = (4.0 / (3.0 * p.gamma)) * sq_m
    coupled = (1.0 / (p.nu * p.sigma2)) * sq_coupled
    psi_yz = y_dist + yf_dist + zhat_dist + m_proj + coupled

    return LyapunovReport(
        psi_x=psi_x,
        psi_yz=psi_yz,
        components={
            "x_dist": x_dist,
            "x_bregman": x_bregman,
            "y_dist": y_dist,
            "yf_dist": yf_dist,
            "zhat_dist": zhat_dist,
            "m_proj": m_proj,
            "coupled": coupled,
        },
    )


@dataclass(frozen=True, slots=True)
class RunRecord:
    """Per-iteration telemetry row."""

    k: int
    comm_rounds: int
    grad_calls: int
    err_sq_stacked: float
    err_sq_mean_block: float
    psi_x: float
    psi_yz: float


@dataclass
class RunResult:
    """Outcome of :func:`run`; ``stop_reason`` names the stop that ended it:
    ``"converged"`` (the error target), ``"budget"`` (the budget, or the
    iteration cap when no budget was given) or ``"stalled"``."""

    records: list
    state: State
    stop_reason: str
    trace: list | None = None

    @property
    def converged(self):
        return self.stop_reason == "converged"


def _guard(state):
    """Raise on the first of x, y, z, m with a coordinate that is not finite
    or exceeds the limit.

    One ``vdot`` over the four rows passes them when their sum of squares
    is at most ``GUARD_SQNORM``. Otherwise (a large, infinite or NaN sum)
    an exact scan, row by row, decides. ``vdot`` stays silent when the
    squares overflow, where a matmul would warn."""
    head = state._buf[:4]
    if np.vdot(head, head) <= GUARD_SQNORM:
        return
    for name, row in zip("xyzm", head):
        peak = float(np.abs(row).max(initial=0.0))
        if not peak <= DIVERGENCE_LIMIT:
            raise DivergenceError(state.k, peak, name)


def _errors(xs, reference, metric):
    """Squared error ``metric`` (see ``STOP_METRICS``) of each x row of the
    (B, n, d) stack ``xs``: B floats, each with the bits of its row's own
    ``vdot``, which one row takes, 1.3 us cheaper than ``_row_dots``."""
    if metric == "stacked":
        gaps = (xs - reference.x).reshape(len(xs), -1)
    else:
        gaps = xs.sum(axis=1) / xs.shape[1] - reference.x_bar
    if len(gaps) == 1:
        return [float(np.vdot(gaps, gaps))]
    return _row_dots(gaps).tolist()


def _flush(records, trace, keep, history, k0, T, lyapunov_args, reference, taken):
    """Append the records of iterates ``k0``, ``k0 + 1``, ..., which sit raw
    in ``history``, (count, 7, n, d), and one copy of the x rows of those
    below ``keep`` to ``trace``. ``taken`` maps a stop metric to the errors
    the stop test already took of these iterates, which the records reuse;
    the other error and the copy come from the raw rows. Then, with
    ``lyapunov_args``, one :func:`lyapunov` pass takes the potential,
    turning the slots into difference rows in place."""
    count = len(history)
    xs = history[:, 0]
    stacked = taken.get("stacked") or _errors(xs, reference, "stacked")
    mean_block = taken.get("mean_block") or _errors(xs, reference, "mean_block")
    if k0 < keep:
        trace.extend(xs[: keep - k0].copy())
    if lyapunov_args:
        # One iterate goes as a (7, n, d) buffer: numpy loops over a leading
        # axis of length one more slowly than over none.
        block = history[0] if count == 1 else history
        report = lyapunov(State(k0, block), *lyapunov_args, diff=block)
        if count == 1:
            psi_x, psi_yz = [report.psi_x], [report.psi_yz]
        else:
            psi_x, psi_yz = report.psi_x.tolist(), report.psi_yz.tolist()
    else:
        psi_x = psi_yz = [math.nan] * count
    rows = zip(range(k0, k0 + count), stacked, mean_block, psi_x, psi_yz)
    for k, err_stacked, err_mean, px, pyz in rows:
        records.append(RunRecord(k, k * T, k, err_stacked, err_mean, px, pyz))


def run(
    objectives,
    mixing,
    T=1,
    budget=None,
    target_eps=None,
    params=None,
    reference=None,
    stop_metric="mean_block",
    track_lyapunov=True,
    collect_trace=False,
):
    """Run the solver until an error target, a stall or an iteration budget.

    Parameters
    ----------
    objectives : QuadraticObjectives or LogisticObjectives
    mixing : topology.MixingSchedule
    T : int
        Consensus sub-rounds per iteration (1 = one gossip round), an
        integer >= 1.
    budget : int, optional
        Maximum number of iterations, an integer >= 0; ``ITERATION_CAP``
        when omitted.
    target_eps : float, optional
        Stop once the squared error of the chosen metric falls below this.
        With a target, the run also stops, as ``"stalled"``, once that
        error has gone ``STALL_WINDOW`` e-folding times of the certified
        rate ``1 - params.sigma2 / 2``, ``2 / params.sigma2`` iterations
        each, without falling below ``STALL_FACTOR`` times its last such
        low.
    params : Params, optional
        Defaults to the theoretical schedule at the mixing operator's
        effective condition number.
    reference : SaddleReference, optional
        Computed from the averaged objective when omitted.
    stop_metric : one of STOP_METRICS
        Error used for the target test: distance of the block average to the
        minimizer (``"mean_block"``), or of the full stacked iterate to the
        consensus point (``"stacked"``).
    track_lyapunov : bool
        Record the potential decomposition at every iterate.
    collect_trace : bool or int
        ``True`` keeps a copy of every x iterate in ``RunResult.trace``; an
        integer N >= 1 keeps the first N only, the prefix that
        ``hardcase.checked_iterates`` gives the run certifier. ``True`` is
        not N = 1.

    The run allocates its buffers once: a (10, n, d) workspace holding the
    state's rows and :func:`step`'s scratch rows, and a (K, 7, n, d)
    history. Each step writes the next iterate into the history's next
    slot, from which it is copied back into the workspace. At every iterate
    the run takes only the error its target test reads, none without a
    target. When the history is full, when the run stops and before a
    divergence is raised, its iterates become records and trace entries:
    the records reuse the target test's errors; the other error, by the
    same formula, and one copy of the x rows the trace keeps come from the
    raw rows; then one :func:`lyapunov` call takes their potential. With
    the potential tracked, K is ``BLOCK_BYTES // (7 n d 8)`` when that is
    at least ``BLOCK_MIN``, else 1; untracked, K is 1. The records have the
    same bits at every K.

    Returns
    -------
    RunResult
        Records (one per visited iterate, including k = 0), final state,
        the ``stop_reason``, and optionally the x trace.

    Raises
    ------
    DivergenceError
        When an iterate leaves the finite range, with the record of the
        last finite iterate attached as ``last_record``.
    """
    if budget is None and target_eps is None:
        raise ValueError("need a budget, a target_eps, or both")
    blockvec._check_integer("T", T, 1)
    if budget is not None:
        blockvec._check_integer("budget", budget, 0)
    if stop_metric not in STOP_METRICS:
        raise ValueError(f"unknown stop metric {stop_metric!r}")
    if not isinstance(collect_trace, bool):
        blockvec._check_integer("collect_trace", collect_trace, 1)
    if params is None:
        params = derive_params(
            objectives.L, objectives.mu, effective_chi(mixing.chi, T)
        )
    if reference is None:
        reference = make_reference(objectives, params.nu)
    limit = ITERATION_CAP if budget is None else budget
    window = STALL_WINDOW * 2.0 / params.sigma2

    n, d = objectives.n, objectives.d
    fit = BLOCK_BYTES // (7 * n * d * 8)
    size = fit if track_lyapunov and fit >= BLOCK_MIN else 1
    lyapunov_args = (params, objectives, reference) if track_lyapunov else ()
    work = np.zeros((10, n, d))
    state = State(0, work[:7])
    history = np.zeros((size, 7, n, d))  # slot 0 holds the zero start
    slots = list(history)
    records = []
    # The x rows of the iterates below keep go to the trace; no run has
    # more than limit + 1 iterates.
    keep = limit + 1 if collect_trace is True else int(collect_trace)
    trace = [] if keep else None
    # Iterates k0 .. k0 + count - 1 wait in the history's first slots, and
    # the errors the stop test took of them in errs.
    k0, count = 0, 0
    errs = []
    taken = {stop_metric: errs} if target_eps is not None else {}
    low, low_k = math.inf, 0

    def flush():
        block = history[:count]
        _flush(records, trace, keep, block, k0, T, lyapunov_args, reference, taken)
        errs.clear()

    while True:
        count += 1
        reason = None
        if target_eps is not None:
            err = _errors(state.x[None], reference, stop_metric)[0]
            errs.append(err)
            if err <= target_eps:
                reason = "converged"
            elif err < STALL_FACTOR * low:
                low, low_k = err, state.k
            elif state.k - low_k >= window:
                reason = "stalled"
        if reason is None and state.k >= limit:
            reason = "budget"
        if reason is not None or count == size:
            flush()
            k0, count = state.k + 1, 0
        if reason is not None:
            break
        nxt = slots[count]
        step(state, params, objectives, mixing, T=T, work=work, out=nxt)
        work[:7] = nxt
        state.k += 1
        try:
            _guard(state)
        except DivergenceError as err:
            if count:
                flush()
            err.last_record = records[-1]
            raise

    return RunResult(records, state, reason, trace=trace)
