"""Algebra on stacked node-block vectors.

A distributed vector is an (n, d) float array: one length-d block per node,
node-major and contiguous. The consensus subspace holds the vectors whose
blocks are all equal; its orthogonal complement holds the vectors whose
blocks sum to zero. ``project_consensus`` projects onto that complement, so
the squared norm of its output is the nodes' disagreement (the consensus
gap). Mixing a distributed vector with a gossip matrix costs one
communication round; ``multi_mix`` applies T rounds, which tightens the
contraction on the zero-block-sum subspace from (1 - 1/chi) to
(1 - 1/chi)**T. The rounds repeat with the schedule's cycle, so
``multi_mix`` multiplies out one cycle and raises it to a power instead of
running the rounds one by one: about cycle + 2 log2(T / cycle) matrix
products rather than T. ``MixingSchedule.compound`` runs it on the identity
to build the T-round operator that the solver applies as one ``mix``.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "mix",
    "project_consensus",
    "multi_mix",
]


def _check_integer(name, value, least):
    """Reject ``value`` unless it is an integer >= ``least``: a numpy
    integer is one, a bool or a float such as 2.0 is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _as_blocks(v):
    """Validate and return a 2-d float view of a distributed vector."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"distributed vector must be 2-d (n, d), got shape {v.shape}")
    return v


def mix(w, v):
    """Apply one gossip round: output block i is sum_j W[i, j] * v_j.

    When the gossip matrix has zero column sums, the output blocks sum to
    zero regardless of the input.
    """
    w = np.asarray(w, dtype=float)
    v = _as_blocks(v)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"gossip matrix must be square, got shape {w.shape}")
    if w.shape[0] != v.shape[0]:
        raise ValueError(
            f"node count mismatch: matrix is {w.shape[0]}x{w.shape[0]}, "
            f"vector has {v.shape[0]} blocks"
        )
    return w @ v


def project_consensus(v, out=None):
    """Orthogonal projection onto the zero-block-sum subspace.

    Subtracts the block mean from every block; idempotent. ``v`` is one
    distributed vector (n, d) or several stacked along leading axes
    (..., n, d), each projected on its own. ``out``, an array of v's shape,
    receives the result when given.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 2:
        raise ValueError(f"distributed vector must be (..., n, d), got shape {v.shape}")
    return np.subtract(v, v.sum(axis=-2, keepdims=True) / v.shape[-2], out=out)


def multi_mix(mixing, k, T, v):
    """Apply the T-round compound gossip operator of iteration k.

    Computes ``v - prod_{q=kT}^{(k+1)T-1} (I - W(q)) v``. Costs T
    communication rounds. For zero-block-sum v the result satisfies
    ``||out - v||^2 <= (1 - 1/chi)**T ||v||^2``.

    With T = whole * cycle + rest, every whole cycle that starts at round
    kT (mod cycle) has the same product B of its rounds' ``I - W(q)``. B is
    multiplied out once, ``B**whole`` is applied to v by binary powering,
    and the ``rest`` leftover rounds follow one by one: at most
    ``cycle + rest + 2 * whole.bit_length()`` matrix products.
    """
    _check_integer("T", T, 1)
    v = _as_blocks(v)
    whole, rest = divmod(T, mixing.cycle)
    start = k * T
    # The products write into preallocated buffers and swap them, so
    # building a compound operator holds five n x n arrays.
    r = v.copy()
    spare = np.empty_like(r)
    if whole:
        b = np.eye(len(r))
        b_spare = np.empty_like(b)
        for q in range(start, start + mixing.cycle):
            b -= np.matmul(mixing.w(q), b, out=b_spare)
        while True:
            if whole & 1:
                r, spare = np.matmul(b, r, out=spare), r
            whole >>= 1
            if not whole:
                break
            b, b_spare = np.matmul(b, b, out=b_spare), b
    for q in range(start, start + rest):
        r -= np.matmul(mixing.w(q), r, out=spare)
    return np.subtract(v, r, out=r)
