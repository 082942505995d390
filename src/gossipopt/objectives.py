"""Local objective functions and their gradient oracles.

Each of the n nodes owns one smooth, strongly convex function on R^d. Two
families are provided: l2-regularized logistic losses over per-node data,
stored once with each label folded into its feature row, and quadratics
whose curvature matrices are shared by equal, contiguous groups of nodes
(down to one node per group). Both evaluate all n nodes at once with
batched matmuls: ``grad`` and ``value`` take stacked (n, d) points, and
``mean_grad`` and ``mean_hessian`` take one point in R^d. ``value`` also
takes points stacked along leading axes, (..., n, d), and returns one total
per point, each with the bits of its own call. Both take their smoothness
and strong-convexity constants from the caller; each generator knows them.
``reference_minimizer`` runs Newton's method on the averaged objective with
those two, and reaches its minimizer to the float floor in a few steps.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

__all__ = [
    "QuadraticObjectives",
    "LogisticObjectives",
    "gen_synthetic_logistic",
    "gen_random_quadratic",
    "reference_minimizer",
]


class QuadraticObjectives:
    """Per-node quadratics f_i(x) = x'Q_i x / 2 + c_i'x + offset_i.

    The n nodes fall into K contiguous groups of n / K nodes that share one
    curvature matrix: node i uses ``quad[i // (n // K)]``. K = n gives every
    node its own matrix; the hard instance stores only its K = 3. Either way
    ``grad`` and ``value`` apply the curvature to all nodes with one batched
    matmul, which computes x_i'Q rather than Q x_i and so relies on every
    matrix being symmetric. At a stack of points, ``value`` takes that
    matmul over the whole stack and each point's two dot products with one
    ``_row_dots`` call each.

    Parameters
    ----------
    quad : ndarray, shape (K, d, d)
        Symmetric positive definite curvature per group; K must divide n.
    lin : ndarray, shape (n, d)
        Linear terms, per node.
    L, mu : float
        Smoothness and strong-convexity constants, L >= mu > 0: bounds on
        the curvature spectra, which are not computed here.
    offsets : ndarray, shape (n,), optional
        Additive constants (affect values, not gradients).

    Raises
    ------
    ValueError
        If the shapes disagree, K does not divide n, some Q differs from
        its transpose by more than 1e-12 relative to the largest entry, or
        not L >= mu > 0.
    """

    def __init__(self, quad, lin, L, mu, offsets=None):
        quad = np.asarray(quad, dtype=float)
        lin = np.asarray(lin, dtype=float)
        if quad.ndim != 3 or quad.shape[1] != quad.shape[2]:
            raise ValueError(f"quad must have shape (K, d, d), got {quad.shape}")
        if lin.ndim != 2 or lin.shape[1] != quad.shape[1]:
            raise ValueError(
                f"lin shape {lin.shape} disagrees with quad {quad.shape}"
            )
        if quad.shape[0] == 0 or lin.shape[0] % quad.shape[0]:
            raise ValueError(
                f"quad shape {quad.shape} does not split lin shape {lin.shape} "
                f"into equal groups: K={quad.shape[0]} must divide n={lin.shape[0]}"
            )
        asym = np.abs(quad - quad.transpose(0, 2, 1))
        worst = np.unravel_index(np.argmax(asym), asym.shape)
        if asym[worst] > 1e-12 * np.abs(quad).max():
            raise ValueError(
                f"quad must be symmetric: |Q - Q'| reaches {asym[worst]:.3e} "
                f"at matrix {worst[0]}, entry ({worst[1]}, {worst[2]})"
            )
        self.quad = quad
        self.lin = lin
        self.n, self.d = lin.shape
        self._group_size = self.n // quad.shape[0]
        self.offsets = (
            np.zeros(self.n) if offsets is None else np.asarray(offsets, dtype=float)
        )
        if self.offsets.shape != (self.n,):
            raise ValueError(
                f"offsets shape {self.offsets.shape} disagrees with lin shape "
                f"{lin.shape}: need one offset per node, shape ({self.n},)"
            )
        if not L >= mu > 0:
            raise ValueError(f"need L >= mu > 0, got L={L}, mu={mu}")
        self.L = float(L)
        self.mu = float(mu)
        # The groups are equal, so the mean over K is the mean over nodes.
        self._mean_quad = quad.mean(axis=0)
        self._mean_lin = lin.mean(axis=0)

    def _curvature(self, x):
        """Q_i x_i for every node of every point (..., n, d): (x_i'Q)' per
        group, Q symmetric. Each point's products have the bits of a call
        on that point alone."""
        grouped = x.shape[:-2] + (self.quad.shape[0], self._group_size, self.d)
        return (x.reshape(grouped) @ self.quad).reshape(x.shape)

    def value(self, x):
        """Total over the nodes at an (n, d) point, as a float; at a stack
        of points (..., n, d), an array of the totals, whose dot products
        ``_row_dots`` takes with the bits of the point's own ``vdot``."""
        curved = self._curvature(x)
        if x.ndim == 2:
            return float(
                0.5 * np.vdot(x, curved) + np.vdot(self.lin, x) + self.offsets.sum()
            )
        rows = x.reshape(-1, self.n * self.d)
        quad = _row_dots(rows, curved.reshape(rows.shape))
        lin = _row_dots(rows, self.lin.ravel())
        return (0.5 * quad + lin + self.offsets.sum()).reshape(x.shape[:-2])

    def grad(self, x, out=None):
        """Gradients at an (n, d) point, into ``out`` when given; ``out``
        may be ``x`` itself."""
        return np.add(self._curvature(x), self.lin, out=out)

    def mean_grad(self, x):
        """Gradient of (1/n) sum_i f_i at a single point x in R^d."""
        return self._mean_quad @ x + self._mean_lin

    def mean_hessian(self, x):
        """Hessian of (1/n) sum_i f_i: the mean curvature, whatever x."""
        return self._mean_quad


class LogisticObjectives:
    """Per-node l2-regularized logistic losses over (features, labels).

    f_i(x) = (1/m) sum_j log(1 + exp(-b_ij a_ij'x)) + (reg/2) ||x||^2
    with labels in {-1, +1}. The caller passes the smoothness constant
    ``L``, which :func:`gen_synthetic_logistic` sets to the standard
    curvature bound max_i lambda_max(A_i'A_i) / (4m) + reg; strong
    convexity equals reg.

    The oracles read one label-signed copy of the data, the rows
    ``-b_ij a_ij`` (exact, since b_ij = +-1). Then the margins
    t_ij = -b_ij a_ij'x of all nodes are one batched matmul, the data
    gradient sum_j expit(t_ij) (-b_ij a_ij) / m is another, and the loss
    log(1 + e^t) is the softplus max(t, 0) + log1p(e^-|t|): the branch
    ``np.logaddexp(0, t)`` takes, so it never overflows.
    """

    def __init__(self, features, labels, reg, L):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 3:
            raise ValueError(
                f"features must have shape (n, m, d), got {features.shape}"
            )
        if labels.shape != features.shape[:2]:
            raise ValueError(
                f"labels shape {labels.shape} disagrees with features"
            )
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must be -1 or +1")
        if reg <= 0:
            raise ValueError(f"reg must be positive, got {reg}")
        self.labels = labels
        self._signed = -labels[:, :, None] * features
        self.reg = float(reg)
        self.n, self.m, self.d = features.shape
        self.L = float(L)
        self.mu = self.reg

    def _margins(self, x):
        """t_ij = -b_ij a_ij'x for every node of every point (..., n, d):
        shape (..., n, m)."""
        return (self._signed @ x[..., None])[..., 0]

    def value(self, x):
        """Total over the nodes at an (n, d) point, as a float; at a stack
        of points (..., n, d), an array of the totals, whose squared norms
        ``_row_dots`` takes in one call."""
        t = self._margins(x)
        losses = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
        if x.ndim == 2:
            return float(losses.sum() / self.m + 0.5 * self.reg * np.vdot(x, x))
        sq = _row_dots(x.reshape(-1, self.n * self.d)).reshape(x.shape[:-2])
        return losses.sum(axis=(-2, -1)) / self.m + 0.5 * self.reg * sq

    def grad(self, x, out=None):
        """Gradients at an (n, d) point, into ``out`` when given; ``out``
        may be ``x`` itself."""
        data = (expit(self._margins(x))[:, None, :] @ self._signed)[:, 0, :]
        data /= self.m
        return np.add(data, self.reg * x, out=out)

    def mean_grad(self, x):
        signed = self._signed.reshape(-1, self.d)
        return signed.T @ expit(signed @ x) / (self.m * self.n) + self.reg * x

    def mean_hessian(self, x):
        """Hessian A' diag(s (1 - s)) A / (nm) + reg I at x. s (1 - s) is even
        in the margin, so A may be the signed rows and s = expit(-|t|) <= 1/2."""
        signed = self._signed.reshape(-1, self.d)
        s = expit(-np.abs(signed @ x))
        weighted = signed.T * (s * (1.0 - s))
        return weighted @ signed / (self.m * self.n) + self.reg * np.eye(self.d)


def _row_dots(rows, other=None):
    """Dot product of each row of a (K, N) array with itself, with one (N,)
    vector ``other``, or with the same row of a (K, N) array ``other``: a
    length-K array from one matmul of (K, 1, N) rows by (N, 1) columns.

    numpy hands each vector-by-vector product of a matmul to the BLAS
    ``ddot`` that ``np.vdot`` calls, so entry i has the bits of
    ``np.vdot(rows[i], rows[i])``, ``np.vdot(other, rows[i])`` or
    ``np.vdot(rows[i], other[i])``. A matrix-vector product (gemv) or
    ``einsum`` does not keep them. Unlike ``np.vdot``, the matmul warns when
    a product overflows.
    """
    right = (rows if other is None else other)[..., None]
    return np.matmul(rows[:, None, :], right)[:, 0, 0]


def gen_synthetic_logistic(n, m, d, seed, kappa):
    """Synthetic classification data with a prescribed condition number.

    Features are standard normal; labels follow a planted unit direction
    with 5% independent flips. The regularizer is set so that the stored
    condition number (L_data + reg) / reg equals ``kappa`` exactly.
    """
    if min(n, m, d) < 1:
        raise ValueError("n, m, d must all be >= 1")
    if not np.inf > kappa > 1:
        raise ValueError(f"kappa must be finite and exceed 1, got {kappa}")
    rng = np.random.default_rng(seed)
    planted = rng.standard_normal(d)
    planted /= np.linalg.norm(planted)
    features = rng.standard_normal((n, m, d))
    clean = np.where(features @ planted >= 0.0, 1.0, -1.0)
    flips = rng.random((n, m)) < 0.05
    labels = np.where(flips, -clean, clean)
    l_data = max(float(np.linalg.eigvalsh(a.T @ a)[-1]) for a in features) / (4.0 * m)
    reg = l_data / (kappa - 1.0)
    return LogisticObjectives(features, labels, reg, L=l_data + reg)


def gen_random_quadratic(n, d, L, mu, seed):
    """Random quadratics whose node spectra exactly span [mu, L]."""
    if not np.inf > L > mu > 0:
        raise ValueError(f"need L > mu > 0 and L finite, got L={L}, mu={mu}")
    if d < 2:
        raise ValueError(f"need d >= 2 to pin both spectrum endpoints, got {d}")
    # The draws go node by node, as the stream order fixes. The algebra runs
    # stacked over blocks of about 16 KB a matrix stack: a stacked QR over
    # all n nodes would hold four (n, d, d) temporaries at once.
    rng = np.random.default_rng(seed)
    quad = np.empty((n, d, d))
    eigs = np.empty((n, d))
    for i in range(n):
        quad[i] = rng.standard_normal((d, d))
        eigs[i] = rng.uniform(mu, L, size=d)
    eigs[:, 0], eigs[:, -1] = mu, L
    step = max(1, 2048 // (d * d))
    for lo in range(0, n, step):
        basis, _ = np.linalg.qr(quad[lo : lo + step])
        block = (basis * eigs[lo : lo + step, None, :]) @ basis.transpose(0, 2, 1)
        quad[lo : lo + step] = 0.5 * (block + block.transpose(0, 2, 1))
    lin = rng.standard_normal((n, d))
    return QuadraticObjectives(quad, lin, L=L, mu=mu)


def reference_minimizer(objectives):
    """Minimizer of the averaged objective (1/n) sum_i f_i, to the float floor.

    Newton's method from zero on ``mean_grad`` and ``mean_hessian``. It stops
    when a step is within a few ulps of |x|, or when the gradient norm stops
    falling, and returns the iterate with the smaller gradient norm.

    Raises
    ------
    RuntimeError
        If neither happens within 50 steps.
    """
    x = np.zeros(objectives.d)
    grad = objectives.mean_grad(x)
    for _ in range(50):
        step = np.linalg.solve(objectives.mean_hessian(x), grad)
        grad_next = objectives.mean_grad(x - step)
        if not np.linalg.norm(grad_next) < np.linalg.norm(grad):
            return x
        x, grad = x - step, grad_next
        if np.linalg.norm(step) <= 4.0 * np.spacing(np.linalg.norm(x)):
            return x
    norm = np.linalg.norm(grad)
    raise RuntimeError(f"Newton solve: |grad| {norm:.3e} still falling after 50 steps")
