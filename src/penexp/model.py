"""Problem instances and synthetic data generation.

Symmetric positive-definite matrices (covariances and curvatures) as
structured operators, group structures, designs and datasets. A dataset's
responses are drawn by its loss (losses), which owns the observation model;
this module knows no loss and no link. Its inputs are checked once, by
harness.ExperimentConfig; the matrices guard only their own forms.

All generation is driven by counter-based Philox streams keyed by
(master_seed, stream ids), so draws do not depend on the order in which
parallel replications complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def stream_rng(master_seed, *ids):
    """Return a Generator on an independent Philox stream.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed.
    *ids : int
        Stream identifiers (grid point, replication, purpose). Distinct id
        tuples give statistically independent streams.
    """
    seq = np.random.SeedSequence((int(master_seed),) + tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(seq))


def _readonly(a, dtype=float):
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Symmetric positive-definite matrix: a covariance Sigma or a curvature K.

    It takes one of three forms:

    - The identity stores no p x p array: products, solves and norms act on
      their argument directly, and `matrix` builds I only when asked for.
    - AR(1) with rho != 0 holds its eigenvalues w (ascending, in closed
      form; see _ar1_eigenpairs) and one p x p array, the symmetric root
      R = B B' with B = V diag(w^{1/4}), built at construction (not a
      Cholesky factor, so ||Sigma^{1/2} u|| norms read as in the analysis).
      No dense Sigma is held: products are R (R u), two O(p^2) products,
      and solves the O(p) tridiagonal stencil of Sigma^{-1}.
    - A rank-one update m0 base + c q q' of a covariance base (rank_one; the
      logistic curvature). It holds a reference to base, the scalars m0 and
      c and the vector q: no p x p array of its own and no
      eigendecomposition. Products are m0 (base u) + c q (q'u), solves are
      Sherman-Morrison on top of base's solve, and eig_max is Weyl's
      bound m0 base.eig_max + max(c, 0) |q|^2. For c <= 0, as for the
      logistic K, it is exact on the identity (p >= 2) and exceeds the
      largest eigenvalue by at most m0 (w_p - w_{p-1}) on base's
      eigenvalues w. `matrix` builds the dense matrix on every call.

    Covariances come from identity and ar1 and must be positive definite;
    eig_min serves them alone. A curvature matrix is a covariance itself
    (squared loss) or comes from rank_one, and must be nonsingular.
    """

    kind: str
    p: int
    rho: float
    _w: np.ndarray | None = field(default=None, repr=False)
    _root: np.ndarray | None = field(default=None, repr=False)
    # the covariance a rank-one update is made from, None otherwise
    base: CovarianceModel | None = field(default=None, repr=False)
    _m0: float = 1.0
    _c: float = 0.0
    _q: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def identity(cls, p):
        return cls("identity", int(p), 0.0)

    @classmethod
    def ar1(cls, p, rho):
        """AR(1) covariance, entry (i, j) = rho^|i-j|."""
        rho, p = float(rho), int(p)
        if not -1.0 < rho < 1.0:
            raise ValueError("ar1 correlation must lie in (-1, 1), got %g" % rho)
        # every eigenvalue, at any p, lies above this infimum of the spectrum
        floor = (1.0 - abs(rho)) / (1.0 + abs(rho))
        if floor < 1e-10:
            raise ValueError(
                "covariance is not positive definite: ar1 eigenvalues fall "
                "to (1 - |rho|)/(1 + |rho|) = %.3e, below 1e-10" % floor)
        if rho == 0.0 or p == 1:
            # the identity, stored as nothing; this keeps ar1(0) draws
            # bit-identical to the identity model's
            return cls("ar1", p, rho)
        w, vecs = _ar1_eigenpairs(p, rho)
        vecs *= w ** 0.25
        # B B' with B = V diag(w^{1/4}): numpy runs it as a symmetric
        # rank-k update, so the root is exactly symmetric
        return cls("ar1", p, rho, w, _readonly(vecs @ vecs.T))

    @classmethod
    def from_spec(cls, spec, p):
        """Covariance of dimension p from a spec: identity or ar1:<rho>."""
        if spec == "identity":
            return cls.identity(p)
        if spec.startswith("ar1:"):
            return cls.ar1(p, float(spec.split(":", 1)[1]))
        raise ValueError("unknown covariance %r (identity or ar1:<rho>)"
                         % (spec,))

    @classmethod
    def rank_one(cls, base, m0, c, q):
        """Curvature matrix m0 base + c q q', a rank-one update of the
        identity or AR(1) covariance base."""
        K = cls("curvature", base.p, 0.0, base=base, _m0=float(m0),
                _c=float(c), _q=_readonly(np.array(q, dtype=float)))
        if not (np.isfinite([K._m0, K._c]).all() and np.isfinite(K._q).all()):
            raise ValueError("curvature matrix has a non-finite m0, c or q")
        low, high = K.relative_bounds
        if low <= 1e-12 * max(high, 1e-300):
            raise ValueError("curvature matrix is singular (smallest "
                             "eigenvalue relative to the covariance %.3e)"
                             % low)
        return K

    @property
    def is_identity(self):
        return self._w is None and self.base is None

    @property
    def matrix(self):
        """The dense matrix, built anew on every call."""
        return _readonly(np.eye(self.p) if self.is_identity
                         else self.principal(np.arange(self.p)))

    @cached_property
    def eig_min(self):
        if self.base is not None:
            raise ValueError("a rank-one update has no eig_min; see "
                             "relative_bounds")
        return 1.0 if self.is_identity else float(self._w.min())

    @cached_property
    def eig_max(self):
        if self.base is not None:
            # Weyl's bound, raised by p eps of its magnitude (the rounding
            # error of base's eigenvalues) to bound the dense matrix's too
            hi = self._m0 * self.base.eig_max + max(self._c, 0.0) * \
                float(self._q @ self._q)
            return hi + self.p * np.finfo(float).eps * abs(hi)
        return 1.0 if self.is_identity else float(self._w.max())

    @cached_property
    def _sherman_morrison(self):
        # r = base^{-1} q and a = m0 + c q'r
        r = self.base.solve(self._q)
        return r, self._m0 + self._c * float(self._q @ r)

    @property
    def relative_bounds(self):
        """Least and largest u'Mu / u'(base)u over u != 0 of a rank-one
        update M: base^{-1/2} M base^{-1/2} = m0 I + c r r' with
        |r|^2 = q' base^{-1} q, whose eigenvalues are m0 and m0 + c |r|^2."""
        if self.base is None:
            raise ValueError("relative_bounds is for rank-one updates alone")
        a = self._sherman_morrison[1]
        return min(self._m0, a), max(self._m0, a)

    def principal(self, idx):
        """The principal submatrix on the indices idx."""
        if self.base is not None:
            q = self._q[idx]
            return self._m0 * self.base.principal(idx) + \
                self._c * np.outer(q, q)
        d = np.subtract.outer(idx, idx, dtype=float)
        # + 0.0 turns rho = -0.0 into 0.0, whose powers are I's exact bits
        return np.power(self.rho + 0.0, np.abs(d, out=d), out=d)

    def __matmul__(self, u):
        """The matrix times u, a vector or a matrix of columns."""
        u = np.asarray(u, dtype=float)
        if self.base is not None:
            return self._m0 * (self.base @ u) + \
                np.multiply.outer(self._q, self._c * (self._q @ u))
        if self.is_identity:
            return u
        return self._root @ (self._root @ u)

    def solve(self, u):
        """The inverse times u, a vector or a matrix of columns."""
        u = np.asarray(u, dtype=float)
        if self.base is not None:
            # (m0 B + c q q')^{-1} u = (x - r c (q'x) / a) / m0, x = B^{-1} u
            r, a = self._sherman_morrison
            x = self.base.solve(u)
            return (x - np.multiply.outer(r, (self._c / a) * (self._q @ x))) \
                / self._m0
        if self.is_identity:
            return u
        # Sigma^{-1} is tridiagonal: ((1 + rho^2) u_i - rho (u_{i-1} +
        # u_{i+1})) / (1 - rho^2), with 1 for 1 + rho^2 in the end rows
        rho = self.rho
        x = (1.0 + rho * rho) * u
        x[0], x[-1] = u[0], u[-1]
        x[1:] -= rho * u[:-1]
        x[:-1] -= rho * u[1:]
        return x / ((1.0 - rho) * (1.0 + rho))

    def sqrt_rows(self, A):
        """A times the square root: each row of A mapped by the root."""
        if self.base is not None:
            raise ValueError("a rank-one update builds no p x p factor")
        return A if self.is_identity else A @ self._root

    def norm(self, u):
        """||M^{1/2} u|| for this matrix M; zero only at u = 0."""
        u = np.asarray(u, dtype=float)
        return float(np.sqrt(max(u @ (self @ u), 0.0)))


# Rows of the AR(1) eigenvector matrix built per step of its loop.
_AR1_ROW_BLOCK = 64


def _ar1_eigenpairs(p, rho):
    """Eigenvalues w, ascending, and orthonormal eigenvectors V (columns)
    of the AR(1) matrix rho^|i-j|, 0 < |rho| < 1, in closed form.

    Its inverse is tridiagonal (Kac, Murdock and Szego, 1953), so for
    a = |rho| > 0 the eigenvectors are x_j = sin(j theta + phi), j = 1..p,
    with phi = atan2(a sin theta, 1 - a cos theta) and eigenvalue
    (1 - a^2) / ((1 - a)^2 + 4 a sin^2(theta/2)). The two boundary rows
    hold where (p + 1) theta + 2 phi = k pi, k = 1..p: the left side rises
    strictly from 0 at theta = 0 to (p + 1) pi at pi, so one vectorised
    bisection, on its form (p + 1) theta - 2 (pi/2 - phi) = (k - 1) pi that
    keeps k = 1 free of cancellation, finds all p roots to adjacent floats.
    The eigenvalue falls as theta grows, so k = p..1 is ascending order.

    The phase j theta + phi = pi (jk mod 2(p + 1)) / (p + 1)
    + phi (p + 1 - 2j) / (p + 1) is reduced exactly, so its rounding error
    does not grow with j, and x_{p+1-j} = (-1)^(k+1) x_j fills the lower
    half of V from the upper. V, built in place in row blocks, is the only
    p x p array made. For rho < 0 the matrix is D Sigma(a) D with
    D = diag((-1)^j): the same w, and every second row of V negated.
    """
    a = abs(rho)
    k = np.arange(p, 0, -1, dtype=float)
    target = (k - 1.0) * np.pi
    lo, hi = np.zeros(p), np.full(p, np.pi)
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        s = np.sin(0.5 * mid)
        up = (p + 1) * mid - 2.0 * np.arctan2(
            (1.0 - a) + 2.0 * a * s * s, a * np.sin(mid)) >= target
        np.copyto(hi, mid, where=up)
        np.copyto(lo, mid, where=~up)
        mid = 0.5 * (lo + hi)
    theta = hi
    s2 = np.sin(0.5 * theta) ** 2
    w = (1.0 - a) * (1.0 + a) / ((1.0 - a) ** 2 + 4.0 * a * s2)
    phi = np.arctan2(a * np.sin(theta), (1.0 - a) + 2.0 * a * s2)
    vecs = np.empty((p, p))
    half = (p + 1) // 2
    j = np.arange(1, half + 1, dtype=float)
    for start in range(0, half, _AR1_ROW_BLOCK):
        rows = vecs[start:min(start + _AR1_ROW_BLOCK, half)]
        jb = j[start:start + rows.shape[0]]
        np.multiply.outer(jb, k, out=rows)
        np.fmod(rows, 2.0 * (p + 1), out=rows)
        rows *= np.pi / (p + 1)
        rows += np.multiply.outer((p + 1 - 2.0 * jb) / (p + 1), phi)
        np.sin(rows, out=rows)
    np.multiply(vecs[:p - half], np.where(k % 2.0 == 1.0, 1.0, -1.0),
                out=vecs[::-1][:p - half])
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, vecs))
    if rho < 0:
        vecs[1::2] *= -1.0
    return w, vecs


@dataclass(frozen=True, eq=False)
class GroupStructure:
    """Partition of {0, ..., p-1} into M consecutive groups of equal size d:
    group k holds the coordinates k*d, ..., (k+1)*d - 1. It stores M and d
    alone; the index arrays in groups are built when first read."""

    M: int
    d: int

    @cached_property
    def groups(self):
        """The read-only index array of each group, in order."""
        return tuple(_readonly(np.arange(k * self.d, (k + 1) * self.d),
                               np.intp) for k in range(self.M))

    def blocks(self, x):
        """x with its last axis split into (M, d): row k of the block axis
        is group k. A view whenever the reshape allows one."""
        return x.reshape(x.shape[:-1] + (self.M, self.d))

    def norms(self, x):
        """The norm of each group of x along its last axis, squares summed
        in order: np.linalg.norm's bits for d < 8 (it sums pairwise from
        8), without its slow reduce."""
        blocks = self.blocks(x)
        sq = blocks[..., 0] * blocks[..., 0]
        for j in range(1, self.d):
            sq += blocks[..., j] * blocks[..., j]
        return np.sqrt(sq, out=sq)


def flat_signal(p, s, amplitude=1.0):
    """Coefficient vector with the first s <= p coordinates set to
    amplitude."""
    beta = np.zeros(int(p))
    beta[: int(s)] = float(amplitude)
    return beta


@dataclass(frozen=True, eq=False)
class Dataset:
    """One simulated sample, with its score noise e = -l'(y_i, x_i'beta_star)
    kept for oracle use: the drawn eps of linear data, for which
    y = X beta_star + noise holds exactly, or P(Y=1|x_i) - y_i for logistic
    labels (the 0/1 floats LogisticLoss.responses draws). model_kind is
    the loss's model, "linear" or "logistic".
    """

    X: np.ndarray
    y: np.ndarray
    model_kind: str
    design_kind: str
    noise: np.ndarray
    beta_star: np.ndarray
    covariance: CovarianceModel

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


def generate_design(cov, n, design_kind="gaussian", seed=0):
    """Draw n >= 1 iid rows with covariance cov, from stream 0 of seed.

    Gaussian rows are Sigma^{1/2} times standard normals; rademacher rows are
    Sigma^{1/2} times iid signs. Both are sub-Gaussian with respect to their
    covariance with constant L = 1, the L of the penalty-level formulas.
    """
    rng, shape = stream_rng(seed, 0), (int(n), cov.p)
    if design_kind == "gaussian":
        raw = rng.standard_normal(shape)
    elif design_kind == "rademacher":
        raw = 2.0 * rng.integers(0, 2, size=shape).astype(float) - 1.0
    else:
        raise ValueError("unknown design kind %r" % (design_kind,))
    return cov.sqrt_rows(raw)


def simulate(cov, beta_star, n, loss, design_kind, noise_sd, seed):
    """One dataset: n design rows (generate_design, stream 0 of seed) and
    loss's responses to the index X beta_star (loss.responses, stream 1),
    whose observation model, loss.model, is the dataset's. beta_star has
    cov.p entries."""
    beta_star = np.asarray(beta_star, dtype=float)
    X = generate_design(cov, n, design_kind, seed)
    y, noise = loss.responses(X @ beta_star, noise_sd, stream_rng(seed, 1))
    return Dataset(_readonly(X), _readonly(y), loss.model, design_kind,
                   _readonly(noise), _readonly(beta_star), cov)


def noise_scale(dataset):
    """Root mean square of the stored noise realizations of linear data.

    This is an oracle quantity, available only because the simulation keeps
    the drawn noise. Its callers read it for linear data alone: logistic
    labels have no noise scale.
    """
    eps = dataset.noise
    return float(np.sqrt(np.mean(eps * eps)))
