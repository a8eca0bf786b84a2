"""Problem instances and synthetic data generation.

Symmetric positive-definite matrices (covariances and curvatures) with
lazily built factors, group structures, and the two observation models:
Gaussian-noise linear regression and binary labels with the flipped
convention P(Y=1|x) = 1/(1+exp(x'beta)), under which a large positive index
x'beta makes the label 1 rare.

All generation is driven by counter-based Philox streams keyed by
(master_seed, stream ids), so draws do not depend on the order in which
parallel replications complete.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Sub-Gaussian scale of the standardized design rows, recorded per design
# kind and consumed by the penalty-level formulas.
DESIGN_SUBGAUSSIAN_L = {"gaussian": 1.0, "rademacher": 1.0}


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


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Symmetric positive-definite matrix: a covariance Sigma or a curvature K.

    A matrix other than the identity is eigendecomposed once, at
    construction, which also validates it. Its symmetric square root (from
    the eigenpairs, not a Cholesky factor, so ||Sigma^{1/2} u|| norms read
    the same as in the analysis), inverse and inverse square root are built
    from the stored eigenpairs on first use. The identity stores no p x p
    array: products, solves and norms act on their argument directly, and
    `matrix` builds I only when asked for.

    Covariances come from identity, ar1 and explicit: diagonal entries must
    not exceed 1 (normalized features) and the matrix must be positive
    definite. Curvature matrices come from curvature. provenance records how
    the matrix was obtained: "exact-sigma" (a population covariance, which
    is also the curvature of the squared loss), "stein-quadrature" (logistic
    loss with Gaussian design, closed form up to two 1D integrals), or
    "mc-estimate" (sample average, approximate).
    """

    kind: str
    p: int
    rho: float
    provenance: str = "exact-sigma"
    _matrix: np.ndarray | None = field(default=None, repr=False)
    _w: np.ndarray | None = field(default=None, repr=False)
    _vecs: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def identity(cls, p):
        return cls("identity", int(p), 0.0)

    @classmethod
    def ar1(cls, p, rho):
        """AR(1) covariance, entry (i, j) = rho^|i-j|."""
        rho = float(rho)
        if not -1.0 < rho < 1.0:
            raise ValueError("ar1 correlation must lie in (-1, 1), got %g" % rho)
        idx = np.arange(int(p))
        matrix = rho ** np.abs(idx[:, None] - idx[None, :])
        return cls._covariance("ar1", rho, matrix)

    @classmethod
    def explicit(cls, matrix):
        return cls._covariance("explicit", 0.0, matrix)

    @classmethod
    def curvature(cls, K, provenance):
        """Curvature matrix K, obtained as provenance says."""
        K = cls._factorized("curvature", 0.0, provenance,
                            np.asarray(K, dtype=float))
        if K.eig_min <= 1e-12 * max(K.eig_max, 1e-300):
            raise ValueError("curvature matrix is singular "
                             "(min eigenvalue %.3e)" % K.eig_min)
        return K

    @classmethod
    def _covariance(cls, kind, rho, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if np.abs(matrix - matrix.T).max() > 1e-10:
            raise ValueError("covariance must be symmetric")
        if np.diag(matrix).max() > 1.0 + 1e-12:
            raise ValueError("diagonal entries must be <= 1 (normalized features)")
        cov = cls._factorized(kind, rho, "exact-sigma", matrix)
        if cov.eig_min < 1e-10:
            raise ValueError(
                "covariance is not positive definite (min eigenvalue %.3e); "
                "supply a full-rank matrix" % cov.eig_min)
        return cov

    @classmethod
    def _factorized(cls, kind, rho, provenance, matrix):
        matrix = 0.5 * (matrix + matrix.T)
        p = matrix.shape[0]
        # The exact identity, found without building I to compare with,
        # stores nothing; this also keeps ar1(0) draws bit-identical to the
        # identity model.
        if np.count_nonzero(matrix) == p and np.all(matrix.diagonal() == 1.0):
            return cls(kind, p, rho, provenance)
        w, vecs = np.linalg.eigh(matrix)
        return cls(kind, p, rho, provenance, _readonly(matrix), w, vecs)

    @property
    def is_identity(self):
        return self._w is None

    @property
    def matrix(self):
        """The dense matrix; for the identity, a new I on every call."""
        return _readonly(np.eye(self.p)) if self.is_identity else self._matrix

    @property
    def eig_min(self):
        return 1.0 if self.is_identity else float(self._w.min())

    @property
    def eig_max(self):
        return 1.0 if self.is_identity else float(self._w.max())

    def _spectral(self, scaled):
        # Symmetrized V diag(f(w)) V', with scaled(V, w) = V diag(f(w)).
        if self.is_identity:
            return self.matrix
        a = scaled(self._vecs, self._w) @ self._vecs.T
        return _readonly(0.5 * (a + a.T))

    @cached_property
    def sqrt(self):
        return self._spectral(lambda v, w: v * np.sqrt(w))

    @cached_property
    def inv(self):
        return self._spectral(lambda v, w: v / w)

    @cached_property
    def inv_sqrt(self):
        return self._spectral(lambda v, w: v / np.sqrt(w))

    def __matmul__(self, u):
        """The matrix times u, a vector or a matrix of columns."""
        u = np.asarray(u, dtype=float)
        return u if self.is_identity else self._matrix @ u

    def solve(self, u):
        """The inverse times u."""
        u = np.asarray(u, dtype=float)
        return u if self.is_identity else self.inv @ u

    def sqrt_rows(self, A):
        """A times the square root: each row of A mapped by the root."""
        return A if self.is_identity else A @ self.sqrt

    def norm(self, u):
        """||M^{1/2} u|| for this matrix M; zero only at u = 0."""
        u = np.asarray(u, dtype=float)
        return float(np.sqrt(max(u @ (self @ u), 0.0)))


@dataclass(frozen=True, eq=False)
class GroupStructure:
    """Partition of {0, ..., p-1} into M disjoint groups of equal size d."""

    p: int
    M: int
    d: int
    groups: tuple

    @classmethod
    def contiguous(cls, M, d):
        """M consecutive blocks of size d."""
        M, d = int(M), int(d)
        groups = tuple(_readonly_idx(np.arange(k * d, (k + 1) * d)) for k in range(M))
        return cls(M * d, M, d, groups)

    @classmethod
    def from_indices(cls, groups, p=None):
        groups = tuple(_readonly_idx(np.asarray(g, dtype=np.intp)) for g in groups)
        sizes = {g.size for g in groups}
        if len(sizes) != 1:
            raise ValueError("all groups must have equal size")
        d = sizes.pop()
        allidx = np.concatenate(groups)
        if p is None:
            p = allidx.size
        if sorted(allidx.tolist()) != list(range(p)):
            raise ValueError("groups must partition {0, ..., p-1}")
        return cls(int(p), len(groups), int(d), groups)


def _readonly_idx(a):
    a = np.ascontiguousarray(a, dtype=np.intp)
    a.setflags(write=False)
    return a


def flat_signal(p, s, amplitude=1.0):
    """Coefficient vector with the first s coordinates set to amplitude."""
    if not 0 <= s <= p:
        raise ValueError("need 0 <= s <= p")
    beta = np.zeros(int(p))
    beta[: int(s)] = float(amplitude)
    return beta


@dataclass(frozen=True, eq=False)
class Dataset:
    """One simulated sample, with the noise realization kept for oracle use.

    For linear data y = X beta_star + noise holds exactly as generated.
    Logistic datasets store no noise vector (labels are 0/1 floats, checked
    here once so the loss need not rescan them).
    """

    X: np.ndarray
    y: np.ndarray
    model_kind: str
    design_kind: str
    noise: np.ndarray | None
    noise_sd: float | None
    beta_star: np.ndarray
    covariance: CovarianceModel | None
    seed: int

    def __post_init__(self):
        if self.model_kind == "logistic" and \
                not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise ValueError("logistic labels must be 0 or 1")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


def generate_design(cov, n, design_kind="gaussian", seed=0):
    """Draw n iid rows with covariance cov.

    Gaussian rows are Sigma^{1/2} times standard normals; rademacher rows are
    Sigma^{1/2} times iid signs. Both are sub-Gaussian with respect to their
    covariance with constant L = 1 (DESIGN_SUBGAUSSIAN_L).
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    return draw_rows(cov, n, design_kind, stream_rng(seed, 0))


def draw_rows(cov, n, design_kind, rng):
    """Draw n covariance-cov rows from an already-seeded generator."""
    if design_kind == "gaussian":
        raw = rng.standard_normal((n, cov.p))
    elif design_kind == "rademacher":
        raw = 2.0 * rng.integers(0, 2, size=(n, cov.p)).astype(float) - 1.0
    else:
        raise ValueError("unknown design kind %r" % (design_kind,))
    return cov.sqrt_rows(raw)


def generate_linear(X, beta_star, noise_sd, seed, covariance=None,
                    design_kind="gaussian"):
    """Gaussian-noise linear responses y = X beta_star + eps.

    The noise vector is stored on the Dataset so oracle quantities (realized
    noise scale, expansion centers) can be computed downstream.
    """
    X = np.asarray(X, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    if X.shape[1] != beta_star.size:
        raise ValueError("design has %d columns but beta_star has %d entries"
                         % (X.shape[1], beta_star.size))
    rng = stream_rng(seed, 1)
    eps = float(noise_sd) * rng.standard_normal(X.shape[0])
    y = X @ beta_star + eps
    return Dataset(_readonly(X), _readonly(y), "linear", design_kind,
                   _readonly(eps), float(noise_sd), _readonly(beta_star),
                   covariance, int(seed))


def generate_logistic(X, beta_star, seed, covariance=None,
                      design_kind="gaussian"):
    """Binary labels with P(Y=1|x) = 1/(1+exp(x'beta_star)).

    Note the flipped convention: the larger x'beta_star, the rarer the label
    1. Downstream curvature constants assume ||Sigma^{1/2} beta_star|| <= 1;
    when a covariance is supplied and the bound fails, a warning is issued
    (generation itself is unaffected).
    """
    X = np.asarray(X, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    if X.shape[1] != beta_star.size:
        raise ValueError("design has %d columns but beta_star has %d entries"
                         % (X.shape[1], beta_star.size))
    if covariance is not None:
        sig_norm = covariance.norm(beta_star)
        if sig_norm > 1.0 + 1e-9:
            warnings.warn(
                "||Sigma^{1/2} beta_star|| = %.4f > 1; curvature constants "
                "derived for the unit ball may not apply" % sig_norm,
                stacklevel=2)
    rng = stream_rng(seed, 1)
    index = X @ beta_star
    # P(Y=1) = sigmoid(-index) under the flipped convention.
    p1 = 1.0 / (1.0 + np.exp(np.clip(index, -700, 700)))
    y = (rng.random(X.shape[0]) < p1).astype(float)
    return Dataset(_readonly(X), _readonly(y), "logistic", design_kind,
                   None, None, _readonly(beta_star), covariance, int(seed))


def noise_scale(dataset):
    """Root mean square of the stored noise realizations.

    This is an oracle quantity, available only because the simulation keeps
    the drawn noise. Raises on logistic data, which stores none.
    """
    if dataset.noise is None:
        raise ValueError("dataset has no stored noise "
                         "(noise scale is defined for linear data only)")
    eps = dataset.noise
    return float(np.sqrt(np.mean(eps * eps))) if eps.size else 0.0


def save_dataset(dataset, path):
    """Persist a dataset as meta.json plus little-endian float64 binaries."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "n": dataset.n,
        "p": dataset.p,
        "model_kind": dataset.model_kind,
        "design_kind": dataset.design_kind,
        "seed": dataset.seed,
        "beta_star": [float(b) for b in dataset.beta_star],
        "noise_sd": dataset.noise_sd,
        "covariance": _cov_meta(dataset.covariance),
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    dataset.X.astype("<f8").tofile(os.path.join(path, "X.bin"))
    dataset.y.astype("<f8").tofile(os.path.join(path, "y.bin"))
    if dataset.noise is not None:
        dataset.noise.astype("<f8").tofile(os.path.join(path, "eps.bin"))
    if dataset.covariance is not None and dataset.covariance.kind == "explicit":
        dataset.covariance.matrix.astype("<f8").tofile(
            os.path.join(path, "Sigma.bin"))


def _cov_meta(cov):
    if cov is None:
        return None
    if cov.kind == "explicit":
        return {"kind": "explicit", "p": cov.p}
    return {"kind": cov.kind, "p": cov.p, "rho": cov.rho}


def load_dataset(path):
    with open(os.path.join(path, "meta.json")) as fh:
        meta = json.load(fh)
    n, p = meta["n"], meta["p"]
    X = np.fromfile(os.path.join(path, "X.bin"), dtype="<f8").reshape(n, p)
    y = np.fromfile(os.path.join(path, "y.bin"), dtype="<f8")
    eps_path = os.path.join(path, "eps.bin")
    noise = np.fromfile(eps_path, dtype="<f8") if os.path.exists(eps_path) else None
    cov = _cov_from_meta(meta["covariance"], path)
    return Dataset(_readonly(X), _readonly(y), meta["model_kind"],
                   meta["design_kind"],
                   _readonly(noise) if noise is not None else None,
                   meta["noise_sd"],
                   _readonly(np.asarray(meta["beta_star"], dtype=float)),
                   cov, int(meta["seed"]))


def _cov_from_meta(meta, path):
    if meta is None:
        return None
    if meta["kind"] == "identity":
        return CovarianceModel.identity(meta["p"])
    if meta["kind"] == "ar1":
        return CovarianceModel.ar1(meta["p"], meta["rho"])
    mat = np.fromfile(os.path.join(path, "Sigma.bin"),
                      dtype="<f8").reshape(meta["p"], meta["p"])
    return CovarianceModel.explicit(mat)
