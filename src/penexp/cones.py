"""Cones containing the estimation error, tuning levels, and complexities.

The three cone families are the l1-vs-l2 cone {u : ||u||_1 <= sqrt(k)||u||},
its blockwise analog for group norms, and the cone of vectors supported on a
fixed index set. Each cone class owns its maths: membership, the exact
per-draw supremum behind the Monte Carlo Gaussian complexity, a certified
complexity upper bound, and a restricted-eigenvalue lower bound. Penalty-level
formulas and minimax rate scales live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import stream_rng


def _require_identity(cov):
    if not cov.is_identity:
        raise ValueError("per-draw maximization is exact only under the "
                         "identity covariance; use the cone's bound")


@dataclass(frozen=True)
class LassoCone:
    """{u : ||u||_1 <= sqrt(k) ||u||}, k >= 1."""

    k: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("cone parameter k must be >= 1")

    def member(self, u, tol=1e-9):
        """Does u satisfy the defining inequality, with relative slack."""
        u = np.asarray(u, dtype=float)
        l2 = np.linalg.norm(u)
        return bool(np.abs(u).sum() <= np.sqrt(self.k) * l2 * (1.0 + tol))

    def sups(self, G, cov):
        """Exact sup of <g, u> over unit cone vectors u, per row g of G."""
        _require_identity(cov)
        return _sup_per_draw(np.abs(G), np.sqrt(self.k))

    def restricted_eigenvalue(self, cov):
        """sqrt of the smallest eigenvalue of Sigma: certifies the cone."""
        return float(np.sqrt(cov.eig_min))

    def bound(self, cov):
        """sqrt(k log(2p/k)) / restricted eigenvalue."""
        phi = self.restricted_eigenvalue(cov)
        if not 0 < self.k <= 2 * cov.p:
            raise ValueError("cone parameter exceeds dimension range")
        return float(np.sqrt(self.k * np.log(2.0 * cov.p / self.k)) / phi)


@dataclass(frozen=True, eq=False)
class GroupCone:
    """{u : sum_k ||u_{G_k}|| <= c sqrt(s) ||u||}."""

    c: float
    s: int
    groups: object

    def member(self, u, tol=1e-9):
        u = np.asarray(u, dtype=float)
        l2 = np.linalg.norm(u)
        norms = np.linalg.norm(u[self.groups.index], axis=1)
        return bool(norms.sum() <= self.c * np.sqrt(self.s) * l2 * (1.0 + tol))

    def sups(self, G, cov):
        """The lasso-cone sup over the group norms of each row of G."""
        _require_identity(cov)
        block = np.linalg.norm(G[:, self.groups.index], axis=2)
        return _sup_per_draw(block, self.c * np.sqrt(self.s))

    restricted_eigenvalue = LassoCone.restricted_eigenvalue

    def bound(self, cov):
        """sqrt(s d + s log(M/s)) / restricted eigenvalue."""
        phi = self.restricted_eigenvalue(cov)
        M, d, s = self.groups.M, self.groups.d, self.s
        if not M > s:
            raise ValueError("need more groups than the sparsity level")
        return float(np.sqrt(s * d + s * np.log(M / s)) / phi)


@dataclass(frozen=True, eq=False)
class SupportCone:
    """Vectors vanishing off a fixed support."""

    support: np.ndarray
    p: int

    def member(self, u, tol=1e-9):
        u = np.asarray(u, dtype=float)
        off = np.delete(np.abs(u), self.support).max(initial=0.0)
        return bool(off <= tol * np.linalg.norm(u))

    def sups(self, G, cov):
        """Norm of each row of G Sigma^{1/2} on the support."""
        return np.linalg.norm(cov.sqrt_rows(G)[:, self.support], axis=1)

    def restricted_eigenvalue(self, cov):
        """Exact: from the principal submatrix on the support."""
        sub = cov.principal(self.support)
        return float(np.sqrt(np.linalg.eigvalsh(sub).min()))

    def bound(self, cov):
        """sqrt of the trace of the principal submatrix on the support."""
        return float(np.sqrt(np.trace(cov.principal(self.support))))


def lasso_cone(k):
    return LassoCone(float(k))


def group_cone(s, groups, xi=None, c=None):
    """Group error cone; c defaults to 2 + 3/xi, the value the tuning
    analysis guarantees for the error vectors."""
    if c is None:
        if xi is None:
            raise ValueError("give either c or xi")
        c = 2.0 + 3.0 / float(xi)
    return GroupCone(float(c), int(s), groups)


def support_cone(support, p):
    support = np.asarray(support, dtype=np.intp)
    return SupportCone(support, int(p))


def lasso_penalty_level(loss, p, s, n, xi, noise_scale=None, design_L=1.0):
    """Penalty level putting the error vectors in the lasso cone w.h.p.

    L sigma (1+3 xi) sqrt(2 log(p/s)/n), with sigma the loss's
    penalty_scale: the realized noise scale for squared loss, the label
    sub-Gaussian scale 1/2 for logistic loss.
    """
    if not p > s >= 1:
        raise ValueError("need p > s >= 1")
    if xi <= 0:
        raise ValueError("xi must be > 0")
    base = design_L * (1.0 + 3.0 * xi) * np.sqrt(2.0 * np.log(p / s) / n)
    return float(loss.penalty_scale(noise_scale) * base)


def group_penalty_level(loss, M, d, s, n, xi, noise_scale=None, design_L=1.0):
    """Group analog: L sigma (1+xi)[sqrt(d) + (1+2 xi) sqrt(2 log(M/s))]/sqrt(n)."""
    if not M > s >= 1:
        raise ValueError("need M > s >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    if xi <= 0:
        raise ValueError("xi must be > 0")
    width = np.sqrt(d) + (1.0 + 2.0 * xi) * np.sqrt(2.0 * np.log(M / s))
    scale = loss.penalty_scale(noise_scale)
    return float(design_L * scale * (1.0 + xi) * width / np.sqrt(n))


def _sup_per_draw(A, sqrt_k):
    """Exact sup of <g, u> over unit u with ||u||_1 <= sqrt_k, per row of |g|.

    The maximizer is proportional to a soft thresholding of g; the threshold
    solving ||u||_1/||u|| = sqrt_k is found by bisection (threshold 0 when the
    unconstrained optimum is already feasible).
    """
    l1 = A.sum(axis=1)
    l2 = np.sqrt((A * A).sum(axis=1))
    sup = l2.copy()
    need = l1 > sqrt_k * l2
    if need.any():
        sub = A[need]
        lo = np.zeros(sub.shape[0])
        hi = sub.max(axis=1)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            S = np.maximum(sub - mid[:, None], 0.0)
            f = S.sum(axis=1) - sqrt_k * np.sqrt((S * S).sum(axis=1))
            too_small = f > 0.0
            lo = np.where(too_small, mid, lo)
            hi = np.where(too_small, hi, mid)
        t = 0.5 * (lo + hi)
        S = np.maximum(sub - t[:, None], 0.0)
        sup[need] = (sub * S).sum(axis=1) / np.sqrt((S * S).sum(axis=1))
    return sup


def complexity_estimate(cone, cov, n_draws, seed):
    """Monte Carlo Gaussian complexity of the cone, with standard error.

    Each draw's supremum is solved exactly by the cone's sups. The lasso and
    group cones are only supported under the identity covariance, where the
    maximization has this closed structure; use the cone's bound otherwise.
    Support cones work for any covariance.
    """
    n_draws = int(n_draws)
    if n_draws < 2:
        raise ValueError("need at least 2 draws")
    rng = stream_rng(seed, 3)
    sups = np.empty(n_draws)
    done = 0
    chunk = 512
    while done < n_draws:
        m = min(chunk, n_draws - done)
        sups[done:done + m] = cone.sups(rng.standard_normal((m, cov.p)), cov)
        done += m
    est = float(np.mean(sups))
    se = float(np.std(sups, ddof=1) / np.sqrt(n_draws))
    return est, se


def minimax_rate(kind, n, p=None, s=None, M=None, d=None):
    """Rate scale r_n for the estimation error under each penalty family."""
    if kind in ("l1_penalized", "l1_constrained", "lasso"):
        if not p > s >= 1:
            raise ValueError("need p > s >= 1")
        return float(np.sqrt(2.0 * s * np.log(p / s) / n))
    if kind in ("group_lasso", "group"):
        if not M > s >= 1:
            raise ValueError("need M > s >= 1")
        return float(np.sqrt((s * d + s * np.log(M / s)) / n))
    raise ValueError("unknown penalty family %r" % (kind,))
