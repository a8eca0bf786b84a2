"""Cones containing the estimation error, tuning levels, and complexities.

The three cone families are the l1-vs-l2 cone {u : ||u||_1 <= sqrt(k)||u||},
its blockwise analog for group norms, and the cone of vectors supported on a
fixed index set. Penalty-level formulas, Monte Carlo Gaussian complexity with
an exact per-draw maximizer, certified complexity upper bounds, and
restricted-eigenvalue lower bounds live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import stream_rng


@dataclass(frozen=True)
class LassoCone:
    """{u : ||u||_1 <= sqrt(k) ||u||}, k >= 1."""

    k: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("cone parameter k must be >= 1")


@dataclass(frozen=True, eq=False)
class GroupCone:
    """{u : sum_k ||u_{G_k}|| <= c sqrt(s) ||u||}."""

    c: float
    s: int
    groups: object


@dataclass(frozen=True, eq=False)
class SupportCone:
    """Vectors vanishing off a fixed support."""

    support: np.ndarray
    p: int


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


def cone_member(cone, u, tol=1e-9):
    """Does u satisfy the cone's defining inequality, with relative slack."""
    u = np.asarray(u, dtype=float)
    l2 = np.linalg.norm(u)
    if l2 == 0.0:
        return True
    if isinstance(cone, LassoCone):
        return bool(np.abs(u).sum() <= np.sqrt(cone.k) * l2 * (1.0 + tol))
    if isinstance(cone, GroupCone):
        norms = np.linalg.norm(u[np.vstack(cone.groups.groups)], axis=1)
        return bool(norms.sum() <= cone.c * np.sqrt(cone.s) * l2 * (1.0 + tol))
    if isinstance(cone, SupportCone):
        mask = np.ones(cone.p, dtype=bool)
        mask[cone.support] = False
        off = np.abs(u[mask]).max() if mask.any() else 0.0
        return bool(off <= tol * l2)
    raise TypeError("unknown cone %r" % (cone,))


def lasso_penalty_level(loss, p, s, n, xi, noise_scale=None, design_L=1.0):
    """Penalty level putting the error vectors in the lasso cone w.h.p.

    Squared loss: L sigma (1+3 xi) sqrt(2 log(p/s)/n) with sigma the realized
    noise scale. Logistic: same with sigma replaced by the label
    sub-Gaussian scale 1/2.
    """
    if not p > s >= 1:
        raise ValueError("need p > s >= 1")
    if xi <= 0:
        raise ValueError("xi must be > 0")
    base = design_L * (1.0 + 3.0 * xi) * np.sqrt(2.0 * np.log(p / s) / n)
    if loss.kind == "squared":
        if noise_scale is None:
            raise ValueError("squared loss needs the realized noise scale")
        return float(noise_scale * base)
    return float(0.5 * base)


def group_penalty_level(loss, M, d, s, n, xi, noise_scale=None, design_L=1.0):
    """Group analog: L sigma (1+xi)[sqrt(d) + (1+2 xi) sqrt(2 log(M/s))]/sqrt(n)."""
    if not M > s >= 1:
        raise ValueError("need M > s >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    if xi <= 0:
        raise ValueError("xi must be > 0")
    width = np.sqrt(d) + (1.0 + 2.0 * xi) * np.sqrt(2.0 * np.log(M / s))
    scale = 0.5 if loss.kind == "logistic" else noise_scale
    if scale is None:
        raise ValueError("squared loss needs the realized noise scale")
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

    Each draw's supremum is solved exactly (see _sup_per_draw). The lasso and
    group cones are only supported under the identity covariance, where the
    maximization has this closed structure; use complexity_bound otherwise.
    Support cones work for any covariance.
    """
    n_draws = int(n_draws)
    if n_draws < 2:
        raise ValueError("need at least 2 draws")
    rng = stream_rng(seed, 3)
    if isinstance(cone, (LassoCone, GroupCone)) and not cov.is_identity:
        raise ValueError(
            "per-draw maximization is exact only under the identity "
            "covariance; use complexity_bound for this covariance")
    sups = np.empty(n_draws)
    done = 0
    chunk = 512
    while done < n_draws:
        m = min(chunk, n_draws - done)
        G = rng.standard_normal((m, cov.p))
        if isinstance(cone, LassoCone):
            vals = _sup_per_draw(np.abs(G), np.sqrt(cone.k))
        elif isinstance(cone, GroupCone):
            idx = np.vstack(cone.groups.groups)
            block = np.linalg.norm(G[:, idx], axis=2)
            vals = _sup_per_draw(block, cone.c * np.sqrt(cone.s))
        elif isinstance(cone, SupportCone):
            H = cov.sqrt_rows(G)
            vals = np.linalg.norm(H[:, cone.support], axis=1)
        else:
            raise TypeError("unknown cone %r" % (cone,))
        sups[done:done + m] = vals
        done += m
    est = float(np.mean(sups))
    se = float(np.std(sups, ddof=1) / np.sqrt(n_draws))
    return est, se


def restricted_eigenvalue_bound(cone, cov):
    """Lower bound on min ||Sigma^{1/2} u|| over unit cone vectors.

    sqrt(min eigenvalue of Sigma) certifies every cone; support cones get the
    exact value from the principal submatrix.
    """
    if isinstance(cone, SupportCone):
        sub = cov.matrix[np.ix_(cone.support, cone.support)]
        return float(np.sqrt(np.linalg.eigvalsh(sub).min()))
    return float(np.sqrt(cov.eig_min))


def complexity_bound(cone, cov):
    """Closed-form complexity upper bound, reported with constant 1.

    Divide by sqrt(n) to get the rate scale of the corresponding estimation
    problem.
    """
    phi = restricted_eigenvalue_bound(cone, cov)
    if isinstance(cone, LassoCone):
        p = cov.p
        if not 0 < cone.k <= 2 * p:
            raise ValueError("cone parameter exceeds dimension range")
        return float(np.sqrt(cone.k * np.log(2.0 * p / cone.k)) / phi)
    if isinstance(cone, GroupCone):
        M, d, s = cone.groups.M, cone.groups.d, cone.s
        if not M > s:
            raise ValueError("need more groups than the sparsity level")
        return float(np.sqrt(s * d + s * np.log(M / s)) / phi)
    if isinstance(cone, SupportCone):
        sub = cov.matrix[np.ix_(cone.support, cone.support)]
        return float(np.sqrt(np.trace(sub)))
    raise TypeError("unknown cone %r" % (cone,))


def sparse_cone_from_counts(s, c_tilde):
    """Cone certified to contain all (2 c_tilde + 1) s sparse vectors."""
    if c_tilde < 0:
        raise ValueError("c_tilde must be >= 0")
    return lasso_cone((2.0 * c_tilde + 1.0) * s)


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
