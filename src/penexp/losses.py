"""Loss functions, their regularity constants, and the curvature matrix.

The logistic loss here is the convex negative log-likelihood for labels drawn
with P(Y=1|x) = 1/(1+exp(x'b)), namely l(y,u) = (y-1)u + log(1+e^u). Its
score y - 1/(1+e^u) has mean zero under that convention. A commonly printed
concave variant (yu - log(1+e^u)) is this one negated and cannot be
minimized; only the convex form is implemented.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import CovarianceModel, draw_rows, stream_rng


def log1pexp(u):
    """Numerically stable log(1 + e^u), valid across the whole real line."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    neg = u <= 0
    out[neg] = np.log1p(np.exp(u[neg]))
    out[~neg] = u[~neg] + np.log1p(np.exp(-u[~neg]))
    return out


@dataclass(frozen=True)
class Loss:
    """A margin loss l(y, u) with two derivatives in u and its constants.

    d2_lipschitz bounds |d l''/du|, d2_sup is the sharp supremum of l'', and
    d2_bound is a looser conventional constant kept alongside because several
    reported bounds quote it; numeric checks in this package use the sharp
    value.
    """

    kind: str
    d2_lipschitz: float
    d2_sup: float
    d2_bound: float

    def value(self, y, u):
        if self.kind == "squared":
            d = np.asarray(y, dtype=float) - np.asarray(u, dtype=float)
            return 0.5 * d * d
        y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        return (y - 1.0) * u + log1pexp(u)

    def d1(self, y, u):
        if self.kind == "squared":
            return np.asarray(u, dtype=float) - np.asarray(y, dtype=float)
        # 1/(1+e^u) = expit(-u)
        return np.asarray(y, dtype=float) - expit(-np.asarray(u, dtype=float))

    def d2(self, y, u):
        if self.kind == "squared":
            return np.ones_like(np.asarray(u, dtype=float))
        s = expit(np.asarray(u, dtype=float))
        return s * (1.0 - s)


SQUARED = Loss("squared", 0.0, 1.0, 1.0)
# Lipschitz constant of l'' is max|sigma''| = 1/(6 sqrt(3)), attained near
# u = +-log(2 + sqrt(3)). Sharp sup of l'' is 1/4; the conventional constant
# 1 is retained alongside.
LOGISTIC = Loss("logistic", 1.0 / (6.0 * np.sqrt(3.0)), 0.25, 1.0)

_LOSSES = {"squared": SQUARED, "logistic": LOGISTIC}


def get_loss(kind):
    try:
        return _LOSSES[kind]
    except KeyError:
        raise ValueError("unknown loss kind %r (expected one of %s)"
                         % (kind, sorted(_LOSSES))) from None


def curvature_lower_bound(loss, tau):
    """Smallest value of l'' over |u| <= tau (lower curvature function)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if loss.kind == "squared":
        return 1.0
    s = expit(float(tau))
    return float(s * (1.0 - s))


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    worst_quotient: float


def stability_ratio_check(loss, s_values, t_values, max_gap=None):
    """Check sup l''(y,s)/l''(y,t) <= exp(3|s-t|) over a grid of pairs.

    Returns the worst quotient ratio/exp(3|s-t|); the bound holds when it is
    at most 1. Pairs with |s-t| > max_gap are skipped when max_gap is given.
    """
    s_values = np.asarray(s_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    worst = 0.0
    # Row blocks keep the pair grid from materializing all at once.
    for start in range(0, s_values.size, 256):
        s_blk = s_values[start:start + 256][:, None]
        gap = np.abs(s_blk - t_values[None, :])
        ratio = (loss.d2(0.0, s_blk) / loss.d2(0.0, t_values[None, :])
                 / np.exp(3.0 * gap))
        if max_gap is not None:
            ratio = np.where(gap <= max_gap, ratio, 0.0)
        worst = max(worst, float(ratio.max()))
    return StabilityReport(worst <= 1.0 + 1e-12, worst)


def _hermite_expectation(funcs, n_nodes):
    # Probabilists' Gauss-Hermite: E f(Z) for Z standard normal.
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    weights = weights / np.sqrt(2.0 * np.pi)
    return [float(np.sum(weights * f(nodes))) for f in funcs]


def _adaptive_hermite(funcs, tol=1e-13, start=64):
    vals = _hermite_expectation(funcs, start)
    nodes = start
    while nodes < 2048:
        nodes *= 2
        new = _hermite_expectation(funcs, nodes)
        if all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(vals, new)):
            return new
        vals = new
    return vals


def curvature_matrix(loss, cov, beta_star, design_kind="gaussian"):
    """Population curvature matrix for a design with covariance cov.

    Squared loss returns cov itself, factorized once for both roles. For
    the logistic loss with a Gaussian design, the index t = x'beta is
    N(0, v^2) with v^2 = beta' Sigma beta, and conditioning on t gives

        K = m0 Sigma + (E[sig'(vZ) Z^2] - m0) (Sigma b)(Sigma b)' / v^2,

    with m0 = E[sig'(vZ)], both expectations by Gauss-Hermite quadrature
    (node count doubled from 64 until stable). v = 0 degenerates to
    K = Sigma/4. Non-Gaussian designs have no closed form here; use
    curvature_matrix_mc for those.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    if loss.kind == "squared":
        return cov
    if design_kind != "gaussian":
        raise ValueError(
            "quadrature curvature requires a gaussian design; for %r use "
            "curvature_matrix_mc" % (design_kind,))
    q = cov @ beta_star
    v2 = float(beta_star @ q)
    if v2 <= 1e-24:
        return CovarianceModel.curvature(0.25 * cov.matrix, "stein-quadrature")
    v = np.sqrt(v2)

    def sig_prime(z):
        s = expit(v * z)
        return s * (1.0 - s)

    m0, a2 = _adaptive_hermite([sig_prime, lambda z: sig_prime(z) * z * z])
    K = m0 * cov.matrix + ((a2 - m0) / v2) * np.outer(q, q)
    return CovarianceModel.curvature(K, "stein-quadrature")


def curvature_matrix_mc(loss, cov, beta_star, n_samples, seed,
                        design_kind="gaussian"):
    """Sample-average curvature matrix (provenance "mc-estimate").

    Draws its own design of n_samples rows; the average n^{-1} sum l''(x'b)
    x x' needs no responses because l'' is response-free for both losses.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    rng = stream_rng(seed, 2)
    acc = np.zeros((cov.p, cov.p))
    done = 0
    chunk = max(1, int(2e6) // max(cov.p, 1))
    while done < n_samples:
        m = min(chunk, int(n_samples) - done)
        X = draw_rows(cov, m, design_kind, rng)
        w = loss.d2(0.0, X @ beta_star)
        acc += (X * w[:, None]).T @ X
        done += m
    return CovarianceModel.curvature(acc / float(n_samples), "mc-estimate")


def norm_ratio_bound(cov, curvature):
    """Largest value of ||Sigma^{1/2} u||^2 / ||K^{1/2} u||^2 over u != 0."""
    A = curvature.inv_sqrt @ cov.matrix @ curvature.inv_sqrt
    return float(np.linalg.eigvalsh(0.5 * (A + A.T)).max())


def save_curvature(curvature, path):
    os.makedirs(path, exist_ok=True)
    meta = {"p": curvature.p, "provenance": curvature.provenance}
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    curvature.matrix.astype("<f8").tofile(os.path.join(path, "K.bin"))


def load_curvature(path):
    with open(os.path.join(path, "meta.json")) as fh:
        meta = json.load(fh)
    K = np.fromfile(os.path.join(path, "K.bin"),
                    dtype="<f8").reshape(meta["p"], meta["p"])
    return CovarianceModel.curvature(K, meta["provenance"])
