"""Verification quantities: risk identity, de-biased inference, sparsity,
and pointwise empirical-process checks at realized error directions.

The exact-risk machinery applies under a Gaussian design with identity
covariance and squared loss; those hypotheses are enforced, not extrapolated.
Process quantities are evaluated only at supplied directions (the realized
error vectors), never as suprema over cones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import quad

from .model import stream_rng
from .penalties import L1Penalty, prox, soft_threshold
from .solver import smooth_gradient


@dataclass(frozen=True)
class RiskIdentityReport:
    lhs: float
    rhs: float
    mc_se: float
    ratio: float
    bound_noise_term: float
    bound_gap_term: float
    within_bound: bool

    @property
    def bound(self):
        return self.bound_noise_term + self.bound_gap_term

    def as_dict(self):
        d = asdict(self)
        d["bound"] = self.bound
        return d


@dataclass(frozen=True)
class InferenceReport:
    theta_hat: float
    target: float
    ci_low: float
    ci_high: float
    covered: bool
    t_stat: float
    noise_term: float | None
    remainder: float | None

    def as_dict(self):
        return asdict(self)


def prox_risk_mc(penalty, beta_star, noise_scale, n, n_draws, seed):
    """Monte Carlo E_Z ||b* - prox_h(b* + (sigma/sqrt(n)) Z)||^2 and s.e."""
    beta_star = np.asarray(beta_star, dtype=float)
    n_draws = int(n_draws)
    if n_draws < 2:
        raise ValueError("need at least 2 draws")
    tau = float(noise_scale) / np.sqrt(n)
    rng = stream_rng(seed, 4)
    vals = np.empty(n_draws)
    done = 0
    chunk = max(1, int(4e6) // max(beta_star.size, 1))
    while done < n_draws:
        m = min(chunk, n_draws - done)
        Z = rng.standard_normal((m, beta_star.size))
        pts = beta_star[None, :] + tau * Z
        W = _prox_rows(penalty, pts)
        diff = beta_star[None, :] - W
        vals[done:done + m] = (diff * diff).sum(axis=1)
        done += m
    risk = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n_draws))
    return risk, se


def _prox_rows(penalty, pts):
    """prox applied to each row, vectorized where the penalty separates."""
    from .penalties import GroupPenalty

    if isinstance(penalty, L1Penalty):
        return soft_threshold(pts, penalty.level)
    if isinstance(penalty, GroupPenalty):
        idx = np.vstack(penalty.groups.groups)
        blocks = pts[:, idx]
        norms = np.linalg.norm(blocks, axis=2)
        scale = np.maximum(1.0 - penalty.level / np.where(norms > 0, norms, 1.0),
                           0.0)
        scale[norms <= penalty.level] = 0.0
        out = np.empty_like(pts)
        out[:, idx] = blocks * scale[:, :, None]
        return out
    return np.vstack([prox(penalty, row, 1.0) for row in pts])


def prox_risk_quadrature(penalty, beta_star, noise_scale, n):
    """Coordinatewise adaptive-quadrature version of prox_risk_mc.

    Exact (to quadrature tolerance) for the l1 penalty, whose prox separates
    over coordinates; used as an independent oracle against the MC path.
    """
    if not isinstance(penalty, L1Penalty):
        raise ValueError("quadrature path covers the l1 penalty only")
    beta_star = np.asarray(beta_star, dtype=float)
    tau = float(noise_scale) / np.sqrt(n)
    lam = penalty.level
    if tau == 0.0:
        d = beta_star - soft_threshold(beta_star, lam)
        return float(d @ d)
    sq2pi = np.sqrt(2.0 * np.pi)
    total = 0.0
    for b in beta_star:
        def integrand(z, b=b):
            w = soft_threshold(np.array([b + tau * z]), lam)[0]
            d = b - w
            return d * d * np.exp(-0.5 * z * z) / sq2pi

        # Soft-threshold kinks in z; integrate smooth pieces separately.
        kinks = sorted(((-lam - b) / tau, (lam - b) / tau))
        pieces = [(-np.inf, kinks[0]), (kinks[0], kinks[1]), (kinks[1], np.inf)]
        total += sum(quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
                     for lo, hi in pieces)
    return float(total)


def risk_identity_check(dataset, beta_hat, eta, penalty, n_mc, seed, t=2.0):
    """Compare the realized estimation error against the prox-risk identity.

    lhs is ||beta_hat - beta_star||, rhs the root mean prox risk at the
    realized noise scale, and the finite-sample bound is
    sigma (t+1)/sqrt(n) + ||beta_hat - eta||. Requires linear data from a
    Gaussian design with identity covariance; anything else is refused
    because the identity is proved exactly there.
    """
    from .model import noise_scale as _noise_scale

    if dataset.model_kind != "linear":
        raise ValueError("risk identity applies to linear data")
    if dataset.design_kind != "gaussian":
        raise ValueError("risk identity requires a gaussian design")
    if dataset.covariance is None or not dataset.covariance.is_identity:
        raise ValueError("risk identity requires the identity covariance; "
                         "refusing to extrapolate")
    beta_hat = np.asarray(beta_hat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    sigma = _noise_scale(dataset)
    lhs = float(np.linalg.norm(beta_hat - dataset.beta_star))
    risk, risk_se = prox_risk_mc(penalty, dataset.beta_star, sigma,
                                 dataset.n, n_mc, seed)
    rhs = float(np.sqrt(risk))
    # Delta method: s.e. of sqrt(risk).
    mc_se = float(risk_se / (2.0 * rhs)) if rhs > 0 else float(risk_se)
    ratio = lhs / rhs if rhs > 0 else float("nan")
    noise_term = sigma * (t + 1.0) / np.sqrt(dataset.n)
    gap_term = float(np.linalg.norm(beta_hat - eta))
    within = abs(lhs - rhs) <= noise_term + gap_term
    return RiskIdentityReport(lhs, rhs, mc_se, float(ratio),
                              float(noise_term), gap_term, bool(within))


def debiased_estimate(dataset, beta_hat, cov, a):
    """Bias-corrected estimate of a'beta with its fixed-width interval.

    a is renormalized so ||Sigma^{-1/2} a|| = 1 (the target rescales with
    it); the correction adds the score-weighted average residual. The
    interval half-width is 1.96/sqrt(n), calibrated for unit-variance noise.
    """
    a = np.asarray(a, dtype=float)
    if not np.any(a != 0.0):
        raise ValueError("direction a must be nonzero")
    beta_hat = np.asarray(beta_hat, dtype=float)
    scale = np.sqrt(float(a @ cov.solve(a)))
    a = a / scale
    z_a = dataset.X @ cov.solve(a)
    denom = float(z_a @ z_a)
    resid = dataset.y - dataset.X @ beta_hat
    theta = float(a @ beta_hat + (z_a @ resid) / denom)
    target = float(a @ dataset.beta_star)
    half = 1.96 / np.sqrt(dataset.n)
    ci_low, ci_high = theta - half, theta + half
    t_stat = float(np.sqrt(dataset.n) * (theta - target))
    noise_term = remainder = None
    if dataset.noise is not None:
        noise_term = float(np.sqrt(dataset.n) * (z_a @ dataset.noise) / denom)
        remainder = t_stat - noise_term
    return InferenceReport(theta, target, ci_low, ci_high,
                           bool(ci_low <= target <= ci_high), t_stat,
                           noise_term, remainder)


def sparsity_count(beta, groups=None):
    """Exact nonzero counts: (coordinates, groups) or (coordinates, None)."""
    beta = np.asarray(beta, dtype=float)
    coords = int(np.count_nonzero(beta))
    if groups is None:
        return coords, None
    nz = sum(1 for g in groups.groups if np.any(beta[g] != 0.0))
    return coords, int(nz)


def sparsity_constant(c_max, xi, b3, phi):
    """Support-size multiplier: 1 + C_max {2(3+xi)(1+1/xi)}^2 B3^2 / phi^2."""
    if min(c_max, xi, b3, phi) <= 0:
        raise ValueError("all arguments must be > 0")
    factor = 2.0 * (3.0 + xi) * (1.0 + 1.0 / xi)
    return float(1.0 + c_max * factor * factor * b3 * b3 / (phi * phi))


def curvature_fluctuations(dataset, loss, curvature, beta_star, directions):
    """Sample-vs-population curvature comparisons at given directions.

    For each direction u (and pair u, v), with Khat the sample curvature
    matrix at beta_star:
      quad_err[i]     |u' Khat u / ||u||_K^2 - 1|
      cross_err[i][j] |u' (Khat - K) v| / (||u||_K ||v||_K), exactly symmetric
      cubic_moment[i] n^{-1} sum |X_i'u|^3 / ||u||_K^3
    Pointwise evaluations only; no cone suprema are attempted.
    """
    D = np.column_stack([np.asarray(u, dtype=float) for u in directions])
    w = loss.d2(dataset.y, dataset.X @ np.asarray(beta_star, dtype=float))
    U = dataset.X @ D
    M = (U * w[:, None]).T @ U / dataset.n
    KD = curvature @ D
    C = D.T @ KD
    norms = np.sqrt(np.diag(C))
    if np.any(norms <= 0.0):
        raise ValueError("directions must be nonzero")
    m = D.shape[1]
    quad_err = [abs(M[i, i] / (norms[i] * norms[i]) - 1.0) for i in range(m)]
    cross = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            val = abs(M[i, j] - C[i, j]) / (norms[i] * norms[j])
            cross[i][j] = cross[j][i] = float(val)
    cubic = [float(np.mean(np.abs(U[:, i]) ** 3) / norms[i] ** 3)
             for i in range(m)]
    return {"quad_err": [float(q) for q in quad_err],
            "cross_err": cross,
            "cubic_moment": cubic}


def taylor_remainder_gap(dataset, loss, beta, beta_star):
    """Worst violation of the averaged-curvature increment bound.

    For each observation, a_i = integral over t in [0,1] of
    l''(y_i, u_i + t d_i) - l''(y_i, u_i) with u_i the index at beta_star
    and d_i the index increment to beta; the bound is |a_i| <= B |d_i| with
    B the second-derivative Lipschitz constant. Returns max_i |a_i| - B|d_i|,
    which should be <= 0 up to quadrature error.
    """
    if loss.d2_lipschitz == 0.0:
        return 0.0  # constant second derivative, all increments vanish
    u = dataset.X @ np.asarray(beta_star, dtype=float)
    d = dataset.X @ np.asarray(beta, dtype=float) - u
    worst = -np.inf
    for i in range(dataset.n):
        base = float(loss.d2(dataset.y[i], u[i]))

        def integrand(t, i=i, base=base):
            return float(loss.d2(dataset.y[i], u[i] + t * d[i])) - base

        a_i = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)[0]
        worst = max(worst, abs(a_i) - loss.d2_lipschitz * abs(d[i]))
    return float(worst)


def empirical_curvature_ratio(dataset, loss, curvature, beta_star, u):
    """Second-order remainder of the empirical loss over ||u||_K^2.

    Returns (ratio, in_unit_ball); the flag records whether ||u||_K <= 1,
    the regime the lower-curvature comparisons are stated for. The value is
    computed regardless.
    """
    u = np.asarray(u, dtype=float)
    nk = curvature.norm(u)
    if nk == 0.0:
        raise ValueError("direction u must be nonzero")
    beta_star = np.asarray(beta_star, dtype=float)
    f0 = float(np.mean(loss.value(dataset.y, dataset.X @ beta_star)))
    f1 = float(np.mean(loss.value(dataset.y, dataset.X @ (beta_star + u))))
    lin = float(smooth_gradient(dataset, loss, beta_star) @ u)
    return (f1 - f0 - lin) / (nk * nk), bool(nk <= 1.0 + 1e-12)
