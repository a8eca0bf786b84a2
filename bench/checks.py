"""Correctness checks computed apart from penexp.

The gradients, subdifferential residuals, proximal maps and the logistic
curvature matrix here are written from their definitions, not by calling
the program, so an error in the program's own versions does not cancel
out. The output checks read records.csv and summary.json as files.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from scipy.integrate import quad

# The l1-ball constraint counts as active within this relative distance of
# the radius (the program's certificate uses the same definition).
BALL_ACTIVE_TOL = 1e-9
# Rounding allowance when comparing an independently recomputed KKT
# residual with the program's tolerance: the gradient is summed in another
# order, so it can differ from the program's in the last digits.
KKT_ROUNDING = 1e-12


def loss_gradient(kind, X, y, beta):
    """Gradient at beta of the average loss over the rows of X."""
    u = X @ beta
    if kind == "squared":
        score = u - y
    elif kind == "logistic":
        # l(y, u) = (y - 1) u + log(1 + e^u), so l' = y - 1/(1 + e^u),
        # and 1/(1 + e^u) = (1 - tanh(u/2)) / 2.
        score = y - 0.5 * (1.0 - np.tanh(0.5 * u))
    else:
        raise ValueError("unknown loss %r" % (kind,))
    return X.T @ score / X.shape[0]


def l1_residual(beta, grad, level):
    """Distance of -grad from level * (subdifferential of ||.||_1 at beta)."""
    on = beta != 0.0
    res = np.where(on, np.abs(grad + level * np.sign(beta)),
                   np.maximum(np.abs(grad) - level, 0.0))
    return float(res.max())


def group_residual(beta, grad, level, groups):
    """Same as l1_residual for the sum of Euclidean norms over groups."""
    worst = 0.0
    for g in groups:
        b, gr = beta[g], grad[g]
        nb = float(np.sqrt(b @ b))
        if nb == 0.0:
            worst = max(worst, float(np.sqrt(gr @ gr)) - level)
        else:
            v = gr + level * b / nb
            worst = max(worst, float(np.sqrt(v @ v)))
    return max(worst, 0.0)


def ball_residual(beta, grad, radius):
    """Distance of -grad from the normal cone of the l1 ball at beta.

    Inside the ball the cone is {0}. On the sphere it is
    {mu * s : mu >= 0, s in the subdifferential of ||.||_1 at beta}, and
    the residual is minimized over mu in closed form: with a_j =
    -grad_j sign(beta_j) on the support and c = max(max a_j, largest
    |grad_j| off it), the best mu is max(0, (min a_j + c) / 2).
    """
    l1 = float(np.abs(beta).sum())
    slack = BALL_ACTIVE_TOL * max(1.0, radius)
    if l1 > radius + slack:
        return float("inf")
    on = beta != 0.0
    if l1 < radius - slack or not on.any():
        return float(np.abs(grad).max())
    a = -grad[on] * np.sign(beta[on])
    off = np.abs(grad[~on])
    c = max(float(a.max()), float(off.max()) if off.size else 0.0)
    mu = max(0.0, 0.5 * (float(a.min()) + c))
    return max(mu - float(a.min()), c - mu)


def kkt_residual(penalty, beta, grad):
    """Residual for a penalty object of the program, read by its fields."""
    kind = type(penalty).__name__
    if kind == "L1Penalty":
        return l1_residual(beta, grad, penalty.level)
    if kind == "GroupPenalty":
        return group_residual(beta, grad, penalty.level,
                              penalty.groups.groups)
    if kind == "L1BallConstraint":
        return ball_residual(beta, grad, penalty.radius)
    raise ValueError("unknown penalty %r" % (kind,))


def soft_threshold(x, t):
    return np.where(x > t, x - t, np.where(x < -t, x + t, 0.0))


def block_shrink(x, t, groups):
    out = np.zeros_like(x)
    for g in groups:
        norm = float(np.sqrt(x[g] @ x[g]))
        if norm > t:
            out[g] = x[g] * (1.0 - t / norm)
    return out


def identity_expansion(penalty, beta_star, X, noise):
    """The expansion under identity curvature and squared loss: the prox
    of the penalty at beta_star + X'noise/n."""
    z = beta_star + X.T @ noise / X.shape[0]
    kind = type(penalty).__name__
    if kind == "L1Penalty":
        return soft_threshold(z, penalty.level)
    if kind == "GroupPenalty":
        return block_shrink(z, penalty.level, penalty.groups.groups)
    raise ValueError("no closed form for %r" % (kind,))


def ar1_matrix(p, rho):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :]).astype(float)


def logistic_curvature(sigma, beta_star):
    """K = m0 Sigma + c q q' with q = Sigma beta*, v^2 = beta*' q,
    m0 = E s'(vZ), c = (E s'(vZ) Z^2 - m0) / v^2, s the sigmoid, Z ~ N(0,1);
    both expectations by adaptive quadrature."""
    q = sigma @ beta_star
    v = float(np.sqrt(beta_star @ q))

    def phi(z):
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)

    def ds(t):
        e = np.exp(-abs(t))
        return e / (1.0 + e) ** 2

    def expect(f):
        return quad(lambda z: f(z) * phi(z), -np.inf, np.inf,
                    epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    m0 = expect(lambda z: ds(v * z))
    a2 = expect(lambda z: ds(v * z) * z * z)
    return m0 * sigma + ((a2 - m0) / (v * v)) * np.outer(q, q)


def task_failures(records_path):
    """(tasks, uncertified tasks) from records.csv; a task fails when
    either of its solves is not certified."""
    with open(records_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = sum(1 for r in rows
                 if r["est_converged"] != "true"
                 or r["exp_converged"] not in ("true", ""))
    return len(rows), failed


def check_summary(summary_path, min_risk_share=None):
    """Problems found in summary.json; an empty list means it passed.

    At every grid point with certified tasks the median gap between the
    estimate and its expansion must be below the median estimation error;
    on risk-identity runs the deviation bound must hold in at least
    min_risk_share of the replications.
    """
    with open(summary_path) as fh:
        summary = json.load(fh)
    problems = []
    for pt in summary["points"]:
        if pt["converged"] == 0:
            continue
        if not pt["median_gap"] < pt["median_err_est"]:
            problems.append("point %d: median gap %.4g is not below median "
                            "err_est %.4g" % (pt["point"], pt["median_gap"],
                                              pt["median_err_est"]))
        if min_risk_share is not None and \
                not pt["risk_bound_freq"] >= min_risk_share:
            problems.append("point %d: risk bound held in %.3f of "
                            "replications, below %.3f"
                            % (pt["point"], pt["risk_bound_freq"],
                               min_risk_share))
    return problems


def same_bytes(dir_a, dir_b, names=("records.csv", "summary.json")):
    """Names of the files that differ between two output directories."""
    differ = []
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                differ.append(name)
    return differ
