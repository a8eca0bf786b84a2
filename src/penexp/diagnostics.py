"""Verification quantities: the risk identity, de-biased inference, and
sparsity counts and bounds.

risk_identity_check, debiased_estimate and sparsity_count return the
records.csv cells they fill, keyed by column.

The hypotheses of the risk identity and of the interval are each written
once, in risk_identity_hypotheses and interval_hypotheses: the harness
refuses a config with them, and the diagnostic each dataset it is given.
"""

import numpy as np

from .model import noise_scale


def risk_identity_hypotheses(model_kind, design, covariance):
    """Raise ValueError unless the risk identity is exact: linear data
    (squared loss) from a Gaussian design with identity covariance."""
    if model_kind != "linear" or design != "gaussian" or \
            not covariance.is_identity:
        raise ValueError("the risk identity needs linear data (squared "
                         "loss), a gaussian design and the identity "
                         "covariance; refusing to extrapolate")


def interval_hypotheses(model_kind, noise_sd):
    """Raise ValueError unless the de-biased interval applies: linear data
    (squared loss) drawn with noise_sd > 0, its half-width being
    1.96 noise_sd/sqrt(n)."""
    if model_kind != "linear" or not noise_sd > 0:
        raise ValueError("de-biased intervals need linear data with "
                         "noise_sd > 0, got %s data with noise_sd %r"
                         % (model_kind, noise_sd))


def risk_identity_check(dataset, beta_hat, eta, penalty, n_mc, seed):
    """Compare the realized estimation error against the prox-risk identity.

    risk_lhs is ||beta_hat - beta_star||, risk_rhs the root mean prox risk
    at the realized noise scale from penalty.prox_risk, with s.e.
    risk_mc_se: exact for GroupPenalty (the lasso and the group lasso),
    where risk_mc_se is 0, and from n_mc Monte Carlo draws of stream
    purpose 4 of seed for the l1 ball. risk_ratio is their ratio (None when
    risk_rhs is 0), and risk_ok whether they differ by at most
    risk_bound = 3 sigma/sqrt(n) + ||beta_hat - eta||: the paper's
    sigma (t+1)/sqrt(n) at t = 2. A dataset outside
    risk_identity_hypotheses is refused with its ValueError.
    """
    risk_identity_hypotheses(dataset.model_kind, dataset.design_kind,
                             dataset.covariance)
    beta_hat = np.asarray(beta_hat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    sigma = noise_scale(dataset)
    lhs = float(np.linalg.norm(beta_hat - dataset.beta_star))
    risk, risk_se = penalty.prox_risk(dataset.beta_star, sigma, dataset.n,
                                      n_mc, seed)
    rhs = float(np.sqrt(risk))
    # Delta method: s.e. of sqrt(risk).
    mc_se = float(risk_se / (2.0 * rhs)) if rhs > 0 else float(risk_se)
    ratio = lhs / rhs if rhs > 0 else None
    bound = float(3.0 * sigma / np.sqrt(dataset.n)) + \
        float(np.linalg.norm(beta_hat - eta))
    return dict(risk_lhs=lhs, risk_rhs=rhs, risk_mc_se=mc_se,
                risk_ratio=ratio, risk_bound=bound,
                risk_ok=bool(abs(lhs - rhs) <= bound))


def debiased_estimate(dataset, beta_hat, a, noise_sd):
    """Bias-corrected estimate of a'beta with its fixed-width interval.

    A nonzero a is renormalized so ||Sigma^{-1/2} a|| = 1, with Sigma the
    covariance the dataset's design was drawn from (the target rescales
    with it); the correction adds the score-weighted average residual, so
    the estimate's error is about N(0, noise_sd^2/n), where noise_sd is the
    noise sd the linear data were drawn with. The interval half-width is
    1.96 noise_sd/sqrt(n): covered says whether it holds the target, and
    t_stat is sqrt(n) (theta_hat - target)/noise_sd. A dataset outside
    interval_hypotheses is refused with ValueError.
    """
    a = np.asarray(a, dtype=float)
    interval_hypotheses(dataset.model_kind, noise_sd)
    beta_hat = np.asarray(beta_hat, dtype=float)
    x = dataset.covariance.solve(a)
    scale = np.sqrt(float(a @ x))
    a, z_a = a / scale, dataset.X @ (x / scale)
    denom = float(z_a @ z_a)
    resid = dataset.y - dataset.X @ beta_hat
    theta = float(a @ beta_hat + (z_a @ resid) / denom)
    target = float(a @ dataset.beta_star)
    half = 1.96 * noise_sd / np.sqrt(dataset.n)
    t_stat = float(np.sqrt(dataset.n) * (theta - target) / noise_sd)
    return dict(theta_hat=theta, target=target,
                covered=bool(theta - half <= target <= theta + half),
                t_stat=t_stat)


def sparsity_count(beta, bound, groups=None):
    """Nonzero coordinates and groups (None without groups) of beta, and
    whether the groups, or without groups the coordinates, are <= bound."""
    beta = np.asarray(beta, dtype=float)
    coords = int(np.count_nonzero(beta))
    nz = None if groups is None else int(np.count_nonzero(
        np.any(groups.blocks(beta) != 0.0, axis=-1)))
    return dict(nnz_coords=coords, nnz_groups=nz, sparsity_bound=bound,
                sparsity_ok=(coords if nz is None else nz) <= bound)


def sparsity_bound(s, xi, cov, curvature, groups=None):
    """Support-size bound s {1 + C_max [2(3+xi)(1+1/xi)]^2 B3^2 / phi^2}.

    C_max is K's largest eigenvalue, or with groups the largest over its
    diagonal blocks; phi = sqrt(eig_min of Sigma) on either cone; B3, the
    largest ||Sigma^{1/2} u||^2 / ||K^{1/2} u||^2, is exactly 1 when K is
    Sigma (squared loss) and 1/min(m0, a2) for the rank-one logistic K.
    It is defined for xi > 0.
    """
    if groups is None:
        c_max = curvature.eig_max
    else:
        c_max = max(float(np.linalg.eigvalsh(curvature.principal(g)).max())
                    for g in groups.groups)
    phi = np.sqrt(cov.eig_min)
    b3 = 1.0 if curvature is cov else 1.0 / curvature.relative_bounds[0]
    factor = 2.0 * (3.0 + xi) * (1.0 + 1.0 / xi)
    return float(1.0 + c_max * factor * factor * b3 * b3 / (phi * phi)) * s
