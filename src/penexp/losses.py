"""Loss functions: each owns its observation model, derivatives, constants
and curvature matrix.

A loss is a margin loss l(y, u) with its first two derivatives in u, the
Lipschitz constant of l'' (d2_lipschitz), the design kinds its population
curvature matrix is known for (designs), that curvature matrix, and the
noise scale the penalty-level formulas use. It draws its data's responses
to an index x'beta_star (responses) from its model (model). The two losses
are used through the singletons SQUARED and LOGISTIC, or get_loss by kind.

The logistic loss here is the convex negative log-likelihood for labels drawn
with P(Y=1|x) = 1/(1+exp(x'b)), namely l(y,u) = (y-1)u + log(1+e^u). Its
score y - 1/(1+e^u) has mean zero under that convention. A commonly printed
concave variant (yu - log(1+e^u)) is this one negated and cannot be
minimized; only the convex form is implemented.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import CovarianceModel, noise_scale


def sigmoid(u):
    """The logistic link 1/(1 + e^-u). Below u = -709, e^-u overflows to
    inf and the link is exactly 0, its limit, so the overflow is silenced."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


class SquaredLoss:
    """l(y, u) = (y - u)^2 / 2, whose l'' is 1: K is the covariance itself."""

    kind = "squared"
    model = "linear"
    d2_lipschitz = 0.0
    designs = ("gaussian", "rademacher")

    def responses(self, index, noise_sd, rng):
        """Linear responses index + eps, eps = noise_sd N(0, 1) from rng,
        and their score noise eps."""
        if not 0 <= noise_sd < np.inf:
            raise ValueError("noise_sd must be >= 0 and finite, got %r"
                             % (noise_sd,))
        eps = float(noise_sd) * rng.standard_normal(index.size)
        return index + eps, eps

    def value(self, y, u):
        d = np.asarray(y, dtype=float) - np.asarray(u, dtype=float)
        return 0.5 * d * d

    def d1(self, y, u):
        return np.asarray(u, dtype=float) - np.asarray(y, dtype=float)

    def d2(self, y, u):
        return np.ones_like(np.asarray(u, dtype=float))

    def curvature(self, cov, beta_star, design_kind):
        """cov itself, for any design: factorized once for both roles."""
        return cov

    def penalty_scale(self, dataset):
        """dataset's realized noise scale, which the penalty levels use."""
        return noise_scale(dataset)


class LogisticLoss:
    """l(y, u) = (y - 1) u + log(1 + e^u), whose l'' is sig'(u).

    The Lipschitz constant of l'' is max|sig''| = 1/(6 sqrt(3)), attained
    near u = +-log(2 + sqrt(3)).
    """

    kind = "logistic"
    model = "logistic"
    d2_lipschitz = 1.0 / (6.0 * np.sqrt(3.0))
    designs = ("gaussian",)

    def responses(self, index, noise_sd, rng):
        """0/1 labels with P(Y=1) = sig(-index), so that a large positive
        index makes the label 1 rare, drawn from rng, and their score noise
        P(Y=1) - y; noise_sd is not read."""
        p1 = sigmoid(-index)
        y = (rng.random(index.size) < p1).astype(float)
        return y, p1 - y

    def value(self, y, u):
        y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        return (y - 1.0) * u + np.logaddexp(0.0, u)

    def d1(self, y, u):
        # 1/(1+e^u) = sig(-u)
        u = np.asarray(u, dtype=float)
        return np.asarray(y, dtype=float) - sigmoid(-u)

    def d2(self, y, u):
        s = sigmoid(np.asarray(u, dtype=float))
        return s * (1.0 - s)

    def curvature(self, cov, beta_star, design_kind):
        """K for a Gaussian design, by one fixed trapezoid rule.

        The index t = x'beta is N(0, v^2) with v^2 = beta' Sigma beta, and
        conditioning on t gives

            K = m0 Sigma + c q q',  q = Sigma b,  c = (a2 - m0) / v^2,

        with m0 = E[sig'(vZ)] and a2 = E[sig'(vZ) Z^2], both within 1e-14
        relative of a 40-digit reference for v = 1e-6 ... 1e3. K is
        returned as a rank-one update of cov: it holds no p x p array and
        makes no eigendecomposition of its own, and its products, solves
        and eig_max come from cov's. At v = 0, K = Sigma/4 is the same
        update with m0 = 1/4 and c = 0, and needs no quadrature. Other
        designs have no closed form and are refused. The paper's conditions
        assume v <= 1, and past it a warning says the expansion is
        unverified (K is computed all the same).
        """
        if design_kind not in self.designs:
            raise ValueError(
                "the logistic curvature matrix has a closed form only for a "
                "gaussian design, not %r" % (design_kind,))
        beta_star = np.asarray(beta_star, dtype=float)
        q = cov @ beta_star
        v2 = float(beta_star @ q)
        if v2 <= 1e-24:
            return CovarianceModel.rank_one(cov, 0.25, 0.0, q)
        v = np.sqrt(v2)
        if v > 1.0 + 1e-9:
            # stacklevel 3 names curvature_matrix's caller
            warnings.warn(
                "||Sigma^{1/2} beta_star|| = %.4f > 1: the paper's "
                "conditions assume at most 1, and the expansion is "
                "unverified beyond it" % v, stacklevel=3)
        m0, a2 = _logistic_moments(v)
        return CovarianceModel.rank_one(cov, m0, (a2 - m0) / v2, q)

    def penalty_scale(self, dataset):
        """The labels' sub-Gaussian scale 1/2, in place of a noise scale."""
        return 0.5


SQUARED = SquaredLoss()
LOGISTIC = LogisticLoss()

_LOSSES = {"squared": SQUARED, "logistic": LOGISTIC}


def get_loss(kind):
    try:
        return _LOSSES[kind]
    except KeyError:
        raise ValueError("unknown loss kind %r (expected one of %s)"
                         % (kind, sorted(_LOSSES))) from None


def _logistic_moments(v):
    # (E sig'(vZ), E sig'(vZ) Z^2) for v > 0 by the trapezoid rule in t = vz,
    # where sig'(t) has width 1 whatever v is: the integrands are analytic in
    # a strip, so it converges geometrically (Trefethen & Weideman, SIAM
    # Review 2014). np.sum, not a BLAS product, is the same on every thread.
    h = min(0.25, 0.25 * v)
    t = h * np.arange(-160.0, 161.0)
    z = t / v
    f = (h / v) * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) \
        * LOGISTIC.d2(0.0, t)
    return float(np.sum(f)), float(np.sum(f * z * z))


def curvature_matrix(loss, cov, beta_star, design_kind="gaussian"):
    """Population curvature matrix of loss for a design with covariance cov.

    Squared loss returns cov itself; logistic loss integrates by a trapezoid
    rule and accepts only a Gaussian design.
    """
    return loss.curvature(cov, beta_star, design_kind)

