"""Loss functions: each owns its derivatives, constants and curvature matrix.

A loss is a margin loss l(y, u) with its first two derivatives in u, the
Lipschitz constant of l'' (d2_lipschitz), the design kinds its population
curvature matrix is known for (designs), that curvature matrix, and the
noise scale the penalty-level formulas use. The two losses are used
through the singletons SQUARED and LOGISTIC, or get_loss by kind.

The logistic loss here is the convex negative log-likelihood for labels drawn
with P(Y=1|x) = 1/(1+exp(x'b)), namely l(y,u) = (y-1)u + log(1+e^u). Its
score y - 1/(1+e^u) has mean zero under that convention. A commonly printed
concave variant (yu - log(1+e^u)) is this one negated and cannot be
minimized; only the convex form is implemented.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import CovarianceModel, sigmoid


class SquaredLoss:
    """l(y, u) = (y - u)^2 / 2, whose l'' is 1: K is the covariance itself."""

    kind = "squared"
    d2_lipschitz = 0.0
    designs = ("gaussian", "rademacher")

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

    def penalty_scale(self, noise_scale):
        """The realized noise scale, which the penalty levels require."""
        if noise_scale is None:
            raise ValueError("squared loss needs the realized noise scale")
        return noise_scale


class LogisticLoss:
    """l(y, u) = (y - 1) u + log(1 + e^u), whose l'' is sig'(u).

    The Lipschitz constant of l'' is max|sig''| = 1/(6 sqrt(3)), attained
    near u = +-log(2 + sqrt(3)).
    """

    kind = "logistic"
    d2_lipschitz = 1.0 / (6.0 * np.sqrt(3.0))
    designs = ("gaussian",)

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
        """K for a Gaussian design, by Gauss-Hermite quadrature.

        The index t = x'beta is N(0, v^2) with v^2 = beta' Sigma beta, and
        conditioning on t gives

            K = m0 Sigma + c q q',  q = Sigma b,  c = (a2 - m0) / v^2,

        with m0 = E[sig'(vZ)] and a2 = E[sig'(vZ) Z^2], both by quadrature
        (node count doubled from 64 until stable; a v for which no two
        rules with finite weights agree is refused). K is returned as a
        rank-one update of cov: it holds no p x p array and makes no
        eigendecomposition of its own, and its products, solves and eig_max
        come from cov's. At v = 0, K = Sigma/4 is the same
        update with m0 = 1/4 and c = 0, and needs no quadrature. Other
        designs have no closed form and are refused.
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

        def d2(z):
            return self.d2(0.0, v * z)

        moments = _adaptive_hermite([d2, lambda z: d2(z) * z * z])
        if moments is None:
            raise ValueError(
                "the logistic curvature quadrature does not converge at "
                "||Sigma^{1/2} beta*|| = %.4g: no two successive "
                "Gauss-Hermite rules agree to 1e-13" % v)
        m0, a2 = moments
        return CovarianceModel.rank_one(cov, m0, (a2 - m0) / v2, q)

    def penalty_scale(self, noise_scale):
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


@lru_cache(maxsize=None)
def _hermite_rule(n_nodes):
    # Probabilists' Gauss-Hermite nodes and weights for E f(Z), Z standard
    # normal: an eigenproblem of size n_nodes, so solved once per count.
    # None when they overflow, as numpy's weights do from 512 nodes on.
    with np.errstate(all="ignore"):
        nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        return None
    weights = weights / np.sqrt(2.0 * np.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _adaptive_hermite(funcs):
    # E f(Z) for each f, with the node count doubled from 64 (up to 2048)
    # until two successive rules agree to 1e-13; None when the rules with
    # finite weights run out first
    vals, nodes = None, 64
    while nodes <= 2048 and (rule := _hermite_rule(nodes)) is not None:
        new = [float(np.sum(rule[1] * f(rule[0]))) for f in funcs]
        if vals is not None and all(abs(a - b) <= 1e-13 * max(1.0, abs(b))
                                    for a, b in zip(vals, new)):
            return new
        vals, nodes = new, 2 * nodes
    return None


def curvature_matrix(loss, cov, beta_star, design_kind="gaussian"):
    """Population curvature matrix of loss for a design with covariance cov.

    Squared loss returns cov itself; logistic loss integrates by quadrature
    and accepts only a Gaussian design.
    """
    return loss.curvature(cov, beta_star, design_kind)

