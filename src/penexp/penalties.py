"""Penalties h with exact proximal maps and subdifferential certificates.

GroupPenalty is the group lasso, and with groups of one coordinate the
penalized lasso; L1BallConstraint is the constrained lasso. Each gives h(b)
as value, the proximal map of step*h as prox (along the last axis, so on a
vector or on each row of a batch, with exact zeros, as a fresh array that
the caller may overwrite) and the KKT residual as residual. For the
working-set solver it also scores each unit (a group, or a coordinate of
the ball) by how far it violates the KKT condition, and restricts itself
to a subset of units. prox_risk gives the risk of the proximal map at a
Gaussian perturbation of b*: exact for GroupPenalty, Monte Carlo for the
ball, whose projection has no closed-form risk.

lasso_penalty_level and group_penalty_level are the levels that tune
GroupPenalty, formulas of numbers defined for p > s >= 1 (M > s >= 1 for
groups) and xi > 0, as harness.ExperimentConfig checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GroupStructure, stream_rng

# Absolute tolerance for deciding whether a point sits on the l1-ball
# boundary in the constrained KKT check.
BOUNDARY_TOL = 1e-9
# Numbers drawn per chunk of the ball's Monte Carlo risk: 256 KB of draws,
# so that a chunk and the projection's output stay in cache.
MC_CHUNK_ELEMENTS = 1 << 15
# Poisson terms per chunk of the exact group risk.
RISK_CHUNK = 1 << 16


def _check_step(step):
    if not step > 0:
        raise ValueError("prox step must be > 0, got %r" % (step,))


def _pair(beta, grad):
    beta = np.asarray(beta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if beta.shape != grad.shape:
        raise ValueError("beta and grad dimensions differ")
    return beta, grad


@dataclass(frozen=True)
class L1BallConstraint:
    """Indicator of {||b||_1 <= radius}: 0 inside, +inf outside."""

    radius: float

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ValueError("radius must be > 0 and finite")

    def value(self, beta):
        l1 = np.abs(np.asarray(beta, dtype=float)).sum()
        slack = BOUNDARY_TOL * max(1.0, self.radius)
        return 0.0 if l1 <= self.radius + slack else float("inf")

    def prox(self, x, step=1.0):
        """The projection onto the ball, whatever the step."""
        _check_step(step)
        return project_l1_ball(x, self.radius)

    def residual(self, beta, grad):
        """Distance of -grad from the normal cone of the ball at beta.

        An infeasible beta reports +inf; a boundary point (within
        BOUNDARY_TOL) is scored against the normal cone with multiplier
        ||grad||_inf.
        """
        beta, grad = _pair(beta, grad)
        l1 = np.abs(beta).sum()
        slack = BOUNDARY_TOL * max(1.0, self.radius)
        if l1 > self.radius + slack:
            return float("inf")
        gmax = float(np.abs(grad).max())
        if l1 < self.radius - slack:
            # Strict interior: stationarity needs a vanishing gradient.
            return gmax
        nz = beta != 0.0
        if not nz.any():
            return gmax
        return float(np.abs(grad[nz] + gmax * np.sign(beta[nz])).max())

    def scores(self, beta, grad):
        """|grad|, the Frank-Wolfe ranking: a zero coordinate whose |grad|
        exceeds that of every coordinate kept raises the residual. The
        residual is not separable, so it is not the largest score."""
        return np.abs(_pair(beta, grad)[1])

    def restrict(self, units):
        """This constraint, acting on the coordinates units, and those
        coordinates."""
        return self, np.asarray(units, dtype=np.intp)

    def prox_risk(self, beta_star, noise_scale, n, n_draws, seed):
        """Monte Carlo E_Z ||b* - prox(b* + (sigma/sqrt(n)) Z)||^2 and its s.e.

        The n_draws >= 2 draws come from stream purpose 4 of seed, in chunks of
        about MC_CHUNK_ELEMENTS numbers. Philox normals come out in
        sequence, so the chunk size changes neither the draws nor the
        result. Every chunk is drawn into one reused buffer and worked in
        place: the draws become the points, and the fresh array that prox
        returns becomes the squared differences.
        """
        beta_star = np.asarray(beta_star, dtype=float)
        n_draws = int(n_draws)
        tau = float(noise_scale) / np.sqrt(n)
        rng = stream_rng(seed, 4)
        vals = np.empty(n_draws)
        done = 0
        chunk = max(1, MC_CHUNK_ELEMENTS // beta_star.size)
        buf = np.empty((min(chunk, n_draws), beta_star.size))
        while done < n_draws:
            m = min(chunk, n_draws - done)
            pts = rng.standard_normal(out=buf[:m])
            pts *= tau
            pts += beta_star
            sq = self.prox(pts)
            sq -= beta_star
            sq *= sq
            vals[done:done + m] = sq.sum(axis=1)
            done += m
        risk = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(n_draws))
        return risk, se


@dataclass(frozen=True, eq=False)
class GroupPenalty:
    """h(b) = level * sum_k ||b_{G_k}|| over a group partition.

    Singleton groups (GroupStructure(p, 1)) give the lasso,
    level * ||b||_1 (Yuan & Lin, JRSS-B 2006), with soft thresholding's bits
    while sqrt(x*x) == |x|, i.e. 1e-154 < |x| < 1e154 or x = 0; the prox
    maps -0.0 to -0.0 where soft thresholding gives +0.0.
    """

    level: float
    groups: object

    def __post_init__(self):
        if not 0 <= self.level < np.inf:
            raise ValueError("penalty level must be >= 0 and finite")

    def value(self, beta):
        norms = self.groups.norms(np.asarray(beta, dtype=float))
        return float(self.level * norms.sum())

    def prox(self, x, step=1.0):
        """Shrink each block's norm and keep its direction:
        (x_G / ||x_G||) * (||x_G|| - step*level)_+."""
        _check_step(step)
        x = np.asarray(x, dtype=float)
        blocks = self.groups.blocks(x)
        norms = self.groups.norms(x)
        shrunk = np.maximum(norms - step * self.level, 0.0)
        # Dividing dead blocks by 1 instead of masking them keeps a batch
        # free of boolean gathers; their entries come out as +-0.
        out = blocks / np.where(shrunk > 0.0, norms, 1.0)[..., None]
        out *= shrunk[..., None]
        return out.reshape(x.shape)

    def scores(self, beta, grad):
        """Blockwise distance of -grad from level * b_G/||b_G|| (the
        level-ball where b_G is 0), one per group."""
        beta, grad = _pair(beta, grad)
        b_norms = self.groups.norms(beta)
        # A zero block has direction 0, so its deviation is ||grad_G||.
        dirs = self.groups.blocks(beta) / np.where(b_norms > 0.0, b_norms,
                                                   1.0)[..., None]
        dev = self.groups.norms(grad + self.level * dirs.reshape(grad.shape))
        return np.where(b_norms > 0.0, dev, np.maximum(dev - self.level, 0.0))

    def residual(self, beta, grad):
        """The largest score."""
        scores = self.scores(beta, grad)
        return float(scores.max())

    def restrict(self, units):
        """This penalty over the groups units, re-indexed onto the
        concatenation of their coordinates, and those coordinates."""
        units = np.asarray(units, dtype=np.intp)
        d = self.groups.d
        kept = GroupStructure(units.size, d)
        columns = (units[:, None] * d + np.arange(d)).ravel()
        return GroupPenalty(self.level, kept), columns

    def prox_risk(self, beta_star, noise_scale, n, n_draws, seed):
        """E_Z ||b* - prox(b* + tau Z)||^2 at tau = sigma/sqrt(n), exactly,
        and its standard error 0.0: nothing is drawn, and n_draws and seed
        are not read.

        Each block's risk depends on ||b*_G|| alone, so it is computed once
        per distinct block norm by _block_risk.
        """
        beta_star = np.asarray(beta_star, dtype=float)
        tau = float(noise_scale) / np.sqrt(n)
        if tau == 0.0:
            diff = beta_star - self.prox(beta_star)
            return float(diff @ diff), 0.0
        if self.level == 0.0:
            # The prox is the identity.
            return float(tau * tau * beta_star.size), 0.0
        t = self.level / tau
        norms, counts = np.unique(self.groups.norms(beta_star),
                                  return_counts=True)
        risks = [_block_risk(m / tau, t, self.groups.d) for m in norms]
        return float(tau * tau * (counts @ np.array(risks))), 0.0


def lasso_penalty_level(scale, p, s, n, xi):
    """Penalty level putting the error vectors in the lasso cone w.h.p.

    L sigma (1+3 xi) sqrt(2 log(p/s)/n), with L = 1 for both designs (the
    sub-Gaussian constant of Gaussian and Rademacher rows) and sigma = scale,
    a loss's penalty_scale: the realized noise scale for squared loss, the
    label sub-Gaussian scale 1/2 for logistic loss.
    """
    base = (1.0 + 3.0 * xi) * np.sqrt(2.0 * np.log(p / s) / n)
    return float(scale * base)


def group_penalty_level(scale, M, d, s, n, xi):
    """Group analog: L sigma (1+xi)[sqrt(d) + (1+2 xi) sqrt(2 log(M/s))]/sqrt(n),
    with L = 1 for both designs and sigma = scale."""
    width = np.sqrt(d) + (1.0 + 2.0 * xi) * np.sqrt(2.0 * np.log(M / s))
    return float(scale * (1.0 + xi) * width / np.sqrt(n))


def _gamma_ladder(x, top):
    """Q(i/2, x) and x^(i/2) e^-x / Gamma(i/2 + 1) for i = 0..top, with Q
    the upper regularized gamma (Q(0, x) reads 0 and is never used).

    Q(a + 1, x) = Q(a, x) + x^a e^-x / Gamma(a + 1) climbs from
    Q(1/2, x) = erfc(sqrt(x)) and Q(1, x) = e^-x; every step adds a
    positive term. log Gamma(i/2 + 1) comes from Gamma(a + 1) = a Gamma(a)
    as cumulative sums of logs.
    """
    steps = np.log(0.5 * np.arange(2, top + 1))
    lgam = np.empty(top + 1)
    lgam[:2] = 0.0, math.log(0.5 * math.sqrt(math.pi))
    lgam[2::2] = np.cumsum(steps[0::2])
    lgam[3::2] = lgam[1] + np.cumsum(steps[1::2])
    up = np.exp(0.5 * np.arange(top + 1) * math.log(x) - x - lgam)
    q = np.empty(top + 1)
    q[0] = 0.0
    q[2::2] = np.cumsum(up[0::2])[:-1]
    q[1::2] = math.erfc(math.sqrt(x)) + np.concatenate(
        ([0.0], np.cumsum(up[1::2])))[:-1]
    return q, up


def _block_risk(m, t, d):
    """Risk of block soft thresholding at level t for a block of d
    coordinates with ||b*_G|| = m, all in units of the noise scale tau.

    Stein's unbiased risk estimate (Stein, Ann. Statist. 1981) depends on
    R = ||x_G|| alone: R^2 - d for R <= t, and t^2 + d - 2(d - 1) t/R
    beyond. R^2 is noncentral chi^2_d(m^2), a Poisson(m^2/2) mixture of
    central chi^2_nu, nu = d + 2k. With x = t^2/2, term k needs
    P(V > t^2) = Q(nu/2, x), E[V; V <= t^2] = nu (1 - Q(nu/2 + 1, x)) and
    E[V^-1/2; V > t^2] = Gamma((nu-1)/2) / (sqrt(2) Gamma(nu/2))
    Q((nu-1)/2, x). d = 1 is the lasso, where the last term vanishes.
    """
    x = 0.5 * t * t
    mu = 0.5 * m * m
    if mu > 0:
        # The Poisson weights outside mu +- (10 sqrt(mu) + 30) sum below
        # 1e-20.
        spread = 10.0 * math.sqrt(mu) + 30.0
        first, last = max(0, int(mu - spread)), int(mu + spread)
        log_mu = math.log(mu)
    else:
        first = last = 0
        log_mu = 0.0
    # Past order x + 12 sqrt(x) + 40, 1 - Q(a, x) is below 1e-26: Q reads
    # 1 and its ladder term 0, so the ladder stops there.
    top = min(d + 2 * last + 2, 2 * int(x + 12.0 * math.sqrt(x) + 40.0))
    q, up = _gamma_ladder(x, top)

    def at(order2):
        inside = order2 <= top
        j = np.minimum(order2, top)
        return np.where(inside, q[j], 1.0), np.where(inside, up[j], 0.0)

    # The window holds about 14 m terms; walking it in chunks bounds the
    # memory when the noise is small against the signal.
    total = mass = 0.0
    for k0 in range(first, last + 1, RISK_CHUNK):
        k = np.arange(k0, min(k0 + RISK_CHUNK, last + 1))
        nu = d + 2 * k
        # log Poisson(mu) weights, from w_k / w_{k-1} = mu / k
        w = np.exp(k0 * log_mu - mu - math.lgamma(k0 + 1) + np.concatenate(
            ([0.0], np.cumsum(np.log(mu / k[1:])))))
        # nu (1 - Q(nu/2 + 1, x)) - d (1 - Q(nu/2, x)), with the ladder
        # step taken out so that no rounding of 1 - Q is scaled by nu
        q1, up1 = at(nu)
        per = 2 * k * (1.0 - q1) - nu * up1 + (t * t + d) * q1
        if d > 1:
            # log c_nu, c_nu = Gamma((nu-1)/2) / (sqrt(2) Gamma(nu/2)),
            # from c_{nu+2} = c_nu (nu - 1)/nu
            logc = math.lgamma(0.5 * (nu[0] - 1)) - \
                math.lgamma(0.5 * nu[0]) - 0.5 * math.log(2.0) + \
                np.concatenate(([0.0], np.cumsum(np.log1p(-1.0 / nu[:-1]))))
            per -= 2.0 * (d - 1) * t * np.exp(logc) * at(nu - 1)[0]
        total += float(w @ per)
        mass += float(w.sum())
    # Dividing by the weights' sum cancels their rounding.
    return total / mass


def soft_threshold(x, t):
    """sign(x) (|x| - t)_+ with exact zeros."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def project_l1_ball(x, radius):
    """Euclidean projection onto {||b||_1 <= radius} by sort and threshold,
    of x or of each row of x along its last axis."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    # The relative slack keeps the map idempotent: re-projecting a point
    # whose norm equals the radius up to rounding leaves it untouched.
    inside = a.sum(axis=-1) <= radius * (1.0 + 1e-12)
    u = np.sort(a, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    k = np.arange(1, x.shape[-1] + 1)
    # Largest k with u_k above the running threshold (css_k - R)/k; it
    # exists because k = 1 always qualifies.
    above = u > (css - radius) / k
    last = x.shape[-1] - 1 - np.argmax(above[..., ::-1], axis=-1)
    css_last = np.take_along_axis(css, last[..., None], axis=-1)[..., 0]
    theta = (css_last - radius) / (last + 1.0)
    return np.where(inside[..., None], x, soft_threshold(x, theta[..., None]))
