"""Penalties h with exact proximal maps and subdifferential certificates.

GroupPenalty is the group lasso, and with groups of one coordinate the
penalized lasso; L1BallConstraint is the constrained lasso. Each gives h(b)
as value, the proximal map of step*h as prox (along the last axis, so on a
vector or on each row of a batch, with exact zeros, as a fresh array that
the caller may overwrite) and the KKT residual as residual. For the
working-set solver it also scores each unit (a group, or a coordinate of
the ball) by how far it violates the KKT condition, and restricts itself
to a subset of units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GroupStructure

# Absolute tolerance for deciding whether a point sits on the l1-ball
# boundary in the constrained KKT check.
BOUNDARY_TOL = 1e-9


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
        gmax = float(np.abs(grad).max()) if grad.size else 0.0
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
        return float(scores.max()) if scores.size else 0.0

    def restrict(self, units):
        """This penalty over the groups units, re-indexed onto the
        concatenation of their coordinates, and those coordinates."""
        units = np.asarray(units, dtype=np.intp)
        d = self.groups.d
        kept = GroupStructure(units.size, d)
        columns = (units[:, None] * d + np.arange(d)).ravel()
        return GroupPenalty(self.level, kept), columns


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
