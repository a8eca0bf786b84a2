"""Cones containing the estimation error, tuning levels and rate scales.

One cone, {u : sum_k ||u_{G_k}|| <= r ||u||}, serves every regularizer: over
groups of one coordinate it is the lasso cone {u : ||u||_1 <= sqrt(k)||u||}.
A cone answers membership of an error vector; the penalty levels and
minimax rate scales are formulas of numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GroupStructure


@dataclass(frozen=True, eq=False)
class GroupCone:
    """{u : sum_k ||u_{G_k}|| <= radius ||u||}."""

    radius: float
    groups: GroupStructure

    def member(self, u):
        """Does u satisfy the defining inequality, with relative slack 1e-9."""
        u = np.asarray(u, dtype=float)
        l2 = np.linalg.norm(u)
        norms = self.groups.norms(u)
        return bool(norms.sum() <= self.radius * l2 * (1.0 + 1e-9))


def lasso_cone(k, p):
    """{u in R^p : ||u||_1 <= sqrt(k) ||u||}, k >= 1: the group cone over p
    groups of one coordinate, whose norms are the |u_j|."""
    if k < 1:
        raise ValueError("cone parameter k must be >= 1")
    return GroupCone(np.sqrt(float(k)), GroupStructure(p, 1))


def group_cone(s, groups, xi):
    """Group error cone with radius c sqrt(s), c = 2 + 3/xi, the value the
    tuning analysis guarantees for the error vectors."""
    return GroupCone((2.0 + 3.0 / float(xi)) * np.sqrt(int(s)), groups)


def lasso_penalty_level(scale, p, s, n, xi):
    """Penalty level putting the error vectors in the lasso cone w.h.p.

    L sigma (1+3 xi) sqrt(2 log(p/s)/n), with L = 1 for both designs (the
    sub-Gaussian constant of Gaussian and Rademacher rows) and sigma = scale,
    a loss's penalty_scale: the realized noise scale for squared loss, the
    label sub-Gaussian scale 1/2 for logistic loss.
    """
    if not p > s >= 1:
        raise ValueError("need p > s >= 1")
    if xi <= 0:
        raise ValueError("xi must be > 0")
    base = (1.0 + 3.0 * xi) * np.sqrt(2.0 * np.log(p / s) / n)
    return float(scale * base)


def group_penalty_level(scale, M, d, s, n, xi):
    """Group analog: L sigma (1+xi)[sqrt(d) + (1+2 xi) sqrt(2 log(M/s))]/sqrt(n),
    with L = 1 for both designs and sigma = scale."""
    if not M > s >= 1:
        raise ValueError("need M > s >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    if xi <= 0:
        raise ValueError("xi must be > 0")
    width = np.sqrt(d) + (1.0 + 2.0 * xi) * np.sqrt(2.0 * np.log(M / s))
    return float(scale * (1.0 + xi) * width / np.sqrt(n))


def lasso_rate(n, p, s):
    """Rate scale r_n = sqrt(2 s log(p/s)/n) of the estimation error of
    both l1 fits."""
    if not p > s >= 1:
        raise ValueError("need p > s >= 1")
    return float(np.sqrt(2.0 * s * np.log(p / s) / n))


def group_rate(n, M, d, s):
    """Rate scale r_n = sqrt((s d + s log(M/s))/n) of the group lasso."""
    if not M > s >= 1:
        raise ValueError("need M > s >= 1")
    return float(np.sqrt((s * d + s * np.log(M / s)) / n))
