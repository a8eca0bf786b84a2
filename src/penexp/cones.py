"""Cones containing the estimation error, tuning levels and rate scales.

The two cone families are the l1-vs-l2 cone {u : ||u||_1 <= sqrt(k)||u||}
and its blockwise analog for group norms. Each cone class answers what the
experiments ask of it: membership of an error vector. Penalty-level
formulas and minimax rate scales live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LassoCone:
    """{u : ||u||_1 <= sqrt(k) ||u||}, k >= 1."""

    k: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("cone parameter k must be >= 1")

    def member(self, u):
        """Does u satisfy the defining inequality, with relative slack 1e-9."""
        u = np.asarray(u, dtype=float)
        l2 = np.linalg.norm(u)
        return bool(np.abs(u).sum() <= np.sqrt(self.k) * l2 * (1.0 + 1e-9))


@dataclass(frozen=True, eq=False)
class GroupCone:
    """{u : sum_k ||u_{G_k}|| <= c sqrt(s) ||u||}."""

    c: float
    s: int
    groups: object

    def member(self, u):
        u = np.asarray(u, dtype=float)
        l2 = np.linalg.norm(u)
        norms = self.groups.norms(u)
        return bool(norms.sum() <= self.c * np.sqrt(self.s) * l2 * (1.0 + 1e-9))


def lasso_cone(k):
    return LassoCone(float(k))


def group_cone(s, groups, xi):
    """Group error cone with c = 2 + 3/xi, the value the tuning analysis
    guarantees for the error vectors."""
    return GroupCone(2.0 + 3.0 / float(xi), int(s), groups)


def lasso_penalty_level(loss, p, s, n, xi, noise_scale=None):
    """Penalty level putting the error vectors in the lasso cone w.h.p.

    L sigma (1+3 xi) sqrt(2 log(p/s)/n), with L = 1 for both designs (the
    sub-Gaussian constant of Gaussian and Rademacher rows) and sigma the
    loss's penalty_scale: the realized noise scale for squared loss, the
    label sub-Gaussian scale 1/2 for logistic loss.
    """
    if not p > s >= 1:
        raise ValueError("need p > s >= 1")
    if xi <= 0:
        raise ValueError("xi must be > 0")
    base = (1.0 + 3.0 * xi) * np.sqrt(2.0 * np.log(p / s) / n)
    return float(loss.penalty_scale(noise_scale) * base)


def group_penalty_level(loss, M, d, s, n, xi, noise_scale=None):
    """Group analog: L sigma (1+xi)[sqrt(d) + (1+2 xi) sqrt(2 log(M/s))]/sqrt(n),
    with L = 1 for both designs."""
    if not M > s >= 1:
        raise ValueError("need M > s >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    if xi <= 0:
        raise ValueError("xi must be > 0")
    width = np.sqrt(d) + (1.0 + 2.0 * xi) * np.sqrt(2.0 * np.log(M / s))
    scale = loss.penalty_scale(noise_scale)
    return float(scale * (1.0 + xi) * width / np.sqrt(n))


def minimax_rate(kind, n, p=None, s=None, M=None, d=None):
    """Rate scale r_n for the estimation error: kind "lasso" for both l1
    fits, "group" for the group lasso."""
    if kind == "lasso":
        if not p > s >= 1:
            raise ValueError("need p > s >= 1")
        return float(np.sqrt(2.0 * s * np.log(p / s) / n))
    if kind == "group":
        if not M > s >= 1:
            raise ValueError("need M > s >= 1")
        return float(np.sqrt((s * d + s * np.log(M / s)) / n))
    raise ValueError("unknown penalty family %r" % (kind,))
