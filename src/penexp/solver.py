"""Accelerated proximal-gradient solvers for the two estimation problems.

fit_penalized minimizes the empirical average of the loss plus a penalty.
fit_expansion minimizes the quadratic surrogate built at the ground truth
against the population curvature matrix; its minimizer is the first-order
expansion of the penalized estimator. Both run the same FISTA loop over a
smooth part seen through an affine image of the iterate (X b for the fit,
K (b - z) for the surrogate). The fit finds its step by backtracking; the
surrogate steps by 1/lambda_max(K), taken from the curvature's eig_max.
Both certify convergence through the penalty's subdifferential residual,
independent of the iteration path, and both are deterministic: identical
inputs produce bit-identical iterates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .penalties import penalty_value, prox, subdifferential_residual

# Step factor per failed sufficient-decrease test, first step when no
# Lipschitz constant is known, and iterations between KKT checks.
BACKTRACK_SHRINK = 0.5
INITIAL_STEP = 1.0
CHECK_EVERY = 5


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    kkt_tol: float = 1e-8

    def __post_init__(self):
        if self.kkt_tol <= 0:
            raise ValueError("kkt_tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class SolverResult:
    solution: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    wall_time: float


@dataclass(frozen=True, eq=False)
class _Smooth:
    """Smooth part f of a composite objective, seen through an affine image.

    image(b) is the affine image u of b; value(b, u) and grad(b, u) give f
    and its gradient from b and its image. lipschitz is a known Lipschitz
    constant of the gradient, or None when the step must be found.
    """

    image: Callable
    value: Callable
    grad: Callable
    lipschitz: float | None


def _fista(smooth, penalty, x, u_x, cfg, t0):
    """FISTA with backtracking from x, whose image is u_x.

    Momentum restarts whenever the objective increases. The image of the
    momentum point is combined linearly from cached images, so an
    iteration applies the image once per sufficient-decrease test, plus
    whatever the gradient costs. With a known Lipschitz constant L the step
    is 1/L, under which the test holds, so the step never shrinks; without
    one it starts at INITIAL_STEP. The KKT residual is checked at iteration 1
    and every CHECK_EVERY iterations, and once more at the end if the loop
    ran out; non-convergence is reported, never raised.
    """
    x_prev, u_prev = x, u_x
    t_mom = 1.0
    step = INITIAL_STEP if smooth.lipschitz is None else 1.0 / smooth.lipschitz
    obj = smooth.value(x, u_x) + penalty_value(penalty, x)
    res = np.inf
    converged = False
    it = 0
    while it < cfg.max_iters:
        it += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        mom = (t_mom - 1.0) / t_next
        yv = x + mom * (x - x_prev)
        u_y = u_x + mom * (u_x - u_prev)
        fy = smooth.value(yv, u_y)
        g = smooth.grad(yv, u_y)
        while True:
            x_new = prox(penalty, yv - step * g, step)
            u_new = smooth.image(x_new)
            fx = smooth.value(x_new, u_new)
            d = x_new - yv
            if fx <= fy + g @ d + (d @ d) / (2.0 * step) + 1e-12 * max(1.0, abs(fy)):
                break
            step *= BACKTRACK_SHRINK
        new_obj = fx + penalty_value(penalty, x_new)
        if new_obj > obj:
            t_next = 1.0
        obj = new_obj
        x_prev, u_prev = x, u_x
        x, u_x = x_new, u_new
        t_mom = t_next
        if it == 1 or it % CHECK_EVERY == 0:
            res = subdifferential_residual(penalty, x, smooth.grad(x, u_x))
            if res <= cfg.kkt_tol:
                converged = True
                break
    if not converged:
        res = subdifferential_residual(penalty, x, smooth.grad(x, u_x))
        converged = res <= cfg.kkt_tol
    return SolverResult(x, obj, float(res), it, converged,
                        time.perf_counter() - t0)


def smooth_gradient(dataset, loss, beta):
    """Gradient of the empirical loss average at beta."""
    u = dataset.X @ np.asarray(beta, dtype=float)
    return dataset.X.T @ loss.d1(dataset.y, u) / dataset.n


def fit_penalized(dataset, loss, penalty, config=None):
    """Solve the penalized problem by FISTA with backtracking.

    The smooth part is seen through u = X b, so each iteration costs two
    matrix-vector products plus one more per KKT check. Starts at 0.
    """
    cfg = config or DEFAULT_CONFIG
    X, y, n = dataset.X, dataset.y, dataset.n
    t0 = time.perf_counter()
    smooth = _Smooth(
        image=lambda b: X @ b,
        value=lambda b, u: float(np.mean(loss.value(y, u))),
        grad=lambda b, u: X.T @ loss.d1(y, u) / n,
        lipschitz=None)
    return _fista(smooth, penalty, np.zeros(dataset.p), np.zeros(n), cfg, t0)


def expansion_center(dataset, loss, curvature, beta_star):
    """Point z whose penalized projection under K is the expansion.

    z = beta_star - K^{-1} (average loss score at beta_star). For squared
    loss with identity covariance this reduces to beta_star + X'eps/n, which
    is what makes the expansion a pure prox evaluation in that case.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    g = smooth_gradient(dataset, loss, beta_star)
    return beta_star - curvature.solve(g)


def fit_expansion(dataset, loss, curvature, beta_star, penalty, config=None,
                  allow_approximate=False):
    """Solve the quadratic surrogate 0.5 ||K^{1/2}(b - z)||^2 + h(b).

    The smooth part is seen through u = K (b - z), which is also its
    gradient, so each iteration costs one product with K. The step is the
    exact 1/lambda_max(K) from curvature.eig_max, and the solve starts at z,
    so the identity-curvature case converges in one prox step. Monte Carlo
    curvature estimates are refused unless allow_approximate is set,
    because the surrogate is meaningful against the population matrix.
    """
    cfg = config or DEFAULT_CONFIG
    if curvature.provenance == "mc-estimate" and not allow_approximate:
        raise ValueError(
            "curvature has Monte Carlo provenance; pass allow_approximate=True "
            "to expand against an estimated matrix")
    t0 = time.perf_counter()
    z = expansion_center(dataset, loss, curvature, beta_star)
    smooth = _Smooth(
        image=lambda b: curvature @ (b - z),
        value=lambda b, u: 0.5 * float((b - z) @ u),
        grad=lambda b, u: u,
        lipschitz=curvature.eig_max)
    # the smooth part and its image vanish at z
    return _fista(smooth, penalty, z.copy(), np.zeros(z.size), cfg, t0)
