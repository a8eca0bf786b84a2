"""Accelerated proximal-gradient solvers for the two estimation problems.

fit_penalized minimizes the empirical average of the loss plus a penalty.
fit_expansion minimizes the quadratic surrogate built at the ground truth
against the population curvature matrix; its minimizer is the first-order
expansion of the penalized estimator. Both run the same FISTA loop over a
smooth part seen through an affine image of the iterate (X b for the fit,
K (b - z) for the surrogate). The fit finds its step by backtracking; the
surrogate steps by 1/eig_max, the curvature's certified bound on
lambda_max(K), exact for covariances and for the logistic K on identity Sigma.
The fit runs that loop on a working set of columns of X, grown until the
full-gradient KKT residual certifies the whole vector. Both certify
convergence through the penalty's subdifferential residual, independent of
the iteration path, and both are deterministic: identical inputs produce
bit-identical results. No solve reads a clock; the caller times it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# Step factor per failed sufficient-decrease test, first step when no
# Lipschitz constant is known, and iterations between KKT checks.
BACKTRACK_SHRINK = 0.5
INITIAL_STEP = 1.0
CHECK_EVERY = 5
# Units (coordinates, or groups) in the first working set of the penalized
# fit, and the factor by which a working set may grow per outer round.
WS_INITIAL = 100
WS_GROWTH = 2


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    kkt_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.kkt_tol < np.inf:
            raise ValueError("kkt_tol must be > 0 and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class SolverResult:
    solution: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool
    # Full-width products with X (penalized fit), or with K plus the
    # one pass over X of the expansion centre (expansion).
    passes: int


@dataclass(frozen=True, eq=False)
class _Smooth:
    """Smooth part f of a composite objective, seen through an affine image.

    image(b) is the affine image u of b; value(b, u) and grad(b, u) give f
    and its gradient from b and its image. lipschitz is a known Lipschitz
    constant of the gradient, or None when the step must be found.
    grad_products is the number of products with the image's matrix that
    one gradient costs (image itself costs one).
    """

    image: Callable
    value: Callable
    grad: Callable
    lipschitz: float | None
    grad_products: int


def _fista(smooth, penalty, x, u_x, cfg):
    """FISTA with backtracking from x, whose image is u_x; returns the
    result, and the image of its solution and the gradient there.

    Momentum restarts whenever the objective increases. The image of the
    momentum point is combined linearly from cached images, so an
    iteration applies the image once per sufficient-decrease test, plus
    whatever the gradient costs. With a known Lipschitz constant L the step
    is 1/L, under which the test holds, so the step never shrinks; without
    one it starts at INITIAL_STEP. The KKT residual is checked at iteration 1,
    every CHECK_EVERY iterations and at the budget's last iteration;
    non-convergence is reported, never raised. passes counts the products
    with the image's matrix.
    """
    x_prev, u_prev = x, u_x
    t_mom = 1.0
    step = INITIAL_STEP if smooth.lipschitz is None else 1.0 / smooth.lipschitz
    obj = smooth.value(x, u_x) + penalty.value(x)
    it = images = grads = 0
    while it < cfg.max_iters:
        it += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        mom = (t_mom - 1.0) / t_next
        yv = x + mom * (x - x_prev)
        u_y = u_x + mom * (u_x - u_prev)
        fy = smooth.value(yv, u_y)
        g = smooth.grad(yv, u_y)
        grads += 1
        while True:
            x_new = penalty.prox(yv - step * g, step)
            u_new = smooth.image(x_new)
            images += 1
            fx = smooth.value(x_new, u_new)
            d = x_new - yv
            if fx <= fy + g @ d + (d @ d) / (2.0 * step) + 1e-12 * max(1.0, abs(fy)):
                break
            step *= BACKTRACK_SHRINK
        new_obj = fx + penalty.value(x_new)
        if new_obj > obj:
            t_next = 1.0
        obj = new_obj
        x_prev, u_prev = x, u_x
        x, u_x = x_new, u_new
        t_mom = t_next
        if it == 1 or it % CHECK_EVERY == 0 or it == cfg.max_iters:
            g_x = smooth.grad(x, u_x)
            res = penalty.residual(x, g_x)
            grads += 1
            if res <= cfg.kkt_tol:
                break
    passes = images + smooth.grad_products * grads
    return SolverResult(x, float(res), it, res <= cfg.kkt_tol,
                        passes), u_x, g_x


def fit_penalized(dataset, loss, penalty, config=None):
    """Solve the penalized problem by working-set FISTA with backtracking.

    Starts at 0. Each outer round takes the full gradient X'r and stops if
    the penalty's residual on all of it is within kkt_tol. Otherwise the
    working set W, a set of the penalty's units that only grows, takes the
    worst violators outside it (penalty.scores, ties by index) until it is
    WS_GROWTH times its size (WS_INITIAL units at first), and FISTA runs on
    the columns of W, warm-started. W holds the support, since the iterate
    is zero outside it. The loop ends uncertified when the max_iters budget,
    shared by all inner solves, is spent or when no unit outside W has a
    positive score. Inner products with X[:, W] count as passes only when
    W covers all columns. When W is every column in order, the inner
    solve's last gradient is X'r at its solution, and the next round takes
    it instead of making the same product again.
    """
    cfg = config or DEFAULT_CONFIG
    X, y, n, p = dataset.X, dataset.y, dataset.n, dataset.p
    beta, u = np.zeros(p), np.zeros(n)
    work = np.zeros(0, dtype=np.intp)
    iterations = passes = 0
    grad = None
    while True:
        if grad is None:
            grad = X.T @ loss.d1(y, u) / n
            passes += 1
        res = penalty.residual(beta, grad)
        if res <= cfg.kkt_tol or iterations == cfg.max_iters:
            break
        grown = _grow(penalty.scores(beta, grad), work)
        if grown.size == work.size:
            break
        work = grown
        sub, cols = penalty.restrict(work)
        full = cols.size == p
        XW = X if full else X[:, cols]
        smooth = _Smooth(
            image=lambda b: XW @ b,
            value=lambda b, v: float(np.mean(loss.value(y, v))),
            grad=lambda b, v: XW.T @ loss.d1(y, v) / n,
            lipschitz=None, grad_products=1)
        inner, u, grad = _fista(
            smooth, sub, beta[cols], u,
            replace(cfg, max_iters=cfg.max_iters - iterations))
        beta = np.zeros(p)
        beta[cols] = inner.solution
        iterations += inner.iterations
        if full:
            passes += inner.passes
        else:
            grad = None
    return SolverResult(beta, float(res), iterations,
                        bool(res <= cfg.kkt_tol), passes)


def _grow(scores, work):
    """work, in ascending order, joined by the highest-scoring units
    outside it with a positive score (ties to the lower index), up to
    max(WS_INITIAL, WS_GROWTH * len(work)) units in all."""
    outside = np.ones(scores.size, dtype=bool)
    outside[work] = False
    candidates = np.flatnonzero(outside & (scores > 0.0))
    take = max(WS_INITIAL, WS_GROWTH * work.size) - work.size
    worst = candidates[np.argsort(-scores[candidates], kind="stable")[:take]]
    return np.union1d(work, worst)


def expansion_center(dataset, curvature):
    """Point z whose penalized projection under K is the expansion.

    z = beta_star - K^{-1} g, where g = -X'e/n is the average loss score at
    the dataset's beta_star and e its score noise: one pass over X, for
    either model. With identity curvature z is beta_star + X'e/n, which is
    what makes the expansion a pure prox evaluation in that case.
    """
    g = -(dataset.X.T @ dataset.noise) / dataset.n
    return dataset.beta_star - curvature.solve(g)


def fit_expansion(dataset, loss, curvature, beta_star, penalty, config=None):
    """Solve the quadratic surrogate 0.5 ||K^{1/2}(b - z)||^2 + h(b).

    The smooth part is seen through u = K (b - z), which is also its
    gradient, so each iteration costs one product with K. The centre z
    comes from expansion_center, which reads only the dataset: loss is not
    consulted, and a beta_star other than the dataset's, at which its score
    noise was drawn, is refused. Both stay parameters because the benchmark
    binds this function's arguments by name and reads both. passes counts
    the products with K plus z's one pass over X.
    The step is 1/curvature.eig_max, where eig_max >= lambda_max(K) is
    exact for covariances and for the logistic K on identity Sigma. The
    solve starts at z, so the identity-curvature case converges in one prox
    step.
    """
    cfg = config or DEFAULT_CONFIG
    if not np.array_equal(beta_star, dataset.beta_star):
        raise ValueError("the expansion centre needs the dataset's own "
                         "beta_star: its score noise was drawn at it")
    z = expansion_center(dataset, curvature)
    smooth = _Smooth(
        image=lambda b: curvature @ (b - z),
        value=lambda b, u: 0.5 * float((b - z) @ u),
        grad=lambda b, u: u,
        lipschitz=curvature.eig_max, grad_products=0)
    # the smooth part and its image vanish at z
    res = _fista(smooth, penalty, z.copy(), np.zeros(z.size), cfg)[0]
    return replace(res, passes=res.passes + 1)
