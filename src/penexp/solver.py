"""Accelerated proximal-gradient solvers for the two estimation problems.

fit_penalized minimizes the empirical average of the loss plus a penalty.
fit_expansion minimizes the quadratic surrogate built at the ground truth
against the population curvature matrix; its minimizer is the first-order
expansion of the penalized estimator. Both run one working-set loop: FISTA
on a set of the penalty's units, grown until the full-gradient KKT residual
certifies the whole vector, over a smooth part seen through an affine image
of the iterate (X_W b for the fit, K_WW b - (Kz)_W for the surrogate). The
fit finds its step by backtracking; the surrogate steps by 1/eig_max, the
curvature's certified bound on lambda_max(K), exact for covariances and for
the logistic K on identity Sigma. Both are deterministic: identical inputs
produce bit-identical results. No solve reads a clock; the caller times it.
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
# Units (coordinates, or groups) in the first working set of either solve,
# and the factor by which a working set may grow per outer round.
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


def _working_set(penalty, grad, u, gradient, inner, cfg):
    """Minimize a smooth part plus penalty by working-set FISTA from 0.

    grad is the full gradient at 0 (one pass) and u the image there. A
    round stops if the penalty's residual on the full gradient is within
    kkt_tol. Otherwise the working set W of the penalty's units grows by
    the worst violators (_grow), and FISTA runs, warm-started, on
    inner(cols, u, grad): the smooth part on W's coordinates cols and the
    iterate's image under it. The next full gradient is gradient(beta, u),
    one pass, at the solution beta of inner image u. The loop ends
    uncertified when the max_iters budget, shared by all inner solves, is
    spent or when no unit outside W has a positive score. Once W covers all
    coordinates, inner products count as passes, and the inner solve's last
    gradient is the full one, which the next round takes.
    """
    beta = np.zeros(grad.size)
    work = np.zeros(0, dtype=np.intp)
    iterations, passes = 0, 1
    while True:
        if grad is None:
            grad = gradient(beta, u)
            passes += 1
        res = penalty.residual(beta, grad)
        if res <= cfg.kkt_tol or iterations == cfg.max_iters:
            break
        grown = _grow(penalty.scores(beta, grad), work)
        if grown.size == work.size:
            break
        work = grown
        sub, cols = penalty.restrict(work)
        smooth, u = inner(cols, u, grad)
        solved, u, grad = _fista(
            smooth, sub, beta[cols], u,
            replace(cfg, max_iters=cfg.max_iters - iterations))
        beta = np.zeros(beta.size)
        beta[cols] = solved.solution
        iterations += solved.iterations
        if cols.size == beta.size:
            passes += solved.passes
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


def fit_penalized(dataset, loss, penalty, config=None):
    """Solve the penalized problem by working-set FISTA with backtracking.
    The loss average is seen through X[:, W] b, which is X beta, since beta
    is zero off W, so that image carries over between rounds."""
    X, y, n = dataset.X, dataset.y, dataset.n

    def gradient(beta, u):
        return X.T @ loss.d1(y, u) / n

    def inner(cols, u, grad):
        XW = X if cols.size == X.shape[1] else X[:, cols]
        return _Smooth(
            image=lambda b: XW @ b,
            value=lambda b, v: float(np.mean(loss.value(y, v))),
            grad=lambda b, v: XW.T @ loss.d1(y, v) / n,
            lipschitz=None, grad_products=1), u

    u = np.zeros(n)
    return _working_set(penalty, gradient(None, u), u, gradient, inner,
                        config or DEFAULT_CONFIG)


def expansion_center(dataset, curvature):
    """Point z whose penalized projection under K is the expansion.

    z = beta_star - K^{-1} g, where g = -X'e/n is the average loss score at
    the dataset's beta_star and e its score noise: one pass over X, for
    either model. With identity curvature z is beta_star + X'e/n, and the
    expansion is prox(z).
    """
    g = -(dataset.X.T @ dataset.noise) / dataset.n
    return dataset.beta_star - curvature.solve(g)


def fit_expansion(dataset, loss, curvature, beta_star, penalty, config=None):
    """Solve the quadratic surrogate 0.5 ||K^{1/2}(b - z)||^2 + h(b).

    It runs fit_penalized's working-set loop. For b zero off W the gradient
    K b - Kz needs only K_WW = curvature.principal(W) and (Kz)_W: the inner
    image K_WW b - (Kz)_W is that gradient, at the step 1/curvature.eig_max
    <= 1/lambda_max(K_WW) (interlacing), and a round makes one product with
    K. z comes from expansion_center, which reads only the dataset, so loss
    is unread and a beta_star other than the dataset's (its score noise was
    drawn at it) is refused; both stay because the benchmark binds them by
    name. passes counts the products with K, Kz among them, and z's pass
    over X.
    """
    if not np.array_equal(beta_star, dataset.beta_star):
        raise ValueError("the expansion centre needs the dataset's own "
                         "beta_star: its score noise was drawn at it")
    Kz = curvature @ expansion_center(dataset, curvature)

    def gradient(beta, u):
        return curvature @ beta - Kz

    def inner(cols, u, grad):
        KW, c = curvature.principal(cols), Kz[cols]
        return _Smooth(
            image=lambda b: KW @ b - c,
            value=lambda b, v: 0.5 * float(b @ (v - c)),
            grad=lambda b, v: v,
            lipschitz=curvature.eig_max, grad_products=0), grad[cols]

    res = _working_set(penalty, -Kz, None, gradient, inner,
                       config or DEFAULT_CONFIG)
    return replace(res, passes=res.passes + 1)
