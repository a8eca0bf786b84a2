"""Independent oracles that only the tests use.

Each one recomputes a quantity of the analysis by another route (adaptive
quadrature, a Monte Carlo average, a grid search) so the tests can check
the package against it, or measures a property of the losses or cones that
the pipeline itself never needs, such as the Gaussian complexity of the
error cones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.integrate import quad

from penexp.cones import GroupCone
from penexp.model import (CovarianceModel, Dataset, GroupStructure,
                          draw_rows, stream_rng)
from penexp.penalties import GroupPenalty, soft_threshold


def smooth_gradient(dataset, loss, beta):
    """Gradient of the empirical loss average at beta, from the labels: the
    loss's score evaluated over X b."""
    u = dataset.X @ np.asarray(beta, dtype=float)
    return dataset.X.T @ loss.d1(dataset.y, u) / dataset.n


def make_dataset(X, beta_star, loss, noise_sd, seed, covariance=None,
                 design_kind="gaussian"):
    """What model.simulate makes, for a design X of the test's own or a
    response seed other than the design's: loss's responses to X beta_star,
    drawn from stream 1 of seed."""
    y, noise = loss.responses(X @ beta_star, noise_sd, stream_rng(seed, 1))
    return Dataset(X, y, loss.model, design_kind, noise, beta_star,
                   covariance)


def lasso(level, p):
    """The penalized lasso level * ||b||_1 on R^p: the group penalty with
    p groups of one coordinate."""
    return GroupPenalty(level, GroupStructure(p, 1))


def lasso_cone(k, p):
    """{u in R^p : ||u||_1 <= sqrt(k) ||u||}, the cone over singletons."""
    return GroupCone(np.sqrt(float(k)), GroupStructure(p, 1))


def curvature_lower_bound(loss, tau):
    """Smallest value of l'' over |u| <= tau (lower curvature function).

    Both losses have an l'' that is even in u and non-increasing in |u|, so
    the smallest value is the one at u = tau.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return float(loss.d2(0.0, float(tau)))


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    worst_quotient: float


def stability_ratio_check(loss, s_values, t_values, max_gap=None):
    """Check sup l''(y,s)/l''(y,t) <= exp(3|s-t|) over a grid of pairs.

    Returns the worst quotient ratio/exp(3|s-t|); the bound holds when it is
    at most 1. Pairs with |s-t| > max_gap are skipped when max_gap is given.
    """
    s_values = np.asarray(s_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    worst = 0.0
    # Row blocks keep the pair grid from materializing all at once.
    for start in range(0, s_values.size, 256):
        s_blk = s_values[start:start + 256][:, None]
        gap = np.abs(s_blk - t_values[None, :])
        ratio = (loss.d2(0.0, s_blk) / loss.d2(0.0, t_values[None, :])
                 / np.exp(3.0 * gap))
        if max_gap is not None:
            ratio = np.where(gap <= max_gap, ratio, 0.0)
        worst = max(worst, float(ratio.max()))
    return StabilityReport(worst <= 1.0 + 1e-12, worst)


def curvature_matrix_mc(loss, cov, beta_star, n_samples, seed,
                        design_kind="gaussian"):
    """Sample-average curvature matrix, an approximate Monte Carlo oracle.

    Draws its own design of n_samples rows; the average n^{-1} sum l''(x'b)
    x x' needs no responses because l'' is response-free for both losses.
    Any design kind works, rademacher included.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    rng = stream_rng(seed, 2)
    acc = np.zeros((cov.p, cov.p))
    done = 0
    chunk = max(1, int(2e6) // max(cov.p, 1))
    while done < n_samples:
        m = min(chunk, int(n_samples) - done)
        X = draw_rows(cov, m, design_kind, rng)
        w = loss.d2(0.0, X @ beta_star)
        acc += (X * w[:, None]).T @ X
        done += m
    return dense_covariance(acc / float(n_samples))


@dataclass(frozen=True, eq=False)
class DenseCovariance(CovarianceModel):
    """A dense symmetric positive-definite matrix: products, solves and
    submatrices read the stored matrix; eig_min, eig_max (which a rank-one
    update on it reads too) and the square root read eigh's eigenpairs
    through the CovarianceModel fields w and R = B B', B = V diag(w^{1/4})."""

    dense: np.ndarray | None = field(default=None, repr=False)

    @property
    def matrix(self):
        return self.dense

    def principal(self, idx):
        return self.dense[np.ix_(idx, idx)]

    def __matmul__(self, u):
        return self.dense @ np.asarray(u, dtype=float)

    def solve(self, u):
        return np.linalg.solve(self.dense, np.asarray(u, dtype=float))


def dense_covariance(matrix):
    """A DenseCovariance of a symmetric positive-definite matrix."""
    matrix = 0.5 * (matrix + matrix.T)
    w, vecs = np.linalg.eigh(matrix)
    vecs *= w ** 0.25
    matrix.setflags(write=False)
    return DenseCovariance("dense", matrix.shape[0], 0.0, w,
                           vecs @ vecs.T, dense=matrix)


def logistic_curvature_dense(cov, beta_star):
    """The logistic K = m0 Sigma + c q q' as a dense array, with q = Sigma
    beta*, v^2 = beta*' q, m0 = E sig'(vZ) and c = (E sig'(vZ) Z^2 - m0)/v^2,
    both expectations by adaptive quadrature (scipy's quad, not the
    package's trapezoid rule)."""
    sigma = cov.matrix
    q = sigma @ beta_star
    v = float(np.sqrt(beta_star @ q))

    def expect(f):
        return quad(lambda z: f(z) * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi),
                    -np.inf, np.inf, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    def d2(z):
        e = np.exp(-abs(v * z))
        return e / (1.0 + e) ** 2

    m0 = expect(d2)
    a2 = expect(lambda z: d2(z) * z * z)
    return m0 * sigma + ((a2 - m0) / (v * v)) * np.outer(q, q)


def logistic_moments_mpmath(v):
    """(E sig'(vZ), E sig'(vZ) Z^2) for v > 0 by mpmath's adaptive
    quadrature at 40 digits, with the range split where the peak of
    sig'(vz) (width 1/v) ends, as floats."""
    with mpmath.workdps(40):
        v = mpmath.mpf(v)

        def f(z):
            e = mpmath.exp(-abs(v * z))
            return e / (1 + e) ** 2 * mpmath.npdf(z)

        cuts = [-mpmath.inf, -1 / v, 0, 1 / v, mpmath.inf]
        return (float(mpmath.quad(f, cuts)),
                float(mpmath.quad(lambda z: f(z) * z * z, cuts)))


def prox_risk_quadrature(penalty, beta_star, noise_scale, n):
    """Coordinatewise adaptive-quadrature version of the lasso's prox risk.

    Exact (to quadrature tolerance) for the lasso, the group penalty on
    groups of one coordinate, whose prox separates over coordinates; used as
    an independent oracle against GroupPenalty.prox_risk.
    """
    if not (isinstance(penalty, GroupPenalty) and penalty.groups.d == 1):
        raise ValueError("quadrature path covers the l1 penalty only")
    beta_star = np.asarray(beta_star, dtype=float)
    tau = float(noise_scale) / np.sqrt(n)
    lam = penalty.level
    if tau == 0.0:
        d = beta_star - soft_threshold(beta_star, lam)
        return float(d @ d)
    sq2pi = np.sqrt(2.0 * np.pi)
    total = 0.0
    for b in beta_star:
        def integrand(z, b=b):
            w = soft_threshold(np.array([b + tau * z]), lam)[0]
            d = b - w
            return d * d * np.exp(-0.5 * z * z) / sq2pi

        # Smooth pieces between the soft-threshold kinks in z and z = 0,
        # where the Gaussian's mass is: a semi-infinite piece that starts
        # at a kink far from 0 would miss it.
        cuts = [-np.inf] + sorted({(-lam - b) / tau, (lam - b) / tau, 0.0}) \
            + [np.inf]
        total += sum(quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
                     for lo, hi in zip(cuts, cuts[1:]))
    return float(total)


def lasso_risk_erfc(level, beta_star, noise_scale, n):
    """The lasso's prox risk in closed form, coordinate by coordinate.

    With tau = noise_scale/sqrt(n), m = |b|/tau and t = level/tau, one
    coordinate's risk is tau^2 [m^2 + (1 + t^2 - m^2) U - (t - m) phi(t + m)
    - (t + m) phi(t - m)], U = Phi(m - t) + Phi(-m - t), written with erfc.
    """
    tau = float(noise_scale) / np.sqrt(n)
    t = level / tau
    total = 0.0
    for b in np.asarray(beta_star, dtype=float):
        m = abs(b) / tau
        u = 0.5 * (math.erfc((t - m) / math.sqrt(2.0))
                   + math.erfc((t + m) / math.sqrt(2.0)))
        phi = [math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
               for z in (t + m, t - m)]
        total += m * m + (1.0 + t * t - m * m) * u - (t - m) * phi[0] \
            - (t + m) * phi[1]
    return tau * tau * total


def block_risk_mpmath(m, t, d, digits=40):
    """Mean of block soft thresholding's Stein unbiased risk estimate, in
    units of tau^2, by mpmath quadrature at the given number of digits.

    The estimate is V - d for V = R^2 <= t^2 and t^2 + d - 2(d - 1) t/R
    beyond, integrated against the noncentral chi^2_d(m^2) density of V,
    with extra cut points around the density's bulk.
    """
    with mpmath.workdps(digits):
        m, t, d = mpmath.mpf(m), mpmath.mpf(t), mpmath.mpf(d)
        lam, t2 = m * m, t * t
        if lam == 0:
            def pdf(v):
                return v ** (d / 2 - 1) * mpmath.exp(-v / 2) / (
                    2 ** (d / 2) * mpmath.gamma(d / 2))
        else:
            def pdf(v):
                return mpmath.exp(-(v + lam) / 2) / 2 * \
                    (v / lam) ** (d / 4 - mpmath.mpf(1) / 2) * \
                    mpmath.besseli(d / 2 - 1, mpmath.sqrt(lam * v))
        mean, sd = lam + d, mpmath.sqrt(2 * (d + 2 * lam))
        cuts = sorted({mpmath.mpf(0), t2} | {max(mpmath.mpf(0), mean + c * sd)
                                              for c in (-12, -4, 0, 4, 12)})
        below = [c for c in cuts if c <= t2]
        above = [c for c in cuts if c >= t2] + [mpmath.inf]
        killed = mpmath.quad(lambda v: (v - d) * pdf(v), below) \
            if len(below) > 1 else 0
        kept = mpmath.quad(
            lambda v: (t2 + d - 2 * (d - 1) * t / mpmath.sqrt(v)) * pdf(v),
            above)
        return float(killed + kept)


def prox_risk_unchunked(penalty, beta_star, noise_scale, n, n_draws, seed):
    """A Monte Carlo prox risk and its standard error from one (n_draws, p)
    draw of stream purpose 4 of seed, the stream L1BallConstraint.prox_risk
    draws in chunks, with the arithmetic written out plainly."""
    beta_star = np.asarray(beta_star, dtype=float)
    tau = float(noise_scale) / np.sqrt(n)
    Z = stream_rng(seed, 4).standard_normal((int(n_draws), beta_star.size))
    pts = beta_star[None, :] + tau * Z
    diff = beta_star[None, :] - penalty.prox(pts)
    vals = (diff * diff).sum(axis=1)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n_draws))


def curvature_fluctuations(dataset, loss, curvature, beta_star, directions):
    """Sample-vs-population curvature comparisons at given directions.

    For each direction u (and pair u, v), with Khat the sample curvature
    matrix at beta_star:
      quad_err[i]     |u' Khat u / ||u||_K^2 - 1|
      cross_err[i][j] |u' (Khat - K) v| / (||u||_K ||v||_K), exactly symmetric
      cubic_moment[i] n^{-1} sum |X_i'u|^3 / ||u||_K^3
    Pointwise evaluations only; no cone suprema are attempted.
    """
    D = np.column_stack([np.asarray(u, dtype=float) for u in directions])
    w = loss.d2(dataset.y, dataset.X @ np.asarray(beta_star, dtype=float))
    U = dataset.X @ D
    M = (U * w[:, None]).T @ U / dataset.n
    KD = curvature @ D
    C = D.T @ KD
    norms = np.sqrt(np.diag(C))
    if np.any(norms <= 0.0):
        raise ValueError("directions must be nonzero")
    m = D.shape[1]
    quad_err = [abs(M[i, i] / (norms[i] * norms[i]) - 1.0) for i in range(m)]
    cross = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            val = abs(M[i, j] - C[i, j]) / (norms[i] * norms[j])
            cross[i][j] = cross[j][i] = float(val)
    cubic = [float(np.mean(np.abs(U[:, i]) ** 3) / norms[i] ** 3)
             for i in range(m)]
    return {"quad_err": [float(q) for q in quad_err],
            "cross_err": cross,
            "cubic_moment": cubic}


def taylor_remainder_gap(dataset, loss, beta, beta_star):
    """Worst violation of the averaged-curvature increment bound.

    For each observation, a_i = integral over t in [0,1] of
    l''(y_i, u_i + t d_i) - l''(y_i, u_i) with u_i the index at beta_star
    and d_i the index increment to beta; the bound is |a_i| <= B |d_i| with
    B the second-derivative Lipschitz constant. Returns max_i |a_i| - B|d_i|,
    which should be <= 0 up to quadrature error.
    """
    if loss.d2_lipschitz == 0.0:
        return 0.0  # constant second derivative, all increments vanish
    u = dataset.X @ np.asarray(beta_star, dtype=float)
    d = dataset.X @ np.asarray(beta, dtype=float) - u
    worst = -np.inf
    for i in range(dataset.n):
        base = float(loss.d2(dataset.y[i], u[i]))

        def integrand(t, i=i, base=base):
            return float(loss.d2(dataset.y[i], u[i] + t * d[i])) - base

        a_i = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)[0]
        worst = max(worst, abs(a_i) - loss.d2_lipschitz * abs(d[i]))
    return float(worst)


def empirical_curvature_ratio(dataset, loss, curvature, beta_star, u):
    """Second-order remainder of the empirical loss over ||u||_K^2.

    Returns (ratio, in_unit_ball); the flag records whether ||u||_K <= 1,
    the regime the lower-curvature comparisons are stated for. The value is
    computed regardless.
    """
    u = np.asarray(u, dtype=float)
    nk = curvature.norm(u)
    if nk == 0.0:
        raise ValueError("direction u must be nonzero")
    beta_star = np.asarray(beta_star, dtype=float)
    f0 = float(np.mean(loss.value(dataset.y, dataset.X @ beta_star)))
    f1 = float(np.mean(loss.value(dataset.y, dataset.X @ (beta_star + u))))
    lin = float(smooth_gradient(dataset, loss, beta_star) @ u)
    return (f1 - f0 - lin) / (nk * nk), bool(nk <= 1.0 + 1e-12)


def _cone_profile(cone, G):
    """Per-draw magnitudes and l1 radius of a cone, for each row g of G.

    The cone's supremum is the lasso cone's over group norms, so it reduces
    to _sup_per_draw: the group norms of g with the cone's radius (|g| with
    radius sqrt(k) for the lasso cone, whose groups are singletons).
    """
    return cone.groups.norms(G), cone.radius


def _sup_per_draw(A, sqrt_k):
    """Exact sup of <g, u> over unit u with ||u||_1 <= sqrt_k, per row of |g|.

    The maximizer is proportional to a soft thresholding of g; the threshold
    solving ||u||_1/||u|| = sqrt_k is found by bisection (threshold 0 when the
    unconstrained optimum is already feasible).
    """
    l1 = A.sum(axis=1)
    l2 = np.sqrt((A * A).sum(axis=1))
    sup = l2.copy()
    need = l1 > sqrt_k * l2
    if need.any():
        sub = A[need]
        lo = np.zeros(sub.shape[0])
        hi = sub.max(axis=1)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            S = np.maximum(sub - mid[:, None], 0.0)
            f = S.sum(axis=1) - sqrt_k * np.sqrt((S * S).sum(axis=1))
            too_small = f > 0.0
            lo = np.where(too_small, mid, lo)
            hi = np.where(too_small, hi, mid)
        t = 0.5 * (lo + hi)
        S = np.maximum(sub - t[:, None], 0.0)
        sup[need] = (sub * S).sum(axis=1) / np.sqrt((S * S).sum(axis=1))
    return sup


def complexity_estimate(cone, cov, n_draws, seed):
    """Monte Carlo Gaussian complexity of a cone, with its standard error.

    Each draw's supremum is solved exactly, which needs the identity
    covariance; use a complexity bound otherwise.
    """
    n_draws = int(n_draws)
    if n_draws < 2:
        raise ValueError("need at least 2 draws")
    if not cov.is_identity:
        raise ValueError("per-draw maximization is exact only under the "
                         "identity covariance; use a complexity bound")
    rng = stream_rng(seed, 3)
    sups = np.empty(n_draws)
    done = 0
    chunk = 512
    while done < n_draws:
        m = min(chunk, n_draws - done)
        A, radius = _cone_profile(cone, rng.standard_normal((m, cov.p)))
        sups[done:done + m] = _sup_per_draw(A, radius)
        done += m
    est = float(np.mean(sups))
    se = float(np.std(sups, ddof=1) / np.sqrt(n_draws))
    return est, se


def lasso_complexity_bound(k, cov):
    """Certified upper bound sqrt(k log(2p/k)) / phi on the Gaussian
    complexity of the lasso cone with parameter k, where the restricted
    eigenvalue phi = sqrt(eig_min of Sigma) bounds every cone."""
    if not 0 < k <= 2 * cov.p:
        raise ValueError("cone parameter exceeds dimension range")
    return float(np.sqrt(k * np.log(2.0 * cov.p / k)) / np.sqrt(cov.eig_min))


def group_complexity_bound(s, groups, cov):
    """Certified upper bound sqrt(s d + s log(M/s)) / phi on the Gaussian
    complexity of the group cone of s active groups."""
    M, d = groups.M, groups.d
    if not M > s:
        raise ValueError("need more groups than the sparsity level")
    return float(np.sqrt(s * d + s * np.log(M / s)) / np.sqrt(cov.eig_min))
