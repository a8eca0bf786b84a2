import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings, strategies as st

from oracles import dense_covariance, lasso, make_dataset, smooth_gradient
from penexp import model, solver
from penexp.cones import lasso_penalty_level
from penexp.losses import LOGISTIC, SQUARED, curvature_matrix
from penexp.penalties import GroupPenalty, L1BallConstraint


def linear_instance(n, p, s, seed, noise_sd=1.0, rho=0.0):
    cov = (model.CovarianceModel.identity(p) if rho == 0
           else model.CovarianceModel.ar1(p, rho))
    beta = model.flat_signal(p, s)
    ds = model.simulate(cov, beta, n, SQUARED, "gaussian", noise_sd, seed)
    return ds, cov


def test_config_validation():
    with pytest.raises(ValueError):
        solver.SolverConfig(max_iters=0)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="kkt_tol"):
            solver.SolverConfig(kkt_tol=bad)


def test_unpenalized_matches_least_squares():
    ds, _ = linear_instance(80, 10, 3, seed=2)
    counted, count = counting(ds)
    res = solver.fit_penalized(counted, SQUARED, lasso(0.0, ds.p),
                               solver.SolverConfig(kkt_tol=1e-11))
    ols, *_ = np.linalg.lstsq(ds.X, ds.y, rcond=None)
    assert res.converged
    assert np.abs(res.solution - ols).max() < 1e-8
    # the working set holds every column, so the inner products are full
    # passes too
    assert res.passes == count[0] > res.iterations


def test_large_penalty_gives_zero():
    ds, _ = linear_instance(60, 20, 3, seed=3)
    lam = np.abs(ds.X.T @ ds.y).max() / ds.n
    res = solver.fit_penalized(ds, SQUARED, lasso(lam * 1.0001, ds.p))
    assert res.converged
    assert np.count_nonzero(res.solution) == 0
    # zero satisfies the subgradient condition at this level
    grad = smooth_gradient(ds, SQUARED, np.zeros(20))
    assert lasso(lam * 1.0001, ds.p).residual(np.zeros(20), grad) == 0.0


def orthonormal_design(n, p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return q * np.sqrt(n)


def test_orthonormal_design_closed_form():
    n, p = 120, 40
    X = orthonormal_design(n, p, seed=4)
    cov = model.CovarianceModel.identity(p)
    beta = model.flat_signal(p, 5)
    ds = make_dataset(X, beta, SQUARED, 1.0, 4, covariance=cov)
    lam = 0.15
    res = solver.fit_penalized(ds, SQUARED, lasso(lam, p))
    from penexp.penalties import soft_threshold
    closed = soft_threshold(ds.X.T @ ds.y / n, lam)
    assert res.converged
    assert np.abs(res.solution - closed).max() < 1e-8


def test_expansion_prox_identity_isotropic():
    ds, cov = linear_instance(150, 60, 4, seed=5)
    K = curvature_matrix(SQUARED, cov, ds.beta_star)
    pen = lasso(0.2, ds.p)
    res = solver.fit_expansion(ds, SQUARED, K, ds.beta_star, pen)
    z = ds.beta_star + ds.X.T @ ds.noise / ds.n
    assert res.converged
    assert np.abs(res.solution - pen.prox(z, 1.0)).max() < 1e-10


def test_expansion_without_penalty_returns_center():
    ds, cov = linear_instance(90, 30, 3, seed=6, rho=0.5)
    K = curvature_matrix(SQUARED, cov, ds.beta_star)
    res = solver.fit_expansion(ds, SQUARED, K, ds.beta_star, lasso(0.0, ds.p))
    z = solver.expansion_center(ds, K, ds.beta_star)
    assert res.converged
    assert np.abs(res.solution - z).max() < 1e-9


def cd_expansion_oracle(K, z, lam, sweeps=30000):
    """Coordinate descent on 0.5 (b-z)' K (b-z) + lam ||b||_1."""
    p = z.size
    b = z.copy()
    Kz = K @ z
    for _ in range(sweeps):
        delta = 0.0
        for j in range(p):
            r_j = (K[j] @ b) - K[j, j] * b[j] - Kz[j]
            new = -r_j / K[j, j]
            new = np.sign(new) * max(abs(new) - lam / K[j, j], 0.0)
            delta = max(delta, abs(new - b[j]))
            b[j] = new
        if delta < 1e-15:
            break
    return b


def test_expansion_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(7)
    p = 6
    A = rng.normal(size=(p, p))
    Kmat = A @ A.T / p + 0.5 * np.eye(p)
    scale = np.sqrt(np.max(np.diag(Kmat))) * 1.0001
    Kmat = Kmat / scale ** 2  # diagonal <= 1: normalized features
    cov = dense_covariance(Kmat)
    beta = model.flat_signal(p, 2)
    ds = model.simulate(cov, beta, 40, SQUARED, "gaussian", 1.0, seed=7)
    K = curvature_matrix(SQUARED, cov, beta)
    lam = 0.3
    res = solver.fit_expansion(ds, SQUARED, K, beta, lasso(lam, p),
                               solver.SolverConfig(kkt_tol=1e-12))
    z = solver.expansion_center(ds, K, beta)
    oracle = cd_expansion_oracle(Kmat, z, lam)

    def objective(b):
        d = b - z
        return 0.5 * d @ Kmat @ d + lam * np.abs(b).sum()

    assert res.converged
    assert objective(res.solution) <= objective(oracle) + 1e-12
    assert np.abs(res.solution - oracle).max() < 1e-6


def test_smooth_gradient_squared_matrix_identity():
    ds, _ = linear_instance(50, 8, 2, seed=8)
    beta = np.linspace(-1, 1, 8)
    g = smooth_gradient(ds, SQUARED, beta)
    direct = ds.X.T @ (ds.X @ beta - ds.y) / ds.n
    assert np.abs(g - direct).max() < 1e-12


def test_smooth_gradient_finite_differences():
    cov = model.CovarianceModel.identity(5)
    ds = model.simulate(cov, model.flat_signal(5, 2, 0.4), 40, LOGISTIC,
                        "gaussian", 1.0, seed=9)
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(10):
        beta = rng.normal(scale=0.5, size=5)
        g = smooth_gradient(ds, LOGISTIC, beta)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            up = np.mean([LOGISTIC.value(ds.y[i], float(ds.X[i] @ (beta + e)))
                          for i in range(ds.n)])
            dn = np.mean([LOGISTIC.value(ds.y[i], float(ds.X[i] @ (beta - e)))
                          for i in range(ds.n)])
            fd = (up - dn) / (2 * h)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-7)


def test_solver_deterministic():
    ds, _ = linear_instance(100, 50, 3, seed=11)
    a = solver.fit_penalized(ds, SQUARED, lasso(0.1, ds.p))
    b = solver.fit_penalized(ds, SQUARED, lasso(0.1, ds.p))
    assert a.solution.tobytes() == b.solution.tobytes()
    assert a.iterations == b.iterations


def test_converged_implies_certified():
    ds, _ = linear_instance(120, 60, 4, seed=12, rho=0.4)
    for pen in (lasso(0.12, ds.p), L1BallConstraint(3.0),
                GroupPenalty(0.15, model.GroupStructure.contiguous(20, 3))):
        res = solver.fit_penalized(ds, SQUARED, pen,
                                   solver.SolverConfig(kkt_tol=1e-9))
        assert res.converged
        assert res.kkt_residual <= 1e-9
        # recheck independently of the solver's own bookkeeping
        grad = smooth_gradient(ds, SQUARED, res.solution)
        assert pen.residual(res.solution, grad) <= 1e-9


def test_logistic_fit_certified():
    cov = model.CovarianceModel.identity(30)
    ds = model.simulate(cov, model.flat_signal(30, 3, 0.3), 150, LOGISTIC,
                        "gaussian", 1.0, seed=13)
    res = solver.fit_penalized(ds, LOGISTIC, lasso(0.05, ds.p))
    assert res.converged
    grad = smooth_gradient(ds, LOGISTIC, res.solution)
    assert lasso(0.05, ds.p).residual(res.solution, grad) <= 1e-8


def test_constrained_solution_feasible():
    ds, _ = linear_instance(80, 40, 3, seed=14)
    R = 2.0
    res = solver.fit_penalized(ds, SQUARED, L1BallConstraint(R))
    assert res.converged
    assert np.abs(res.solution).sum() <= R + 1e-9
    assert L1BallConstraint(R).value(res.solution) == 0.0


def objective(ds, loss, penalty, b):
    """The penalized objective at b: the mean loss over ds plus the
    penalty."""
    return float(np.mean(loss.value(ds.y, ds.X @ b))) + penalty.value(b)


def test_objective_close_to_long_run():
    ds, _ = linear_instance(100, 80, 4, seed=15, rho=0.6)
    pen = lasso(0.08, ds.p)
    quick = solver.fit_penalized(ds, SQUARED, pen)
    long = solver.fit_penalized(
        ds, SQUARED, pen, solver.SolverConfig(kkt_tol=1e-13,
                                              max_iters=200000))
    quick, long = (objective(ds, SQUARED, pen, r.solution)
                   for r in (quick, long))
    assert quick <= long + 1e-10 * max(1.0, abs(long))


def test_non_convergence_reported():
    ds, _ = linear_instance(60, 30, 3, seed=16)
    res = solver.fit_penalized(ds, SQUARED, lasso(0.05, ds.p),
                               solver.SolverConfig(max_iters=2,
                                                   kkt_tol=1e-14))
    assert not res.converged
    assert res.iterations == 2
    assert res.kkt_residual > 1e-14


def counting_residual():
    """A patch of GroupPenalty.residual that counts its calls."""
    return mock.patch.object(GroupPenalty, "residual", autospec=True,
                             side_effect=GroupPenalty.residual)


def test_uncertified_budget_checks_kkt_once_per_check_point():
    # a 10-iteration budget is checked at iterations 1, 5 and 10, and the
    # last check is the reported residual: no second look at iterate 10
    cfg = solver.SolverConfig(max_iters=10, kkt_tol=1e-14)
    cov = model.CovarianceModel.ar1(40, 0.5)
    ds = model.simulate(cov, model.flat_signal(40, 3), 80, SQUARED,
                        "gaussian", 1.0, 3)
    pen = lasso(0.05, ds.p)
    with counting_residual() as residual:
        res = solver.fit_expansion(ds, SQUARED, cov, ds.beta_star, pen, cfg)
    assert residual.call_count == 3
    assert (res.iterations, res.converged) == (10, False)
    # the penalized fit adds its two outer checks, at 0 and after the solve
    ds, _ = linear_instance(80, 40, 3, seed=3)
    with counting_residual() as residual:
        res = solver.fit_penalized(ds, SQUARED, pen, cfg)
    assert residual.call_count == 5
    assert (res.iterations, res.converged) == (10, False)
    grad = smooth_gradient(ds, SQUARED, res.solution)
    assert res.kkt_residual == pytest.approx(
        pen.residual(res.solution, grad), rel=1e-9)


def test_expansion_step_from_top_eigenvalue():
    # K = (I + 9 vv')/10 with v orthogonal to the all-ones vector:
    # lambda_max is 1, but a power iteration started at the all-ones vector
    # stays in the eigenvalue-0.1 space and returns 0.1, a step ten times
    # too long
    p = 20
    v = np.random.default_rng(17).normal(size=p)
    v -= v.mean()
    v /= np.linalg.norm(v)
    Kmat = (np.eye(p) + 9.0 * np.outer(v, v)) / 10.0
    K = dense_covariance(Kmat)
    assert K.eig_max == pytest.approx(1.0, rel=1e-12)
    ds, _ = linear_instance(80, p, 3, seed=17)
    pen = lasso(0.05, p)
    res = solver.fit_expansion(ds, SQUARED, K, ds.beta_star, pen)
    z = solver.expansion_center(ds, K, ds.beta_star)
    assert res.converged
    assert np.all(np.isfinite(res.solution))
    assert pen.residual(res.solution, Kmat @ (res.solution - z)) <= 1e-8


def test_expansion_center_sign_convention():
    # squared loss, identity covariance: the center is truth plus the
    # noise average, with a plus sign
    ds, cov = linear_instance(200, 20, 3, seed=18, noise_sd=0.5)
    K = curvature_matrix(SQUARED, cov, ds.beta_star)
    z = solver.expansion_center(ds, K, ds.beta_star)
    expected = ds.beta_star + ds.X.T @ ds.noise / ds.n
    assert np.abs(z - expected).max() < 1e-12


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.3])
def test_expansion_center_from_the_score_noise(rho):
    # the centre from the stored score noise is bit for bit the one from the
    # logistic score evaluated over X beta*
    p = 30
    cov = (model.CovarianceModel.identity(p) if rho == 0
           else model.CovarianceModel.ar1(p, rho))
    beta = model.flat_signal(p, 3, 0.4)
    ds = model.simulate(cov, beta, 150, LOGISTIC, "gaussian", 1.0, seed=27)
    K = curvature_matrix(LOGISTIC, cov, beta)
    z = solver.expansion_center(ds, K, beta)
    expected = beta - K.solve(smooth_gradient(ds, LOGISTIC, beta))
    assert z.tobytes() == expected.tobytes()


def test_fit_expansion_refuses_a_foreign_beta_star():
    # the stored noise was drawn at the dataset's own beta*
    ds, cov = linear_instance(60, 20, 3, seed=28)
    with pytest.raises(ValueError, match="dataset's own beta_star"):
        solver.fit_expansion(ds, SQUARED, cov, np.zeros(ds.p),
                             lasso(0.1, ds.p))


def test_expansion_general_k_kkt():
    cov = model.CovarianceModel.ar1(25, 0.5)
    beta = model.flat_signal(25, 3, 0.4)
    ds = model.simulate(cov, beta, 120, LOGISTIC, "gaussian", 1.0, seed=19)
    K = curvature_matrix(LOGISTIC, cov, beta)
    pen = lasso(0.04, ds.p)
    res = solver.fit_expansion(ds, LOGISTIC, K, beta, pen)
    assert res.converged
    # KKT of the surrogate: gradient is K (b - z)
    z = solver.expansion_center(ds, K, beta)
    grad = K.matrix @ (res.solution - z)
    assert pen.residual(res.solution, grad) <= 1e-8


def plain_fista(ds, loss, penalty, cfg):
    """The FISTA loop run once on all columns of X, with no working set."""
    X, y, n = ds.X, ds.y, ds.n
    smooth = solver._Smooth(
        image=lambda b: X @ b,
        value=lambda b, u: float(np.mean(loss.value(y, u))),
        grad=lambda b, u: X.T @ loss.d1(y, u) / n,
        lipschitz=None, grad_products=1)
    return solver._fista(smooth, penalty, np.zeros(ds.p), np.zeros(n), cfg,
                         time.perf_counter())[0]


@st.composite
def _working_set_case(draw):
    loss = draw(st.sampled_from([SQUARED, LOGISTIC]))
    kind = draw(st.sampled_from(["l1", "ball", "group"]))
    d = draw(st.integers(1, 3)) if kind == "group" else 1
    M = draw(st.integers(2, 30))
    n = draw(st.integers(10, 60))
    seed = draw(st.integers(0, 2 ** 20))
    ws_initial = draw(st.integers(1, 4))
    scale = draw(st.floats(0.05, 1.0))
    return loss, kind, d, M, n, seed, ws_initial, scale


# a fixed seed: editing the test does not redraw its examples
@hypothesis.seed(int("3332849933287289705306557235369809736477"
                     "9122285558145777150877889382057743028292"
                     "315233072276912354367636414434977977"))
@settings(max_examples=60, deadline=None)
@given(_working_set_case())
def test_working_set_matches_plain_fista(case):
    loss, kind, d, M, n, seed, ws_initial, scale = case
    p = M * d
    cov = model.CovarianceModel.identity(p)
    beta = model.flat_signal(p, min(3, p - 1), 0.4)
    ds = model.simulate(cov, beta, n, loss, "gaussian", 1.0, seed)
    # scale sets the penalty from nearly none to nearly all-zero solutions
    g0 = np.abs(smooth_gradient(ds, loss, np.zeros(p)))
    if kind == "l1":
        pen = lasso(scale * g0.max(), p)
    elif kind == "ball":
        pen = L1BallConstraint(2.0 * scale)
    else:
        pen = GroupPenalty(scale * g0.max(),
                           model.GroupStructure.contiguous(M, d))
    cfg = solver.SolverConfig(kkt_tol=1e-10, max_iters=200000)
    with mock.patch.object(solver, "WS_INITIAL", ws_initial):
        res = solver.fit_penalized(ds, loss, pen, cfg)
    full = plain_fista(ds, loss, pen, cfg)
    assert res.converged and full.converged
    grad = smooth_gradient(ds, loss, res.solution)
    assert pen.residual(res.solution, grad) <= 1e-10
    got, want = (objective(ds, loss, pen, r.solution) for r in (res, full))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_working_set_admits_coordinate_outside_first_set():
    # y loads on the first two columns; with a first working set of one
    # unit only the stronger column 0 is in it, and column 1 must enter
    n, p = 200, 30
    cov = model.CovarianceModel.identity(p)
    beta = np.zeros(p)
    beta[:2] = [2.0, 1.0]
    ds = model.simulate(cov, beta, n, SQUARED, "gaussian", 0.5, seed=21)
    pen = lasso(0.1, p)
    g0 = np.abs(smooth_gradient(ds, SQUARED, np.zeros(p)))
    assert int(np.argmax(g0)) == 0
    with mock.patch.object(solver, "WS_INITIAL", 1):
        res = solver.fit_penalized(ds, SQUARED, pen)
    assert res.converged
    assert res.solution[1] != 0.0
    assert res.passes >= 3  # one full gradient per round, three rounds
    grad = smooth_gradient(ds, SQUARED, res.solution)
    assert pen.residual(res.solution, grad) <= 1e-8


class _NeverCertified(GroupPenalty):
    """The lasso with a residual on the full vector that never meets any
    tolerance; its restriction to a working set is a plain GroupPenalty,
    so every inner solve converges."""

    def residual(self, beta, grad):
        return 1.0


def test_working_set_that_cannot_grow_ends_uncertified():
    ds, _ = linear_instance(80, 40, 3, seed=22)
    res = solver.fit_penalized(ds, SQUARED, _NeverCertified(
        0.1, model.GroupStructure.contiguous(ds.p, 1)))
    assert not res.converged
    assert res.kkt_residual == 1.0
    # once an inner solve leaves no unit outside the working set with a
    # positive score, the loop stops instead of re-solving the same set
    # until max_iters runs out, one full pass per round
    assert res.passes <= 5
    assert res.iterations < 1000
    grad = smooth_gradient(ds, SQUARED, res.solution)
    assert lasso(0.1, ds.p).residual(res.solution, grad) <= 1e-8


class CountingDesign(np.ndarray):
    """A design matrix that counts the matrix products made with all of its
    columns (X @ b and X.T @ r), apart from the solver's bookkeeping."""

    def __array_finalize__(self, obj):
        self.count = getattr(obj, "count", None)
        self.full_size = getattr(obj, "full_size", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and any(
                isinstance(a, CountingDesign) and a.size == a.full_size
                for a in inputs):
            self.count[0] += 1
        plain = [a.view(np.ndarray) if isinstance(a, CountingDesign) else a
                 for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def counting(ds):
    X = ds.X.view(CountingDesign)
    X.count, X.full_size = [0], ds.X.size
    return replace(ds, X=X), X.count


@pytest.mark.parametrize("kind", ["l1", "ball"])
def test_rates_shaped_fit_passes_over_x(kind):
    # one task of the rates experiment at n = 400, p = 2n, s = 5
    n, p, s = 400, 800, 5
    ds, _ = linear_instance(n, p, s, seed=23)
    if kind == "l1":
        pen = lasso(lasso_penalty_level(SQUARED.penalty_scale(ds), p, s, n,
                                        0.5), p)
    else:
        pen = L1BallConstraint(float(np.abs(ds.beta_star).sum()))
    counted, count = counting(ds)
    res = solver.fit_penalized(counted, SQUARED, pen)
    assert res.converged
    assert res.passes == count[0]
    assert res.passes <= 5
    plain = solver.fit_penalized(ds, SQUARED, pen)
    assert plain.solution.tobytes() == res.solution.tobytes()


@pytest.mark.parametrize("kind", ["l1", "ball"])
def test_full_working_set_reuses_inner_gradient(kind):
    # at p <= WS_INITIAL, with every coordinate violating at 0, the first
    # working set holds every column, so the fit is one full gradient at 0
    # and one inner solve whose last KKT check made the full gradient at
    # the solution
    n, p, s = 200, 60, 3
    ds, _ = linear_instance(n, p, s, seed=24)
    if kind == "l1":
        g0 = smooth_gradient(ds, SQUARED, np.zeros(p))
        pen = lasso(0.5 * np.abs(g0).min(), p)
    else:
        pen = L1BallConstraint(float(np.abs(ds.beta_star).sum()))
    fista, inner = solver._fista, []

    def recording_fista(*args):
        out = fista(*args)
        inner.append(out[0])
        return out

    counted, count = counting(ds)
    with mock.patch.object(solver, "_fista", recording_fista):
        res = solver.fit_penalized(counted, SQUARED, pen)
    assert res.converged
    assert len(inner) == 1 and inner[0].solution.size == p
    assert res.iterations == inner[0].iterations
    assert res.passes == 1 + inner[0].passes == count[0]
    grad = smooth_gradient(ds, SQUARED, res.solution)
    assert res.kkt_residual == pen.residual(res.solution, grad)
