import numpy as np
import pytest

from penexp import model, solver
from penexp.losses import LOGISTIC, SQUARED, curvature_matrix
from penexp.penalties import (GroupPenalty, L1BallConstraint, L1Penalty,
                              penalty_value, prox, subdifferential_residual)


def linear_instance(n, p, s, seed, noise_sd=1.0, rho=0.0):
    cov = (model.CovarianceModel.identity(p) if rho == 0
           else model.CovarianceModel.ar1(p, rho))
    X = model.generate_design(cov, n, "gaussian", seed)
    beta = model.flat_signal(p, s)
    ds = model.generate_linear(X, beta, noise_sd, seed, covariance=cov)
    return ds, cov


def test_config_validation():
    with pytest.raises(ValueError):
        solver.SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        solver.SolverConfig(kkt_tol=0.0)


def test_unpenalized_matches_least_squares():
    ds, _ = linear_instance(80, 10, 3, seed=2)
    res = solver.fit_penalized(ds, SQUARED, L1Penalty(0.0),
                               solver.SolverConfig(kkt_tol=1e-11))
    ols, *_ = np.linalg.lstsq(ds.X, ds.y, rcond=None)
    assert res.converged
    assert np.abs(res.solution - ols).max() < 1e-8


def test_large_penalty_gives_zero():
    ds, _ = linear_instance(60, 20, 3, seed=3)
    lam = np.abs(ds.X.T @ ds.y).max() / ds.n
    res = solver.fit_penalized(ds, SQUARED, L1Penalty(lam * 1.0001))
    assert res.converged
    assert np.count_nonzero(res.solution) == 0
    # zero satisfies the subgradient condition at this level
    grad = solver.smooth_gradient(ds, SQUARED, np.zeros(20))
    assert subdifferential_residual(L1Penalty(lam * 1.0001),
                                    np.zeros(20), grad) == 0.0


def orthonormal_design(n, p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return q * np.sqrt(n)


def test_orthonormal_design_closed_form():
    n, p = 120, 40
    X = orthonormal_design(n, p, seed=4)
    cov = model.CovarianceModel.identity(p)
    beta = model.flat_signal(p, 5)
    ds = model.generate_linear(X, beta, 1.0, seed=4, covariance=cov)
    lam = 0.15
    res = solver.fit_penalized(ds, SQUARED, L1Penalty(lam))
    from penexp.penalties import soft_threshold
    closed = soft_threshold(ds.X.T @ ds.y / n, lam)
    assert res.converged
    assert np.abs(res.solution - closed).max() < 1e-8


def test_expansion_prox_identity_isotropic():
    ds, cov = linear_instance(150, 60, 4, seed=5)
    K = curvature_matrix(SQUARED, cov, ds.beta_star)
    pen = L1Penalty(0.2)
    res = solver.fit_expansion(ds, SQUARED, K, ds.beta_star, pen)
    z = ds.beta_star + ds.X.T @ ds.noise / ds.n
    assert res.converged
    assert np.abs(res.solution - prox(pen, z, 1.0)).max() < 1e-10


def test_expansion_without_penalty_returns_center():
    ds, cov = linear_instance(90, 30, 3, seed=6, rho=0.5)
    K = curvature_matrix(SQUARED, cov, ds.beta_star)
    res = solver.fit_expansion(ds, SQUARED, K, ds.beta_star, L1Penalty(0.0))
    z = solver.expansion_center(ds, SQUARED, K, ds.beta_star)
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
    Kmat = Kmat / scale ** 2  # keep diagonal <= 1 so the model accepts it
    cov = model.CovarianceModel.explicit(Kmat)
    X = model.generate_design(cov, 40, "gaussian", seed=7)
    beta = model.flat_signal(p, 2)
    ds = model.generate_linear(X, beta, 1.0, seed=7, covariance=cov)
    K = curvature_matrix(SQUARED, cov, beta)
    lam = 0.3
    res = solver.fit_expansion(ds, SQUARED, K, beta, L1Penalty(lam),
                               solver.SolverConfig(kkt_tol=1e-12))
    z = solver.expansion_center(ds, SQUARED, K, beta)
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
    g = solver.smooth_gradient(ds, SQUARED, beta)
    direct = ds.X.T @ (ds.X @ beta - ds.y) / ds.n
    assert np.abs(g - direct).max() < 1e-12


def test_smooth_gradient_finite_differences():
    cov = model.CovarianceModel.identity(5)
    X = model.generate_design(cov, 40, "gaussian", seed=9)
    ds = model.generate_logistic(X, model.flat_signal(5, 2, 0.4), seed=9,
                                 covariance=cov)
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(10):
        beta = rng.normal(scale=0.5, size=5)
        g = solver.smooth_gradient(ds, LOGISTIC, beta)
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
    a = solver.fit_penalized(ds, SQUARED, L1Penalty(0.1))
    b = solver.fit_penalized(ds, SQUARED, L1Penalty(0.1))
    assert a.solution.tobytes() == b.solution.tobytes()
    assert a.iterations == b.iterations


def test_converged_implies_certified():
    ds, _ = linear_instance(120, 60, 4, seed=12, rho=0.4)
    for pen in (L1Penalty(0.12), L1BallConstraint(3.0),
                GroupPenalty(0.15, model.GroupStructure.contiguous(20, 3))):
        res = solver.fit_penalized(ds, SQUARED, pen,
                                   solver.SolverConfig(kkt_tol=1e-9))
        assert res.converged
        assert res.kkt_residual <= 1e-9
        # recheck independently of the solver's own bookkeeping
        grad = solver.smooth_gradient(ds, SQUARED, res.solution)
        assert subdifferential_residual(pen, res.solution, grad) <= 1e-9


def test_logistic_fit_certified():
    cov = model.CovarianceModel.identity(30)
    X = model.generate_design(cov, 150, "gaussian", seed=13)
    ds = model.generate_logistic(X, model.flat_signal(30, 3, 0.3), seed=13,
                                 covariance=cov)
    res = solver.fit_penalized(ds, LOGISTIC, L1Penalty(0.05))
    assert res.converged
    grad = solver.smooth_gradient(ds, LOGISTIC, res.solution)
    assert subdifferential_residual(L1Penalty(0.05), res.solution,
                                    grad) <= 1e-8


def test_constrained_solution_feasible():
    ds, _ = linear_instance(80, 40, 3, seed=14)
    R = 2.0
    res = solver.fit_penalized(ds, SQUARED, L1BallConstraint(R))
    assert res.converged
    assert np.abs(res.solution).sum() <= R + 1e-9
    assert penalty_value(L1BallConstraint(R), res.solution) == 0.0


def test_objective_close_to_long_run():
    ds, _ = linear_instance(100, 80, 4, seed=15, rho=0.6)
    pen = L1Penalty(0.08)
    quick = solver.fit_penalized(ds, SQUARED, pen)
    long = solver.fit_penalized(
        ds, SQUARED, pen, solver.SolverConfig(kkt_tol=1e-13,
                                              max_iters=200000))
    assert quick.objective <= long.objective + 1e-10 * max(
        1.0, abs(long.objective))


def test_non_convergence_reported():
    ds, _ = linear_instance(60, 30, 3, seed=16)
    res = solver.fit_penalized(ds, SQUARED, L1Penalty(0.05),
                               solver.SolverConfig(max_iters=2,
                                                   kkt_tol=1e-14))
    assert not res.converged
    assert res.iterations == 2
    assert res.kkt_residual > 1e-14


def test_expansion_step_from_top_eigenvalue():
    # K = I + 9 vv' with v orthogonal to the all-ones vector: lambda_max is
    # 10, but a power iteration started at the all-ones vector stays in the
    # eigenvalue-1 space and returns 1, a step ten times too long
    p = 20
    v = np.random.default_rng(17).normal(size=p)
    v -= v.mean()
    v /= np.linalg.norm(v)
    Kmat = np.eye(p) + 9.0 * np.outer(v, v)
    K = model.CovarianceModel.curvature(Kmat, "exact-sigma")
    assert K.eig_max == pytest.approx(10.0, rel=1e-12)
    ds, _ = linear_instance(80, p, 3, seed=17)
    pen = L1Penalty(0.05)
    res = solver.fit_expansion(ds, SQUARED, K, ds.beta_star, pen)
    z = solver.expansion_center(ds, SQUARED, K, ds.beta_star)
    assert res.converged
    assert np.all(np.isfinite(res.solution))
    assert subdifferential_residual(pen, res.solution,
                                    Kmat @ (res.solution - z)) <= 1e-8


def test_expansion_center_sign_convention():
    # squared loss, identity covariance: the center is truth plus the
    # noise average, with a plus sign
    ds, cov = linear_instance(200, 20, 3, seed=18, noise_sd=0.5)
    K = curvature_matrix(SQUARED, cov, ds.beta_star)
    z = solver.expansion_center(ds, SQUARED, K, ds.beta_star)
    expected = ds.beta_star + ds.X.T @ ds.noise / ds.n
    assert np.abs(z - expected).max() < 1e-12


def test_expansion_general_k_kkt():
    cov = model.CovarianceModel.ar1(25, 0.5)
    X = model.generate_design(cov, 120, "gaussian", seed=19)
    beta = model.flat_signal(25, 3, 0.4)
    ds = model.generate_logistic(X, beta, seed=19, covariance=cov)
    K = curvature_matrix(LOGISTIC, cov, beta)
    pen = L1Penalty(0.04)
    res = solver.fit_expansion(ds, LOGISTIC, K, beta, pen)
    assert res.converged
    # KKT of the surrogate: gradient is K (b - z)
    z = solver.expansion_center(ds, LOGISTIC, K, beta)
    grad = K.matrix @ (res.solution - z)
    assert subdifferential_residual(pen, res.solution, grad) <= 1e-8
