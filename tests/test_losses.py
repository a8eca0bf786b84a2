import tracemalloc

import numpy as np
import pytest

from penexp import losses, model
from penexp.losses import LOGISTIC, SQUARED


def test_squared_loss_values():
    assert SQUARED.value(2.0, 5.0) == pytest.approx(4.5)
    assert SQUARED.d1(2.0, 5.0) == pytest.approx(3.0)
    assert SQUARED.d2(2.0, 5.0) == 1.0


def test_logistic_point_values():
    assert LOGISTIC.d2(1.0, 0.0) == pytest.approx(0.25)
    assert LOGISTIC.d1(1.0, 0.0) == pytest.approx(0.5)
    assert LOGISTIC.d1(0.0, 0.0) == pytest.approx(-0.5)
    # value at u = 0 is log 2 for either label
    assert LOGISTIC.value(0.0, 0.0) == pytest.approx(np.log(2.0))
    assert LOGISTIC.value(1.0, 0.0) == pytest.approx(np.log(2.0))


def test_logistic_loss_is_convex_form():
    # the score at the truth has mean zero under the flipped-sign model:
    # d1(y, u) = y - 1/(1+e^u), and P(Y=1) = 1/(1+e^u)
    u = 1.3
    p1 = 1.0 / (1.0 + np.exp(u))
    mean_score = p1 * LOGISTIC.d1(1.0, u) + (1 - p1) * LOGISTIC.d1(0.0, u)
    assert mean_score == pytest.approx(0.0, abs=1e-15)
    # and d2 > 0 everywhere
    for u in (-20.0, -1.0, 0.0, 3.0, 20.0):
        assert LOGISTIC.d2(1.0, u) > 0


def test_log1pexp_stable():
    assert losses.log1pexp(np.array([0.0]))[0] == pytest.approx(np.log(2.0))
    assert losses.log1pexp(np.array([1000.0]))[0] == pytest.approx(1000.0)
    assert losses.log1pexp(np.array([-1000.0]))[0] == 0.0
    u = np.array([-5.0, -0.1, 0.1, 5.0])
    assert np.allclose(losses.log1pexp(u), np.log1p(np.exp(u)), rtol=1e-14)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(1000):
        y = float(rng.integers(0, 2))
        u = float(rng.normal(scale=3))
        d1_fd = (LOGISTIC.value(y, u + h) - LOGISTIC.value(y, u - h)) / (2 * h)
        d2_fd = (LOGISTIC.d1(y, u + h) - LOGISTIC.d1(y, u - h)) / (2 * h)
        assert d1_fd == pytest.approx(LOGISTIC.d1(y, u), rel=1e-5, abs=1e-7)
        assert d2_fd == pytest.approx(LOGISTIC.d2(y, u), rel=1e-5, abs=1e-7)
        us = float(rng.normal(scale=3))
        ys = float(rng.normal(scale=2))
        d1s = (SQUARED.value(ys, us + h) - SQUARED.value(ys, us - h)) / (2 * h)
        assert d1s == pytest.approx(SQUARED.d1(ys, us), rel=1e-5, abs=1e-7)


def test_loss_constants():
    assert SQUARED.d2_lipschitz == 0.0
    assert SQUARED.d2_sup == 1.0
    assert LOGISTIC.d2_lipschitz == pytest.approx(1.0 / (6 * np.sqrt(3.0)))
    # sharp sup of the logistic second derivative is 1/4; the conventional
    # constant 1 is kept alongside for reporting
    assert LOGISTIC.d2_sup == 0.25
    assert LOGISTIC.d2_bound == 1.0
    with pytest.raises(ValueError):
        losses.get_loss("huber")


def test_logistic_d2_slope_grid_maximum():
    # max |d(l'')/du| should equal the Lipschitz constant, attained near
    # +- log(2 + sqrt(3))
    u = np.linspace(-8, 8, 400001)
    d2 = LOGISTIC.d2(1.0, u)
    slopes = np.abs(np.diff(d2) / np.diff(u))
    best = slopes.max()
    assert best <= LOGISTIC.d2_lipschitz + 1e-9
    assert best == pytest.approx(LOGISTIC.d2_lipschitz, abs=1e-6)
    argmax = np.abs(u[:-1][np.argmax(slopes)])
    assert argmax == pytest.approx(np.log(2 + np.sqrt(3.0)), abs=1e-2)


def test_curvature_lower_bound():
    assert losses.curvature_lower_bound(LOGISTIC, 0.0) == pytest.approx(0.25)
    assert losses.curvature_lower_bound(SQUARED, 17.0) == 1.0
    expected = np.exp(2.0) / (1 + np.exp(2.0)) ** 2
    assert losses.curvature_lower_bound(LOGISTIC, 2.0) == pytest.approx(
        expected)
    assert expected == pytest.approx(0.10499, abs=1e-5)
    with pytest.raises(ValueError):
        losses.curvature_lower_bound(LOGISTIC, -1.0)


def test_stability_ratio_trivial_cases():
    rep = losses.stability_ratio_check(LOGISTIC, np.array([1.5]),
                                       np.array([1.5]))
    assert rep.ok and rep.worst_quotient == pytest.approx(1.0 / np.exp(0.0))
    rep2 = losses.stability_ratio_check(SQUARED, np.linspace(-3, 3, 50),
                                        np.linspace(-3, 3, 50))
    assert rep2.ok


def test_stability_ratio_subgrid():
    g = np.arange(-6.0, 6.0, 0.05)
    rep = losses.stability_ratio_check(LOGISTIC, g, g, max_gap=5.0)
    assert rep.ok
    assert rep.worst_quotient <= 1.0


def test_curvature_matrix_squared_is_sigma():
    cov = model.CovarianceModel.ar1(6, 0.4)
    K = losses.curvature_matrix(SQUARED, cov, model.flat_signal(6, 2))
    assert np.array_equal(K.matrix, cov.matrix)
    assert K.provenance == "exact-sigma"


def test_squared_identity_pipeline_holds_no_p_by_p_matrix():
    # the identity stores no matrix and squared loss reuses the covariance
    # as K, so at p = 2000 nothing near one 32 MB p x p buffer is allocated
    p = 2000
    beta = model.flat_signal(p, 5)
    tracemalloc.start()
    try:
        cov = model.CovarianceModel.identity(p)
        X = model.generate_design(cov, 100, "gaussian", seed=4)
        ds = model.generate_linear(X, beta, 1.0, seed=4, covariance=cov)
        K = losses.curvature_matrix(SQUARED, cov, beta)
        assert K.norm(ds.X[0]) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # factorized once: the squared-loss K is the covariance object itself
    ar1 = model.CovarianceModel.ar1(30, 0.5)
    assert losses.curvature_matrix(SQUARED, ar1, model.flat_signal(30, 2)) \
        is ar1


def test_curvature_matrix_zero_signal():
    cov = model.CovarianceModel.ar1(4, 0.3)
    K = losses.curvature_matrix(LOGISTIC, cov, np.zeros(4))
    assert np.allclose(K.matrix, 0.25 * cov.matrix, atol=1e-14)


def test_curvature_matrix_rejects_non_gaussian_design():
    cov = model.CovarianceModel.identity(3)
    with pytest.raises(ValueError):
        losses.curvature_matrix(LOGISTIC, cov, np.zeros(3),
                                design_kind="rademacher")


def test_curvature_matrix_vs_mc():
    cov = model.CovarianceModel.identity(3)
    beta = np.array([1.0, 0.0, 0.0])
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    Kmc = losses.curvature_matrix_mc(LOGISTIC, cov, beta, 400000, seed=31)
    assert Kmc.provenance == "mc-estimate"
    scale = np.abs(K.matrix).max()
    assert np.abs(K.matrix - Kmc.matrix).max() < 0.01 * scale


def test_curvature_matrix_structure():
    # logistic K on identity covariance: rank-one correction along beta
    cov = model.CovarianceModel.identity(3)
    beta = np.array([0.8, 0.0, 0.0])
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    # off-signal block is m0 * I
    assert K.matrix[1, 1] == pytest.approx(K.matrix[2, 2])
    assert K.matrix[1, 2] == pytest.approx(0.0, abs=1e-14)
    assert K.matrix[0, 1] == pytest.approx(0.0, abs=1e-14)
    # curvature along the signal is smaller than off-signal (mass away
    # from zero where sigmoid' is largest)
    assert K.matrix[0, 0] < K.matrix[1, 1] < 0.25
    assert K.eig_min > 0


def test_curvature_norm_and_factorizations():
    cov = model.CovarianceModel.ar1(5, 0.6)
    K = losses.curvature_matrix(SQUARED, cov, np.zeros(5))
    u = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    direct = np.sqrt(u @ cov.matrix @ u)
    assert K.norm(u) == pytest.approx(direct, rel=1e-12)
    assert np.allclose(K.sqrt @ K.sqrt, K.matrix, atol=1e-10)
    assert np.allclose(K.matrix @ K.inv, np.eye(5), atol=1e-9)
    assert np.allclose(K.inv_sqrt @ K.inv_sqrt, K.inv, atol=1e-9)


def test_norm_ratio_bound():
    cov = model.CovarianceModel.ar1(4, 0.5)
    K_eq = model.CovarianceModel.curvature(cov.matrix, "exact-sigma")
    assert losses.norm_ratio_bound(cov, K_eq) == pytest.approx(1.0, rel=1e-10)
    K_quarter = model.CovarianceModel.curvature(0.25 * cov.matrix,
                                                "exact-sigma")
    assert losses.norm_ratio_bound(cov, K_quarter) == pytest.approx(
        4.0, rel=1e-10)


def test_norm_ratio_bound_vs_power_iteration():
    cov = model.CovarianceModel.identity(4)
    beta = np.zeros(4)
    beta[0] = 1.0
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    val = losses.norm_ratio_bound(cov, K)
    assert val > 1.0
    # independent power iteration on K^{-1/2} Sigma K^{-1/2}
    mat = K.inv_sqrt @ cov.matrix @ K.inv_sqrt
    v = np.ones(4) / 2.0
    for _ in range(5000):
        w = mat @ v
        v = w / np.linalg.norm(w)
    lead = v @ mat @ v
    assert val == pytest.approx(lead, abs=1e-8)


def test_score_mean_zero_at_truth():
    # average over replications of the empirical score at beta_star
    cov = model.CovarianceModel.identity(4)
    beta = model.flat_signal(4, 1, 0.6)
    n, reps = 200, 200
    acc = np.zeros(4)
    for r in range(reps):
        X = model.generate_design(cov, n, "gaussian", seed=1000 + r)
        ds = model.generate_logistic(X, beta, seed=1000 + r, covariance=cov)
        resid = LOGISTIC.d1(ds.y, ds.X @ beta)
        acc += ds.X.T @ resid / n
    acc /= reps
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    band = 3 * np.sqrt(np.trace(K.matrix) / (n * reps))
    assert np.linalg.norm(acc) < band


def test_curvature_persistence(tmp_path):
    cov = model.CovarianceModel.identity(3)
    K = losses.curvature_matrix(LOGISTIC, cov, np.array([0.5, 0.5, 0.0]))
    losses.save_curvature(K, str(tmp_path / "K"))
    back = losses.load_curvature(str(tmp_path / "K"))
    assert np.array_equal(back.matrix, K.matrix)
    assert back.provenance == K.provenance


def test_expansion_refuses_mc_provenance():
    from penexp import solver
    from penexp.penalties import L1Penalty
    cov = model.CovarianceModel.identity(3)
    beta = np.array([0.4, 0.0, 0.0])
    X = model.generate_design(cov, 60, "gaussian", seed=2)
    ds = model.generate_logistic(X, beta, seed=2, covariance=cov)
    Kmc = losses.curvature_matrix_mc(LOGISTIC, cov, beta, 20000, seed=3)
    with pytest.raises(ValueError):
        solver.fit_expansion(ds, LOGISTIC, Kmc, beta, L1Penalty(0.1))
    res = solver.fit_expansion(ds, LOGISTIC, Kmc, beta, L1Penalty(0.1),
                               allow_approximate=True)
    assert res.converged
