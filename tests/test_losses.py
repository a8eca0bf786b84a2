import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh as generalized_eigh

from oracles import (curvature_lower_bound, curvature_matrix_mc,
                     dense_covariance, logistic_curvature_dense,
                     logistic_moments_mpmath, stability_ratio_check)
from penexp import diagnostics, losses, model
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


def test_logistic_value_is_stable_far_out():
    # at y = 1 the logistic loss is log(1 + e^u)
    assert LOGISTIC.value(1.0, 0.0) == pytest.approx(np.log(2.0))
    assert LOGISTIC.value(1.0, 1000.0) == pytest.approx(1000.0)
    assert LOGISTIC.value(1.0, -1000.0) == 0.0
    u = np.array([-5.0, -0.1, 0.1, 5.0])
    assert np.allclose(LOGISTIC.value(1.0, u), np.log1p(np.exp(u)),
                       rtol=1e-14)
    # far out the link saturates: the derivatives reach their limits
    # without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = np.array([-800.0, 800.0])
        assert LOGISTIC.d1(1.0, u).tolist() == [0.0, 1.0]
        assert LOGISTIC.d1(0.0, u).tolist() == [-1.0, 0.0]
        assert LOGISTIC.d2(1.0, u).tolist() == [0.0, 0.0]


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
    assert LOGISTIC.d2_lipschitz == pytest.approx(1.0 / (6 * np.sqrt(3.0)))
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
    assert curvature_lower_bound(LOGISTIC, 0.0) == pytest.approx(0.25)
    assert curvature_lower_bound(SQUARED, 17.0) == 1.0
    expected = np.exp(2.0) / (1 + np.exp(2.0)) ** 2
    assert curvature_lower_bound(LOGISTIC, 2.0) == pytest.approx(
        expected)
    assert expected == pytest.approx(0.10499, abs=1e-5)
    with pytest.raises(ValueError):
        curvature_lower_bound(LOGISTIC, -1.0)


def test_stability_ratio_trivial_cases():
    rep = stability_ratio_check(LOGISTIC, np.array([1.5]),
                                np.array([1.5]))
    assert rep.ok and rep.worst_quotient == pytest.approx(1.0 / np.exp(0.0))
    rep2 = stability_ratio_check(SQUARED, np.linspace(-3, 3, 50),
                                 np.linspace(-3, 3, 50))
    assert rep2.ok


def test_stability_ratio_subgrid():
    g = np.arange(-6.0, 6.0, 0.05)
    rep = stability_ratio_check(LOGISTIC, g, g, max_gap=5.0)
    assert rep.ok
    assert rep.worst_quotient <= 1.0


def test_curvature_matrix_squared_is_sigma():
    cov = model.CovarianceModel.ar1(6, 0.4)
    K = losses.curvature_matrix(SQUARED, cov, model.flat_signal(6, 2))
    assert np.array_equal(K.matrix, cov.matrix)


def test_squared_identity_pipeline_holds_no_p_by_p_matrix():
    # the identity stores no matrix and squared loss reuses the covariance
    # as K, so at p = 2000 nothing near one 32 MB p x p buffer is allocated
    p = 2000
    beta = model.flat_signal(p, 5)
    tracemalloc.start()
    try:
        cov = model.CovarianceModel.identity(p)
        ds = model.simulate(cov, beta, 100, SQUARED, "gaussian", 1.0, seed=4)
        K = losses.curvature_matrix(SQUARED, cov, beta)
        assert K.norm(ds.X[0]) > 0
        assert np.array_equal(cov.principal(np.arange(5)), np.eye(5))
        assert np.sqrt(cov.eig_min) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # factorized once: the squared-loss K is the covariance object itself
    ar1 = model.CovarianceModel.ar1(30, 0.5)
    assert losses.curvature_matrix(SQUARED, ar1, model.flat_signal(30, 2)) \
        is ar1


@pytest.mark.filterwarnings("ignore:.*expansion is unverified")
@pytest.mark.parametrize("p", [30, 200])
@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_logistic_rank_one_k_matches_dense(p, rho):
    cov = model.CovarianceModel.ar1(p, rho)
    beta = model.flat_signal(p, 5, 0.25)
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    dense = logistic_curvature_dense(cov, beta)
    rng = np.random.default_rng(p)
    U = rng.standard_normal((p, 3))
    u = U[:, 0]

    def rel(a, b):
        return float(np.abs(a - b).max() / np.abs(b).max())

    assert K.base is cov
    assert rel(K.matrix, dense) <= 1e-12
    assert rel(K @ u, dense @ u) <= 1e-12
    assert rel(K @ U, dense @ U) <= 1e-12
    assert rel(K.solve(u), np.linalg.solve(dense, u)) <= 1e-12
    assert rel(K.solve(U), np.linalg.solve(dense, U)) <= 1e-12
    assert K.norm(u) == pytest.approx(np.sqrt(u @ dense @ u), rel=1e-12)
    idx = np.array([0, 3, 4, p - 1])
    assert rel(K.principal(idx), dense[np.ix_(idx, idx)]) <= 1e-12
    eigs = np.linalg.eigvalsh(dense)
    # eig_max is Weyl's bound: with c <= 0 it is m0 w_max, raised by p eps
    eps = np.finfo(float).eps
    assert eigs[-1] <= K.eig_max <= K._m0 * cov.eig_max * (1.0 + p * eps)
    # a step of 1/eig_max is never longer than the dense matrix allows
    assert K.eig_max >= eigs[-1] - np.spacing(eigs[-1])
    ratio = generalized_eigh(cov.matrix, dense, eigvals_only=True).max()
    assert 1.0 / K.relative_bounds[0] == pytest.approx(ratio, rel=1e-12)


@pytest.mark.filterwarnings("ignore:.*expansion is unverified")
@pytest.mark.parametrize("p", [1, 2, 3, 5, 30, 200, 800])
@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.3, 0.5, 0.9, 0.99])
def test_logistic_k_eig_max_bounds_dense_eigenvalue(p, rho):
    # on Sigma's closed-form AR(1) eigenpairs too, a step of 1/eig_max is
    # never longer than the dense matrix allows
    cov = model.CovarianceModel.ar1(p, rho)
    K = losses.curvature_matrix(LOGISTIC, cov,
                                model.flat_signal(p, min(5, p), 0.25))
    assert K.eig_max >= np.linalg.eigvalsh(K.matrix).max()


@pytest.mark.filterwarnings("ignore:.*expansion is unverified")
def test_logistic_k_has_no_positive_rank_one_term():
    # sig'(vz) falls as z^2 grows, so by Chebyshev's association
    # inequality a2 = E sig'(vZ) Z^2 <= E sig'(vZ) = m0 and c <= 0, for
    # ||Sigma^{1/2} beta*|| up to 1e3
    cov = model.CovarianceModel.identity(1)
    norms = np.concatenate([np.logspace(-12, 0, 25), np.linspace(1, 2.02, 52),
                            np.geomspace(2.02, 1e3, 60)])
    for v in norms:
        K = losses.curvature_matrix(LOGISTIC, cov, np.array([v]))
        assert K._c <= 0.0 < K._m0


@pytest.mark.parametrize("v", np.append(np.logspace(-6, 3, 10), 335.0))
def test_logistic_moments_match_a_40_digit_reference(v):
    m0, a2 = losses._logistic_moments(v)
    ref_m0, ref_a2 = logistic_moments_mpmath(v)
    assert abs(m0 - ref_m0) <= 1e-13 * ref_m0
    assert abs(a2 - ref_a2) <= 1e-13 * ref_a2


@pytest.mark.filterwarnings("ignore:.*expansion is unverified")
@pytest.mark.parametrize("amplitude", [1.0, 2.0, 10.0])
def test_logistic_k_matches_mc_beyond_the_unit_ball(amplitude):
    # ||Sigma^{1/2} beta*|| = amplitude sqrt(5) > 2, where the signal is
    # far from the sigmoid's linear range
    p = 12
    cov = model.CovarianceModel.identity(p)
    beta = model.flat_signal(p, 5, amplitude)
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    Kmc = curvature_matrix_mc(LOGISTIC, cov, beta, 2000000, seed=3)
    assert np.abs(K.matrix - Kmc.matrix).max() <= 1e-3


def _weyl_bound(K):
    hi = K._m0 * K.base.eig_max + max(K._c, 0.0) * float(K._q @ K._q)
    return hi + K.p * np.finfo(float).eps * abs(hi)


@pytest.mark.parametrize("p", [2, 30, 200])
def test_rank_one_eig_max_is_weyls_bound_bitwise(p):
    beta = model.flat_signal(p, 2, 0.5)
    for cov in (model.CovarianceModel.identity(p),
                model.CovarianceModel.ar1(p, 0.5)):
        K = losses.curvature_matrix(LOGISTIC, cov, beta)
        assert K._c < 0.0
        assert K.eig_max.hex() == _weyl_bound(K).hex()
    # c > 0 on a dense base: the rank-one term counts in full
    rng = np.random.default_rng(p)
    A = rng.standard_normal((p, p))
    base = dense_covariance(A @ A.T / p + np.eye(p))
    K = model.CovarianceModel.rank_one(base, 0.7, 0.3, rng.standard_normal(p))
    assert K.eig_max.hex() == _weyl_bound(K).hex()
    assert K.eig_max >= np.linalg.eigvalsh(K.matrix).max()


@pytest.mark.parametrize("p", [2, 3, 300])
def test_logistic_k_eig_max_on_identity_is_m0_raised_by_p_eps(p):
    # on identity Sigma with p >= 2, K's largest eigenvalue is m0 itself;
    # eig_max is m0 raised by p eps, the value the previous bisection
    # returned from its bracket, closed at m0
    cov = model.CovarianceModel.identity(p)
    K = losses.curvature_matrix(LOGISTIC, cov, model.flat_signal(p, 2, 0.5))
    m0 = K._m0
    assert K.eig_max.hex() == (m0 + p * np.finfo(float).eps * m0).hex()


@pytest.mark.parametrize("m0, c, q", [
    (float("nan"), -0.1, [1.0, 0.0]),
    (0.2, float("nan"), [1.0, 0.0]),
    (0.2, float("inf"), [1.0, 0.0]),
    (0.2, -0.1, [float("nan"), 0.0]),
], ids=["m0", "c", "c_inf", "q"])
def test_rank_one_refuses_non_finite_inputs(m0, c, q):
    cov = model.CovarianceModel.identity(2)
    with pytest.raises(ValueError, match="non-finite"):
        model.CovarianceModel.rank_one(cov, m0, c, q)


def test_logistic_k_holds_no_p_by_p_array():
    # Sigma's own operators are all K needs: building it, stepping, solving
    # and bounding the norm ratio allocate O(p) memory beyond Sigma's
    p = 1500
    cov = model.CovarianceModel.ar1(p, 0.5)
    beta = model.flat_signal(p, 5, 0.25)
    u = np.ones(p)
    tracemalloc.start()
    try:
        K = losses.curvature_matrix(LOGISTIC, cov, beta)
        assert K.eig_max > 0
        assert np.all(np.isfinite(K.solve(u)))
        assert K.norm(u) > 0
        assert 1.0 / K.relative_bounds[0] > 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * p * p


def test_logistic_k_at_zero_signal_is_a_quarter_of_sigma(monkeypatch):
    # beta* = 0 gives K = Sigma/4 in the rank-one form with c = 0: no
    # p x p array and no eigendecomposition, where a dense Sigma/4 at
    # p = 3000 takes 72 MB and an eigh of its own
    p = 3000
    cov = model.CovarianceModel.identity(p)
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    tracemalloc.start()
    try:
        K = losses.curvature_matrix(LOGISTIC, cov, np.zeros(p))
        eig_max = K.eig_max
        ratio = 1.0 / K.relative_bounds[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 8e6
    assert ratio == 4.0
    assert 0.25 <= eig_max <= 0.25 * (1.0 + p * np.finfo(float).eps)


def test_curvature_matrix_zero_signal():
    cov = model.CovarianceModel.ar1(4, 0.3)
    K = losses.curvature_matrix(LOGISTIC, cov, np.zeros(4))
    assert np.allclose(K.matrix, 0.25 * cov.matrix, atol=1e-14)


def test_curvature_matrix_vs_mc():
    cov = model.CovarianceModel.identity(3)
    beta = np.array([1.0, 0.0, 0.0])
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    Kmc = curvature_matrix_mc(LOGISTIC, cov, beta, 400000, seed=31)
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
    assert np.linalg.eigvalsh(K.matrix).min() > 0


def test_rank_one_k_has_no_eig_min():
    # the pipeline reads eig_min of covariances only; a rank-one K checks
    # its singularity through relative_bounds
    cov = model.CovarianceModel.ar1(30, 0.5)
    K = losses.curvature_matrix(LOGISTIC, cov, model.flat_signal(30, 5, 0.25))
    with pytest.raises(ValueError, match="relative_bounds"):
        K.eig_min
    assert cov.eig_min > 0 and min(K.relative_bounds) > 0


def test_curvature_norm_and_factorizations():
    cov = model.CovarianceModel.ar1(5, 0.6)
    K = losses.curvature_matrix(SQUARED, cov, np.zeros(5))
    u = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    direct = np.sqrt(u @ cov.matrix @ u)
    assert K.norm(u) == pytest.approx(direct, rel=1e-12)
    root = K.sqrt_rows(np.eye(5))
    assert np.allclose(root @ root, K.matrix, atol=1e-10)
    inv = K.solve(np.eye(5))
    assert np.allclose(K.matrix @ inv, np.eye(5), atol=1e-9)


def _bound_with_unit_norm_ratio(cov, xi=1.0):
    # sparsity_bound at s = 1 and K = Sigma, with B3 = 1 left out
    factor = 2.0 * (3.0 + xi) * (1.0 + 1.0 / xi)
    phi = np.sqrt(cov.eig_min)
    return float(1.0 + cov.eig_max * factor * factor / (phi * phi))


def test_sparsity_bound_b3_norm_ratio():
    # B3, the largest ||Sigma^{1/2} u||^2 / ||K^{1/2} u||^2: exactly 1 for
    # K = Sigma, and 1/relative_bounds[0] for a rank-one update
    cov = model.CovarianceModel.ar1(4, 0.5)
    assert diagnostics.sparsity_bound(1, 1.0, cov, cov) == \
        _bound_with_unit_norm_ratio(cov)
    zero = np.zeros(4)
    K_eq = model.CovarianceModel.rank_one(cov, 1.0, 0.0, zero)
    assert 1.0 / K_eq.relative_bounds[0] == pytest.approx(1.0, rel=1e-10)
    K_quarter = model.CovarianceModel.rank_one(cov, 0.25, 0.0, zero)
    assert 1.0 / K_quarter.relative_bounds[0] == pytest.approx(
        4.0, rel=1e-10)
    # a rank-one update that lowers the curvature along Sigma^{-1} q
    q = cov @ np.array([1.0, -0.5, 0.0, 2.0])
    K = model.CovarianceModel.rank_one(cov, 0.5, -0.3 / (q @ cov.solve(q)), q)
    ratio = generalized_eigh(cov.matrix, K.matrix, eigvals_only=True).max()
    assert 1.0 / K.relative_bounds[0] == pytest.approx(ratio, rel=1e-10)
    assert ratio == pytest.approx(5.0, rel=1e-10)


def test_sparsity_bound_b3_of_identical_matrices_is_exactly_one():
    # no p x p product or eigendecomposition: 72 MB per I at p = 3000.
    # C_max = phi = 1 on the identity, so B3 = 1 gives exactly 1 + 16^2.
    tracemalloc.start()
    try:
        cov = model.CovarianceModel.identity(3000)
        K = losses.curvature_matrix(SQUARED, cov, np.zeros(3000))
        val = diagnostics.sparsity_bound(1, 1.0, cov, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert val == 257.0
    assert peak < 8e6
    cov = model.CovarianceModel.ar1(30, 0.5)
    K = losses.curvature_matrix(SQUARED, cov, model.flat_signal(30, 2))
    assert diagnostics.sparsity_bound(1, 1.0, cov, K) == \
        _bound_with_unit_norm_ratio(cov)


def test_sparsity_bound_b3_vs_power_iteration():
    cov = model.CovarianceModel.identity(4)
    beta = np.zeros(4)
    beta[0] = 1.0
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    val = 1.0 / K.relative_bounds[0]
    assert val > 1.0
    # independent power iteration on K^{-1/2} Sigma K^{-1/2}, from the
    # dense K
    w, vecs = np.linalg.eigh(K.matrix)
    inv_sqrt = (vecs / np.sqrt(w)) @ vecs.T
    mat = inv_sqrt @ cov.matrix @ inv_sqrt
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
        ds = model.simulate(cov, beta, n, LOGISTIC, "gaussian", 1.0,
                            seed=1000 + r)
        resid = LOGISTIC.d1(ds.y, ds.X @ beta)
        acc += ds.X.T @ resid / n
    acc /= reps
    K = losses.curvature_matrix(LOGISTIC, cov, beta)
    band = 3 * np.sqrt(np.trace(K.matrix) / (n * reps))
    assert np.linalg.norm(acc) < band
