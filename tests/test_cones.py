import numpy as np
import pytest
from scipy.special import gammaln

from oracles import (_sup_per_draw, complexity_estimate,
                     group_complexity_bound, lasso_complexity_bound,
                     lasso_cone)
from penexp.cones import (GroupCone, group_penalty_level, group_rate,
                          lasso_penalty_level, lasso_rate)
from penexp.diagnostics import sparsity_bound
from penexp.losses import get_loss
from penexp.model import (CovarianceModel, GroupStructure, flat_signal,
                          noise_scale, simulate)


SQ = get_loss("squared")
LG = get_loss("logistic")


def _dataset(loss):
    cov = CovarianceModel.identity(4)
    return simulate(cov, flat_signal(4, 1), 20, loss, "gaussian", 2.0,
                    seed=8)


def test_lasso_level_squared_value():
    # 1.3 * sqrt(2 ln 100 / 500)
    lev = lasso_penalty_level(1.0, p=1000, s=10, n=500, xi=0.1)
    assert abs(lev - 0.17649) < 1e-4
    assert abs(lev - 1.3 * np.sqrt(2.0 * np.log(100.0) / 500.0)) < 1e-15
    # squared loss scales the level by the realized noise scale
    ds = _dataset(SQ)
    assert SQ.penalty_scale(ds) == noise_scale(ds)


def test_lasso_level_logistic_value():
    lev = lasso_penalty_level(LG.penalty_scale(_dataset(LG)),
                              p=1000, s=10, n=500, xi=0.1)
    assert abs(lev - 0.08824) < 1e-4
    # logistic halves the squared-loss level at sigma = 1
    sq = lasso_penalty_level(1.0, p=1000, s=10, n=500, xi=0.1)
    assert lev == pytest.approx(0.5 * sq, rel=1e-12)


def test_lasso_level_small_xi_limit():
    lev = lasso_penalty_level(1.0, p=400, s=5, n=200, xi=1e-9)
    base = np.sqrt(2.0 * np.log(80.0) / 200.0)
    assert lev == pytest.approx(base, rel=1e-6)


def test_lasso_level_scales():
    a = lasso_penalty_level(2.0, p=100, s=5, n=50, xi=0.5)
    b = lasso_penalty_level(1.0, p=100, s=5, n=50, xi=0.5)
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_group_level_value():
    lev = group_penalty_level(1.0, M=100, d=4, s=5, n=400, xi=0.1)
    assert abs(lev - 0.2716) < 1e-4
    manual = 1.1 * (2.0 + 1.2 * np.sqrt(2.0 * np.log(20.0))) / 20.0
    assert lev == pytest.approx(manual, rel=1e-14)


def test_group_level_near_equal_counts():
    """When M/s is near 1 the log term dies and sqrt(d) dominates."""
    lev = group_penalty_level(1.0, M=1001, d=4, s=1000, n=400, xi=0.1)
    assert lev == pytest.approx(1.1 * 2.0 / 20.0, rel=0.03)


def test_member_basis_vector():
    u = np.zeros(10)
    u[0] = 1.0
    assert lasso_cone(1, 10).member(u)


def test_member_all_ones():
    p = 16
    u = np.ones(p)
    assert lasso_cone(p, p).member(u)
    assert not lasso_cone(p - 1, p).member(u)


def test_member_sparse_vectors():
    # any s-sparse vector is in the k = s cone by Cauchy-Schwarz
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = np.zeros(50)
        idx = rng.choice(50, size=4, replace=False)
        u[idx] = rng.standard_normal(4)
        assert lasso_cone(4, 50).member(u)


def test_member_zero_vector():
    groups = GroupStructure(5, 2)
    z = np.zeros(10)
    assert lasso_cone(1, 10).member(z)
    assert GroupCone(np.sqrt(2.0), groups).member(z)


def test_member_group_supported():
    # s active groups pass with radius sqrt(s)
    groups = GroupStructure(6, 3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = np.zeros(18)
        act = rng.choice(6, size=2, replace=False)
        for k in act:
            u[groups.groups[k]] = rng.standard_normal(3)
        assert GroupCone(np.sqrt(2.0), groups).member(u)


def test_lasso_cone_member_matches_l1_formula_bitwise():
    """Singleton group norms sum to ||u||_1 bit for bit, so lasso_cone
    decides as ||u||_1 <= sqrt(k) ||u|| (1 + 1e-9) does, at the edge too."""
    rng = np.random.default_rng(31)
    outcomes = set()
    for _ in range(2000):
        p = int(rng.integers(2, 40))
        mags = 10.0 ** (rng.uniform(-98.0, 98.0) + rng.uniform(-2.0, 2.0, p))
        u = rng.choice([-1.0, 1.0], p) * mags
        u[rng.random(p) < 0.2] = 0.0
        l1, l2 = np.abs(u).sum(), np.linalg.norm(u)
        if l2 == 0.0:
            continue
        assert GroupStructure(p, 1).norms(u).sum() == l1
        # l1 / l2 = sqrt(k) t: inside the slack, or beyond it by 1e-10
        t = rng.choice([1.0 - 1e-10, 1.0 + 1e-10]) \
            * rng.choice([1.0, 1.0 + 1e-9])
        k = max((l1 / (l2 * t)) ** 2, 1.0)
        old = bool(l1 <= np.sqrt(k) * l2 * (1.0 + 1e-9))
        assert lasso_cone(k, p).member(u) is old
        outcomes.add(old)
    assert outcomes == {True, False}


def test_complexity_whole_space():
    """k = p frees the constraint, so the sup is ||g|| with known mean."""
    p = 40
    cov = CovarianceModel.identity(p)
    est, se = complexity_estimate(lasso_cone(p, p), cov, 4000, seed=5)
    exact = np.sqrt(2.0) * np.exp(gammaln((p + 1) / 2.0) - gammaln(p / 2.0))
    assert abs(est - exact) <= 3.0 * se


def test_complexity_two_dim_corner():
    # In R^2 the only unit vectors with ||u||_1 <= 1 are the four corners
    # +-e1, +-e2, so the sup per draw is max(|g1|, |g2|). Rotating by 45
    # degrees shows E max(|g1|, |g2|) = sqrt(2) E|g| = 2/sqrt(pi).
    cov = CovarianceModel.identity(2)
    est, se = complexity_estimate(lasso_cone(1, 2), cov, 200000, seed=7)
    assert abs(est - 2.0 / np.sqrt(np.pi)) <= 3.0 * se + 1e-6


def test_complexity_scaling_bound():
    p, k = 200, 10
    cov = CovarianceModel.identity(p)
    est, _ = complexity_estimate(lasso_cone(k, p), cov, 3000, seed=11)
    assert est <= 3.0 * np.sqrt(k * np.log(2.0 * p / k))
    assert est >= np.sqrt(k)


def test_complexity_monotone_in_k():
    cov = CovarianceModel.identity(100)
    lo, se1 = complexity_estimate(lasso_cone(5, 100), cov, 3000, seed=13)
    hi, se2 = complexity_estimate(lasso_cone(20, 100), cov, 3000, seed=13)
    assert lo <= hi + 2.0 * (se1 + se2)


def test_complexity_singleton_groups_match_lasso():
    """Size-1 groups collapse the group cone onto a lasso cone."""
    p, s, c = 30, 2, 2.0
    cov = CovarianceModel.identity(p)
    groups = GroupStructure(p, 1)
    g_est, g_se = complexity_estimate(GroupCone(c * np.sqrt(s), groups), cov,
                                      500, seed=17)
    l_est, l_se = complexity_estimate(lasso_cone(c * c * s, p), cov, 500,
                                      seed=17)
    assert g_est == l_est
    assert g_se == l_se


def test_complexity_rejects_correlated_lasso_cone():
    cov = CovarianceModel.ar1(6, 0.3)
    with pytest.raises(ValueError):
        complexity_estimate(lasso_cone(2, 6), cov, 100, seed=1)
    with pytest.raises(ValueError):
        complexity_estimate(GroupCone(1.0, GroupStructure(3, 2)),
                            cov, 100, seed=1)


def test_complexity_needs_draws():
    cov = CovarianceModel.identity(4)
    with pytest.raises(ValueError):
        complexity_estimate(lasso_cone(2, 4), cov, 1, seed=1)


def test_per_draw_sup_is_sound():
    """The bisection maximizer beats every feasible candidate."""
    p, k = 200, 10
    rng = np.random.default_rng(19)
    g = np.abs(rng.standard_normal(p))
    sup = _sup_per_draw(g[None, :], np.sqrt(k))[0]
    # best k-sparse candidate: top-k coordinates of g
    top = np.argsort(g)[-k:]
    u = np.zeros(p)
    u[top] = g[top]
    u /= np.linalg.norm(u)
    assert sup >= g @ u - 1e-9
    # random k-sparse candidates are feasible by Cauchy-Schwarz
    for _ in range(10000):
        idx = rng.choice(p, size=k, replace=False)
        w = rng.random(k) + 1e-3
        u = np.zeros(p)
        u[idx] = w
        u /= np.linalg.norm(u)
        assert sup >= g @ u - 1e-9


def test_restricted_eigenvalue_identity():
    # phi = sqrt(eig_min of Sigma) bounds ||u||_Sigma / ||u|| below on the
    # lasso and group cones alike
    cov = CovarianceModel.identity(9)
    assert np.sqrt(cov.eig_min) == 1.0
    groups = GroupStructure(3, 3)
    assert sparsity_bound(2, 1.0, cov, cov, groups) == 2 * 257.0


def test_restricted_eigenvalue_ar1_certified():
    p = 10
    cov = CovarianceModel.ar1(p, 0.5)
    bound = np.sqrt(cov.eig_min)
    w = np.linalg.eigvalsh(cov.matrix)
    assert bound == pytest.approx(np.sqrt(w.min()), rel=1e-12)
    # certified lower bound never exceeds the norm along any direction
    rng = np.random.default_rng(29)
    U = rng.standard_normal((100000, p))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    empirical = np.linalg.norm(cov.sqrt_rows(U), axis=1).min()
    assert bound <= empirical + 1e-12


def test_complexity_bound_lasso():
    cov = CovarianceModel.identity(100)
    val = lasso_complexity_bound(20, cov)
    assert val == pytest.approx(np.sqrt(20.0 * np.log(10.0)), rel=1e-12)
    with pytest.raises(ValueError):
        lasso_complexity_bound(201, CovarianceModel.identity(100))


def test_complexity_bound_group():
    groups = GroupStructure(50, 3)
    cov = CovarianceModel.identity(150)
    val = group_complexity_bound(4, groups, cov)
    assert val == pytest.approx(np.sqrt(4 * 3 + 4 * np.log(12.5)), rel=1e-12)


def test_complexity_bound_divides_by_phi():
    cov = CovarianceModel.ar1(30, 0.5)
    phi = np.sqrt(cov.eig_min)
    val = lasso_complexity_bound(6, cov)
    assert val == pytest.approx(np.sqrt(6.0 * np.log(10.0)) / phi, rel=1e-12)


def test_minimax_rate_lasso():
    val = lasso_rate(400, p=800, s=5)
    assert val == pytest.approx(np.sqrt(2.0 * 5 * np.log(160.0) / 400.0),
                                rel=1e-14)


def test_minimax_rate_group():
    val = group_rate(2000, M=200, d=4, s=5)
    manual = np.sqrt((5 * 4 + 5 * np.log(40.0)) / 2000.0)
    assert val == pytest.approx(manual, rel=1e-14)


def test_rates_accept_one_active_coordinate_or_group():
    # s = 1 is the smallest sparsity both rates take
    assert lasso_rate(100, p=20, s=1) == pytest.approx(
        np.sqrt(2.0 * np.log(20.0) / 100.0), rel=1e-14)
    assert group_rate(100, M=5, d=4, s=1) == pytest.approx(
        np.sqrt((4 + np.log(5.0)) / 100.0), rel=1e-14)
