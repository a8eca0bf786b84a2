"""Full-size seeded acceptance runs for the whole pipeline.

Everything here runs at realistic problem sizes, so this module is slow
(its 17 tests took 149.5 s on a 2-core Intel Xeon KVM guest); the
per-module unit suites are the fast ones, and `-m "not acceptance"` runs
them alone. Seeds are fixed once and not tuned: each run below was
registered before looking at its outcome.
"""

import numpy as np
import pytest

from oracles import (curvature_matrix_mc, dense_covariance, lasso,
                     make_dataset, smooth_gradient, stability_ratio_check,
                     taylor_remainder_gap)
from penexp import harness
from penexp.losses import curvature_matrix, get_loss
from penexp.model import (CovarianceModel, Dataset, GroupStructure,
                          flat_signal, generate_design, simulate, stream_rng)
from penexp.penalties import (GroupPenalty, L1BallConstraint,
                              group_penalty_level, lasso_penalty_level)
from penexp.solver import fit_expansion, fit_penalized

pytestmark = pytest.mark.acceptance

RATE_GRID = tuple(harness.GridPoint(n, 2 * n, 5) for n in (400, 800, 1600, 3200))


def run(experiment, grid, tmp, threads=0, **kw):
    cfg = harness.ExperimentConfig(
        experiment=experiment,
        grid=tuple(harness.GridPoint(*g) if isinstance(g, tuple) else g
                   for g in grid), **kw)
    return harness.run_experiment(cfg, str(tmp), threads)


def test_orthonormal_design_fit_matches_soft_threshold():
    """With X'X/n = I the lasso solution is soft thresholding of X'y/n."""
    rng = np.random.default_rng(1001)
    n, p = 400, 80
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = np.sqrt(n) * Q
    beta_star = np.zeros(p)
    beta_star[:4] = [1.0, -0.8, 0.6, 0.4]
    eps = rng.standard_normal(n)
    ds = Dataset(X=X, y=X @ beta_star + eps, model_kind="linear",
                 design_kind="gaussian", noise=eps, beta_star=beta_star,
                 covariance=None)
    lam = 0.12
    fit = fit_penalized(ds, get_loss("squared"), lasso(lam, p))
    corr = X.T @ ds.y / n
    closed = np.sign(corr) * np.maximum(np.abs(corr) - lam, 0.0)
    assert fit.converged
    assert np.abs(fit.solution - closed).max() <= 1e-8


def test_identity_curvature_expansion_is_one_prox_step():
    """Identity-covariance surrogate: eta = prox at beta* + X'noise/n."""
    cov = CovarianceModel.identity(120)
    beta_star = flat_signal(120, 4, 0.9)
    sq = get_loss("squared")
    X = generate_design(cov, 300, "gaussian", 71)
    ds = make_dataset(X, beta_star, sq, 1.0, 72, covariance=cov)
    K = curvature_matrix(sq, cov, beta_star)
    pen = lasso(0.15, 120)
    eta = fit_expansion(ds, sq, K, beta_star, pen)
    z = beta_star + ds.X.T @ ds.noise / ds.n
    assert eta.converged
    assert np.abs(eta.solution - pen.prox(z)).max() <= 1e-10


def test_hundred_random_instances_all_certify_kkt():
    """Both losses, all three penalties, varied sizes: every fit certifies."""
    bad = []
    for i in range(100):
        r = np.random.default_rng((1002, i))
        loss_kind = ("squared", "logistic")[i % 2]
        pen_kind = ("l1", "group", "ball")[i % 3]
        n = int(r.integers(150, 401))
        d = 4
        M = int(r.integers(6, 126))
        p = M * d if pen_kind == "group" else int(r.integers(24, 501))
        s = 3
        cov = CovarianceModel.identity(p)
        # logistic keeps the signal inside the unit covariance ball
        amp = 0.4 if loss_kind == "logistic" else 1.0
        beta_star = flat_signal(p, s, amp)
        loss = get_loss(loss_kind)
        X = generate_design(cov, n, "gaussian", int(r.integers(1 << 30)))
        ds = make_dataset(X, beta_star, loss, 1.0, int(r.integers(1 << 30)),
                          covariance=cov)
        if pen_kind == "l1":
            pen = lasso(lasso_penalty_level(loss.penalty_scale(ds), p, s, n,
                                            0.5), p)
        elif pen_kind == "group":
            gr = GroupStructure(M, d)
            pen = GroupPenalty(group_penalty_level(loss.penalty_scale(ds), M,
                                                   d, s, n, 0.5), gr)
        else:
            pen = L1BallConstraint(float(np.abs(beta_star).sum()))
        res = fit_penalized(ds, loss, pen)
        resid = pen.residual(res.solution,
                             smooth_gradient(ds, loss, res.solution))
        if not res.converged or resid > 1e-8:
            bad.append((i, loss_kind, pen_kind, res.converged, resid))
    assert bad == []


def test_penalized_gap_shrinks_at_squared_rate(tmp_path):
    """Median expansion gap over the grid: ratio to the error shrinks and the
    log-log slope against the rate scale sits near 2."""
    s = run("rates", RATE_GRID, tmp_path, penalty="l1_penalized",
            replications=100, master_seed=1003)
    ratios = [pt["median_ratio"] for pt in s["points"]]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.35
    fit = s["rate_fit"]
    assert fit is not None
    assert 1.2 <= fit["slope"] <= 2.4


def test_constrained_gap_rate_in_slow_window(tmp_path):
    """Ball-constrained variant on the same grid: the gap is of smaller order
    than the error.

    The guarantee is one-sided: the gap is at most of order r_n^{3/2} (the
    worst-case "slow window"), an upper bound on the gap and hence a lower
    bound on the log-log slope of the median gap against r_n. The slope must
    be at least 1.1; a broken expansion, with the gap of the same order as
    the error, gives a slope near 1. Nothing bounds the slope from above: on
    this identity-covariance squared-loss design the estimator and the
    expansion differ only through X'X/n - I acting on an error of size r_n,
    so the gap decays close to r_n^2. The claim that the gap is an order of
    magnitude smaller than the error is checked directly: the median ratio
    of gap to error shrinks along the grid and ends below 0.35.
    """
    s = run("rates", RATE_GRID, tmp_path, penalty="l1_constrained",
            replications=100, master_seed=1004)
    ratios = [pt["median_ratio"] for pt in s["points"]]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.35
    fit = s["rate_fit"]
    assert fit is not None
    assert fit["slope"] >= 1.1


def test_risk_identity_frequencies(tmp_path):
    """Estimation error matches the prox risk, and the deviation bound holds,
    in the required fraction of replications."""
    s = run("risk_identity", [(2000, 1000, 5)], tmp_path,
            penalty="l1_penalized", replications=200, master_seed=1005,
            mc_inner=4000)
    pt = s["points"][0]
    assert pt["risk_ratio_close_freq"] >= 0.90
    assert pt["risk_bound_freq"] >= 0.93


def test_group_prox_risk_matches_blockwise_oracle():
    """Block shrinkage risk equals the sum of independent per-block risks."""
    groups = GroupStructure(40, 5)
    pen = GroupPenalty(0.2, groups)
    beta = np.zeros(200)
    beta[0:5] = 0.8
    beta[5:10] = -0.6
    beta[10:15] = 0.25
    beta[15:20] = 1.4
    sigma, n = 1.2, 500
    draws = 300000
    risk, se = pen.prox_risk(beta, sigma, n, n_draws=draws, seed=1006)

    tau = sigma / np.sqrt(n)
    rng = stream_rng(1006, 77)
    total = np.zeros(draws)
    for k in range(groups.M):
        bk = beta[groups.groups[k]]
        pts = bk[None, :] + tau * rng.standard_normal((draws, groups.d))
        norms = np.linalg.norm(pts, axis=1)
        scale = np.maximum(1.0 - pen.level / np.where(norms > 0, norms, 1.0),
                           0.0)
        diff = bk[None, :] - pts * scale[:, None]
        total += (diff * diff).sum(axis=1)
    oracle = total.mean()
    o_se = total.std(ddof=1) / np.sqrt(total.size)
    assert abs(risk - oracle) <= 3.0 * np.hypot(se, o_se)


def test_debiased_interval_coverage_near_nominal(tmp_path):
    """Coverage of theta_hat +- 1.96/sqrt(n) for the first coordinate.

    Signals sit at the universal-threshold scale so the first-order remainder
    stays below the interval width; see the harness docs for the knobs.
    """
    s = run("coverage", [(1000, 2000, 5)], tmp_path,
            penalty="l1_penalized", replications=500, master_seed=1007,
            xi=0.05, amplitude=0.1)
    pt = s["points"][0]
    assert 0.92 <= pt["coverage"] <= 0.975


def test_lasso_error_vectors_land_in_cone(tmp_path):
    xi, n, p, s_sp, reps = 0.5, 1000, 1000, 5, 300
    s = run("rates", [(n, p, s_sp)], tmp_path,
            penalty="l1_penalized", xi=xi, replications=reps,
            master_seed=1008)
    freq = s["points"][0]["cone_freq"]
    threshold = 1.0 - 2.0 / (xi ** 2 * np.log(p / s_sp) * (p / s_sp) ** xi)
    se = np.sqrt(max(freq * (1.0 - freq), 0.0) / reps)
    assert freq >= threshold - 3.0 * se


def test_group_error_vectors_land_in_cone(tmp_path):
    xi, n, s_sp, M, d, reps = 0.5, 1000, 5, 250, 4, 300
    s = run("rates", [(n, M * d, s_sp, M, d)], tmp_path,
            penalty="group_lasso", xi=xi, replications=reps,
            master_seed=2008)
    freq = s["points"][0]["cone_freq"]
    threshold = 1.0 - 2.0 / (2.0 * xi ** 2 * np.log(M / s_sp)
                             * (M / s_sp) ** xi)
    se = np.sqrt(max(freq * (1.0 - freq), 0.0) / reps)
    assert freq >= threshold - 3.0 * se


def test_expansion_group_support_stays_bounded(tmp_path):
    """Nonzero-group count of the surrogate solution stays within the
    computed multiple of the true group sparsity."""
    s = run("rates", [(2000, 800, 5, 200, 4)], tmp_path,
            penalty="group_lasso", replications=200, master_seed=1009)
    assert s["points"][0]["sparsity_freq"] >= 0.90


def test_logistic_curvature_slope_constant():
    """Grid maximization of |d l''/du| recovers 1/(6 sqrt(3))."""
    lg = get_loss("logistic")
    u = np.arange(-12.0, 12.0, 1e-4)
    deriv = np.gradient(lg.d2(0.0, u), u)
    analytic = 1.0 / (6.0 * np.sqrt(3.0))
    assert abs(np.abs(deriv).max() - analytic) <= 1e-6
    assert lg.d2_lipschitz == analytic


def test_logistic_taylor_remainder_within_cubic_bound():
    """Second-order remainder obeys the cubic bound row by row."""
    p = 2
    cov = CovarianceModel.identity(p)
    beta_star = np.array([0.5, -0.3])
    lg = get_loss("logistic")
    ds = simulate(cov, beta_star, 10000, lg, "gaussian", 1.0, 1010)
    r = np.random.default_rng(1010)
    for _ in range(3):
        beta = r.uniform(-2.0, 2.0, size=p)
        assert taylor_remainder_gap(ds, lg, beta, beta_star) <= 1e-10


def test_logistic_curvature_stability_on_grid():
    grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
    report = stability_ratio_check(get_loss("logistic"), grid, grid,
                                   max_gap=5.0)
    assert report.ok
    assert report.worst_quotient <= 1.0 + 1e-12


def test_curvature_quadrature_matches_mc_entrywise():
    """Quadrature curvature matrix agrees with a large MC oracle to 1%.

    Equicorrelated covariance keeps every entry away from zero so the
    entrywise relative comparison is meaningful.
    """
    p, rho = 5, 0.5
    cov = dense_covariance((1 - rho) * np.eye(p) + rho * np.ones((p, p)))
    beta_star = 0.25 * np.ones(p)
    lg = get_loss("logistic")
    K = curvature_matrix(lg, cov, beta_star)
    Kmc = curvature_matrix_mc(lg, cov, beta_star, 4000000, 1011)
    assert np.all(np.abs(K.matrix - Kmc.matrix) <= 0.01 * np.abs(K.matrix))


def test_records_identical_across_thread_counts(tmp_path):
    grid = [(200, 100, 3), (400, 200, 3)]
    kw = dict(penalty="l1_penalized", replications=8, master_seed=12012)
    run("rates", grid, tmp_path / "a", threads=1, **kw)
    run("rates", grid, tmp_path / "b", threads=3, **kw)
    a = (tmp_path / "a" / "records.csv").read_bytes()
    b = (tmp_path / "b" / "records.csv").read_bytes()
    assert a == b


def test_records_identical_across_blas_and_worker_threads(tmp_path):
    """Logistic AR(1) runs, whose set-up and tasks make BLAS calls with
    correlated Sigma, write the same bytes whatever the process's OpenBLAS
    thread count and the worker count."""
    if not harness._openblas_libs():
        pytest.skip("no OpenBLAS mapped into this process")
    grid = [(200, 400, 5), (400, 800, 5), (800, 1600, 5)]
    kw = dict(loss="logistic", penalty="l1_constrained",
              covariance="ar1:0.5", amplitude=0.25, replications=2,
              master_seed=12021)
    bodies = set()
    for blas in (1, 2):
        for threads in (1, 2):
            out = tmp_path / ("blas%d-threads%d" % (blas, threads))
            with harness._blas_threads(blas):
                run("rates", grid, out, threads=threads, **kw)
            bodies.add((out / "records.csv").read_bytes())
    assert len(bodies) == 1
