import json
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest

from oracles import (block_risk_mpmath, curvature_fluctuations,
                     curvature_lower_bound, empirical_curvature_ratio, lasso,
                     lasso_risk_erfc, make_dataset, prox_risk_quadrature,
                     prox_risk_unchunked, taylor_remainder_gap)
from penexp.diagnostics import (debiased_estimate, risk_identity_check,
                                sparsity_bound, sparsity_count)
from penexp.harness import parse_config
from penexp.losses import curvature_matrix, get_loss
from penexp.model import (CovarianceModel, GroupStructure, flat_signal,
                          generate_design, stream_rng)
from penexp.penalties import (MC_CHUNK_ELEMENTS, GroupPenalty,
                              L1BallConstraint)
from penexp.solver import fit_expansion, fit_penalized


SQ = get_loss("squared")
LG = get_loss("logistic")


def linear_dataset(n, p, s, seed, noise_sd=1.0, amplitude=1.0, rho=0.0,
                   design_kind="gaussian"):
    cov = CovarianceModel.identity(p) if rho == 0.0 else CovarianceModel.ar1(p, rho)
    X = generate_design(cov, n, design_kind=design_kind, seed=seed)
    beta = flat_signal(p, s, amplitude)
    return make_dataset(X, beta, SQ, noise_sd, seed + 1, covariance=cov,
                        design_kind=design_kind)


def test_prox_risk_identity_prox():
    # zero penalty level: prox is the identity, risk is tau^2 * p
    beta = np.array([1.0, -2.0, 0.0, 3.0])
    risk, se = lasso(0.0, 4).prox_risk(beta, 2.0, 100, 40000, 11)
    assert risk == pytest.approx(4.0 * 4.0 / 100.0, rel=1e-15)
    assert se == 0.0


def test_prox_risk_huge_level():
    # the prox collapses to zero, every draw contributes ||beta*||^2
    beta = np.array([1.0, -2.0, 0.5])
    risk, se = lasso(1e6, 3).prox_risk(beta, 1.0, 50, 200, 3)
    assert risk == pytest.approx(float(beta @ beta), rel=1e-12)
    assert se == 0.0


@pytest.mark.parametrize("level, beta, sigma, n", [
    (0.2, [1.0, 0.0, 0.0], 1.0, 100),
    (0.06, [1.0, 0.0], 1.0, 3200),
    (0.3, [0.05, -0.2, 0.45, 2.0], 1.5, 40),
    (0.5, [0.3, -1.0], 2.0, 400)],
    ids=["weak", "m56", "mixed", "sigma2"])
def test_prox_risk_lasso_matches_quadrature_and_erfc(level, beta, sigma, n):
    # the block formula at d = 1 is the lasso's: it draws nothing and
    # matches both independent routes to 1e-12
    beta = np.array(beta)
    pen = lasso(level, beta.size)
    risk, se = pen.prox_risk(beta, sigma, n, 2, 0)
    assert se == 0.0
    for want in (prox_risk_quadrature(pen, beta, sigma, n),
                 lasso_risk_erfc(level, beta, sigma, n)):
        assert risk == pytest.approx(want, rel=1e-12)


def test_prox_risk_quadrature_pinned_to_erfc_at_large_signal():
    # beta*_j = 1 at n = 3200, level 0.06: m = |beta*_j|/tau = 56.6, where
    # one quadrature piece from a kink far left of 0 to +inf misses the
    # Gaussian's mass near 0; the p = 6400, s = 5 risk is 0.019736
    pen, beta = lasso(0.06, 2), np.array([1.0, 0.0])
    want = lasso_risk_erfc(0.06, beta, 1.0, 3200)
    assert prox_risk_quadrature(pen, beta, 1.0, 3200) == \
        pytest.approx(want, rel=1e-12)
    whole = 5 * want + 6395 * lasso_risk_erfc(0.06, [0.0], 1.0, 3200)
    assert whole == pytest.approx(0.019736, abs=5e-7)


# block_risk_mpmath(m, t, d) at 40 digits, keyed by (d, t, m), as
# tests/make_block_risk_references.py writes them
BLOCK_RISK_REFS = {
    (r["d"], r["t"], r["m"]): float.fromhex(r["risk"])
    for r in json.loads((pathlib.Path(__file__).parent
                         / "block_risk_mpmath.json").read_text())}


@pytest.mark.parametrize("d", [2, 4, 5])
def test_group_prox_risk_matches_mpmath_sure_integral(d):
    # one block of norm m tau at level t tau against the same SURE integral
    # at 40 digits, read from the committed references; where the risk is
    # below 1e-8 its terms cancel, and the 1e-20 absolute floor covers the
    # rounding they leave
    n, sigma = 100, 1.0
    tau = sigma / np.sqrt(n)
    # one reference per d is recomputed, so the file cannot drift unseen
    assert BLOCK_RISK_REFS[(d, 2.0, 3.0)] == block_risk_mpmath(3.0, 2.0, d)
    for t in (0.5, 2.0, 8.0):
        pen = GroupPenalty(t * tau, GroupStructure(1, d))
        for m in (0.0, 0.5, 3.0, 20.0, 100.0):
            beta = np.full(d, m * tau / np.sqrt(d))
            risk, se = pen.prox_risk(beta, sigma, n, 2, 0)
            want = BLOCK_RISK_REFS[(d, t, m)] * tau * tau
            assert se == 0.0
            assert abs(risk - want) <= 1e-12 * want + 1e-20 * tau * tau, \
                (d, m, t, risk, want)


def test_group_prox_risk_far_above_the_level_matches_kummer():
    # at m = ||b*_G||/tau in the thousands the block is never killed, and
    # the risk is tau^2 (t^2 + d - 2(d - 1) t E[1/R]) with
    # E[1/R] = Gamma((d-1)/2) / (sqrt(2) Gamma(d/2)) 1F1(1/2; d/2; -m^2/2);
    # the Poisson window spans several chunks, whose memory stays bounded
    n, sigma, t, d = 100, 1.0, 11.0, 4
    tau = sigma / np.sqrt(n)
    pen = GroupPenalty(t * tau, GroupStructure(2, d))
    for m in (5000.0, 20000.0):
        beta = np.concatenate([np.full(d, m * tau / 2.0), np.zeros(d)])
        tracemalloc.start()
        try:
            risk, se = pen.prox_risk(beta, sigma, n, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with mpmath.workdps(30):
            half_d = mpmath.mpf(d) / 2
            inv_r = mpmath.gamma(half_d - 0.5) / (
                mpmath.sqrt(2) * mpmath.gamma(half_d)) * \
                mpmath.hyp1f1(0.5, half_d, -mpmath.mpf(m) ** 2 / 2)
            block = float(t * t + d - 2 * (d - 1) * t * inv_r)
        null = block_risk_mpmath(0.0, t, d)
        assert risk == pytest.approx(tau * tau * (block + null), rel=1e-11)
        assert se == 0.0 and peak < 16e6


def test_prox_risk_zero_noise_is_the_prox_distance():
    # tau = 0: the risk is ||b* - prox(b*)||^2, min(||b*_G||, level)^2 per
    # block
    pen = GroupPenalty(0.5, GroupStructure(3, 2))
    beta = np.array([0.3, 0.0, 3.0, 4.0, 0.0, 0.0])
    risk, se = pen.prox_risk(beta, 0.0, 10, 2, 0)
    assert risk == pytest.approx(0.3 ** 2 + 0.5 ** 2, rel=1e-15)
    assert se == 0.0


def test_exact_risk_matches_unchunked_monte_carlo():
    # 1e5 draws of stream purpose 4 against the exact lasso and group risks
    for pen, beta in ((lasso(0.15, 30), flat_signal(30, 3, 0.4)),
                      (GroupPenalty(0.25, GroupStructure(10, 4)),
                       flat_signal(40, 8, 0.3))):
        risk, se = pen.prox_risk(beta, 1.2, 60, 2, 0)
        mc, mc_se = prox_risk_unchunked(pen, beta, 1.2, 60, 100000, 1011)
        assert se == 0.0
        assert abs(risk - mc) <= 3.0 * mc_se


def test_prox_risk_quadrature_zero_tau():
    beta = np.array([2.0, 0.3])
    pen = lasso(0.5, 2)
    val = prox_risk_quadrature(pen, beta, 0.0, n=25)
    # deterministic: distance between beta and its soft threshold
    assert val == pytest.approx(0.5 ** 2 + 0.3 ** 2, rel=1e-12)


def test_prox_risk_quadrature_l1_only():
    groups = GroupStructure(2, 2)
    with pytest.raises(ValueError):
        prox_risk_quadrature(GroupPenalty(0.1, groups), np.zeros(4), 1.0, 10)


@pytest.mark.parametrize("penalty", [L1BallConstraint(2.5)],
                         ids=["l1_ball"])
def test_prox_risk_mc_chunks_match_one_draw(penalty):
    # three full chunks and a short fourth; the chunked, in-place loop must
    # reproduce the one-draw estimate bit for bit
    p = 2000
    chunk = MC_CHUNK_ELEMENTS // p
    n_draws = 3 * chunk + chunk // 3
    beta = flat_signal(p, 8, 0.5)
    got = penalty.prox_risk(beta, 1.3, 150, n_draws, seed=31)
    assert got == prox_risk_unchunked(penalty, beta, 1.3, 150, n_draws, 31)


@pytest.mark.parametrize("penalty", [
    lasso(0.05, 1000), L1BallConstraint(2.5),
    GroupPenalty(0.08, GroupStructure(250, 4))],
    ids=["l1", "l1_ball", "group"])
def test_prox_risk_mc_memory_stays_chunk_sized(penalty):
    # 4000 draws at p = 1000 are 32 MB at once; in chunks of
    # MC_CHUNK_ELEMENTS numbers the ball's loop keeps its arrays near
    # 256 KB each, and the exact risks draw nothing
    beta = flat_signal(1000, 5, 0.5)
    tracemalloc.start()
    try:
        penalty.prox_risk(beta, 1.0, 2000, 4000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_group_prox_risk_blockwise_oracle():
    """Group shrinkage risk equals the sum of independent per-block risks."""
    groups = GroupStructure(5, 3)
    pen = GroupPenalty(0.3, groups)
    beta = np.zeros(15)
    beta[0:3] = 1.0
    beta[3:6] = -0.5
    sigma, n = 1.0, 64
    risk, se = pen.prox_risk(beta, sigma, n, n_draws=400000, seed=29)

    # independent blockwise MC with its own stream
    tau = sigma / np.sqrt(n)
    rng = stream_rng(999, 4)
    total = np.zeros(400000)
    for k in range(5):
        bk = beta[groups.groups[k]]
        Z = rng.standard_normal((400000, 3))
        pts = bk[None, :] + tau * Z
        norms = np.linalg.norm(pts, axis=1)
        scale = np.maximum(1.0 - pen.level / np.where(norms > 0, norms, 1.0),
                           0.0)
        diff = bk[None, :] - pts * scale[:, None]
        total += (diff * diff).sum(axis=1)
    oracle = total.mean()
    o_se = total.std(ddof=1) / np.sqrt(total.size)
    assert abs(risk - oracle) <= 3.0 * np.hypot(se, o_se)


def test_risk_identity_noiseless():
    ds = linear_dataset(60, 20, 3, seed=41, noise_sd=0.0)
    rep = risk_identity_check(ds, ds.beta_star, ds.beta_star, lasso(0.0, ds.p),
                              n_mc=100, seed=1)
    assert rep["risk_lhs"] == 0.0
    assert rep["risk_rhs"] == 0.0
    # lhs / rhs has no value: no NaN for records.csv or summary.json
    assert rep["risk_ratio"] is None
    assert rep["risk_ok"]
    assert rep["risk_bound"] == 0.0


def test_risk_identity_small_run():
    ds = linear_dataset(300, 40, 3, seed=43)
    pen = lasso(0.25, ds.p)
    fit = fit_penalized(ds, SQ, pen)
    K = curvature_matrix(SQ, ds.covariance, ds.beta_star)
    exp = fit_expansion(ds, SQ, K, ds.beta_star, pen)
    rep = risk_identity_check(ds, fit.solution, exp.solution, pen, n_mc=20000, seed=7)
    assert rep["risk_ratio"] == pytest.approx(
        rep["risk_lhs"] / rep["risk_rhs"], rel=1e-12)
    # the paper's sigma (t + 1)/sqrt(n) at t = 2, with the realized sigma,
    # plus the gap between the estimate and its expansion
    sigma = np.sqrt(np.mean(ds.noise ** 2))
    gap = np.linalg.norm(fit.solution - exp.solution)
    assert rep["risk_bound"] == pytest.approx(
        3.0 * sigma / np.sqrt(ds.n) + gap, rel=1e-12)
    assert rep["risk_ok"] == (
        abs(rep["risk_lhs"] - rep["risk_rhs"]) <= rep["risk_bound"])
    # at these sizes the identity is already fairly tight
    assert 0.5 <= rep["risk_ratio"] <= 2.0


def refused_config(lines):
    """The message a config with these lines is refused with."""
    with pytest.raises(ValueError) as refusal:
        parse_config("%s\ngrid = n=50 p=20 s=2\n" % lines)
    return str(refusal.value)


def test_risk_identity_refusals():
    # each dataset is refused with the message that refuses the config
    # asking for it: both read risk_identity_hypotheses
    cov = CovarianceModel.identity(10)
    X = generate_design(cov, 40, seed=5)
    beta = flat_signal(10, 2, 0.5)
    logit = make_dataset(X, beta, LG, 1.0, 6, covariance=cov)
    ds_ar = linear_dataset(40, 10, 2, seed=7, rho=0.5)
    ds_rad = linear_dataset(40, 10, 2, seed=8, design_kind="rademacher")
    for ds, line in ((logit, "loss = logistic"),
                     (ds_ar, "covariance = ar1:0.5"),
                     (ds_rad, "design = rademacher")):
        message = refused_config("experiment = risk_identity\n" + line)
        assert message.startswith("the risk identity needs linear data")
        with pytest.raises(ValueError) as refusal:
            risk_identity_check(ds, beta, beta, lasso(0.1, 10), 10, 1)
        assert str(refusal.value) == message


def test_debiased_at_truth():
    """With beta_hat = beta*, the error is exactly the score-averaged noise."""
    ds = linear_dataset(200, 30, 3, seed=51)
    rep = debiased_estimate(ds, ds.beta_star, np.eye(30)[0], 1.0)
    z_a = ds.X[:, 0]
    expected = float(z_a @ ds.noise) / float(z_a @ z_a)
    assert rep["theta_hat"] - rep["target"] == pytest.approx(expected,
                                                            abs=1e-14)
    assert rep["t_stat"] == pytest.approx(np.sqrt(ds.n) * expected,
                                          abs=1e-10)


def test_debiased_scale_invariance():
    ds = linear_dataset(150, 20, 2, seed=53, rho=0.4)
    pen = lasso(0.3, ds.p)
    fit = fit_penalized(ds, SQ, pen)
    a = np.zeros(20)
    a[3] = 1.0
    r1 = debiased_estimate(ds, fit.solution, a, 1.0)
    r2 = debiased_estimate(ds, fit.solution, 5.0 * a, 1.0)
    assert r1["theta_hat"] == pytest.approx(r2["theta_hat"], rel=1e-12)
    assert r1["target"] == pytest.approx(r2["target"], rel=1e-12)
    assert r1["t_stat"] == pytest.approx(r2["t_stat"], rel=1e-9)


def test_debiased_score_is_design_column():
    # identity covariance and a = e1: the score vector is the first column
    ds = linear_dataset(100, 12, 2, seed=57)
    a = np.zeros(12)
    a[0] = 2.0  # normalization brings this back to e1
    rep = debiased_estimate(ds, np.zeros(12), a, 1.0)
    assert rep["target"] == ds.beta_star[0]
    manual = float(ds.X[:, 0] @ ds.y) / float(ds.X[:, 0] @ ds.X[:, 0])
    assert rep["theta_hat"] == pytest.approx(manual, rel=1e-12)


def test_debiased_interval_consistency():
    ds = linear_dataset(120, 15, 2, seed=59)
    pen = lasso(0.2, ds.p)
    fit = fit_penalized(ds, SQ, pen)
    # the half-width 1.96 sigma/sqrt(n) is 1.96 in t_stat units; a smaller
    # nominal sigma narrows the interval so that some targets fall outside
    seen = set()
    for sd in (1.0, 0.7):
        for j in range(15):
            rep = debiased_estimate(ds, fit.solution, np.eye(15)[j], sd)
            assert abs(abs(rep["t_stat"]) - 1.96) > 1e-3
            assert rep["covered"] == (abs(rep["t_stat"]) <= 1.96)
            seen.add(rep["covered"])
    assert seen == {True, False}
    # the interval's half-width is 1.96 noise_sd/sqrt(n), and logistic
    # labels have no noise sd; each refusal is the one of the config asking
    # for it, as both read interval_hypotheses
    logit = make_dataset(ds.X, ds.beta_star, LG, 1.0, 60,
                         covariance=ds.covariance)
    for data, sd, line, message in (
            (ds, 0.0, "noise_sd = 0", "need linear data with noise_sd > 0"),
            (logit, 1.0, "loss = logistic",
             "need linear data with noise_sd > 0, got logistic data")):
        with pytest.raises(ValueError, match=message) as refusal:
            debiased_estimate(data, fit.solution, np.eye(15)[0], sd)
        assert str(refusal.value) == \
            refused_config("experiment = coverage\n" + line)


def _counts(beta, bound, groups=None):
    cells = sparsity_count(np.array(beta), bound, groups)
    assert cells["sparsity_bound"] == bound
    return cells["nnz_coords"], cells["nnz_groups"], cells["sparsity_ok"]


def test_sparsity_count_plain():
    assert _counts([0.0] * 4, 1.5) == (0, None, True)
    assert _counts([1.0, 0.0, -2.0, 0.0], 1.5) == (2, None, False)
    # the bound itself passes
    assert _counts([1.0, 0.0, -2.0, 0.0], 2.0) == (2, None, True)


def test_sparsity_count_groups():
    groups = GroupStructure(2, 2)
    assert _counts([0.0] * 4, 1.0, groups) == (0, 0, True)
    assert _counts([1.0, 0.0, 0.0, 2.0], 1.0, groups) == (2, 2, False)
    # groups, not coordinates, are held against the bound
    assert _counts([1.0, 0.5, 0.0, 0.0], 1.0, groups) == (2, 1, True)


def test_sparsity_constant_value():
    # identity Sigma = K: C_max = B3 = phi = 1, so at s = 1 the bound is
    # the constant 1 + {2(3+xi)(1+1/xi)}^2 itself
    cov = CovarianceModel.identity(4)
    assert sparsity_bound(1, 1.0, cov, cov) == 257.0
    # C_max B3^2 / phi^2 = 1e-18 for a curvature far above Sigma: the
    # second term vanishes
    far = CovarianceModel.rank_one(cov, 1e18, 0.0, np.zeros(4))
    assert sparsity_bound(1, 1.0, cov, far) == pytest.approx(1.0, abs=1e-12)
    # K = I - e1 e1'/2 keeps C_max = 1 and doubles B3 = 1/min(1, 1/2)
    base = sparsity_bound(1, 0.5, cov, cov)
    half = CovarianceModel.rank_one(cov, 1.0, -0.5, np.eye(4)[0])
    doubled = sparsity_bound(1, 0.5, cov, half)
    assert doubled - 1.0 == pytest.approx(4.0 * (base - 1.0), rel=1e-12)


def _composed_sparsity_bound(s, xi, cov, K, groups):
    # The support-size bound written out factor by factor, with the
    # arithmetic that sparsity_bound must keep bit for bit: C_max, then
    # phi = sqrt(eig_min), then B3, then the constant times s
    if groups is not None:
        c_max = max(
            float(np.linalg.eigvalsh(K.principal(g)).max())
            for g in groups.groups)
    else:
        c_max = K.eig_max
    phi = float(np.sqrt(cov.eig_min))
    b3 = 1.0 if K is cov else 1.0 / K.relative_bounds[0]
    if min(c_max, xi, b3, phi) <= 0:
        raise ValueError("all arguments must be > 0")
    factor = 2.0 * (3.0 + xi) * (1.0 + 1.0 / xi)
    c_tilde = float(1.0 + c_max * factor * factor * b3 * b3 / (phi * phi))
    return c_tilde * s


@pytest.mark.filterwarnings("ignore:.*expansion is unverified")
@pytest.mark.parametrize("spec", ["identity", "ar1:0.5", "ar1:-0.3"])
@pytest.mark.parametrize("loss", ["squared", "logistic"])
@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("xi", [0.1, 0.5])
def test_sparsity_bound_matches_the_composed_bound_bitwise(spec, loss,
                                                           grouped, xi):
    M, d, s = 8, 3, 3
    cov = CovarianceModel.from_spec(spec, M * d)
    beta = flat_signal(M * d, s * d, 0.25)
    K = curvature_matrix(get_loss(loss), cov, beta)
    assert (K is cov) == (loss == "squared")
    groups = GroupStructure(M, d) if grouped else None
    got = sparsity_bound(s, xi, cov, K, groups)
    assert got == _composed_sparsity_bound(s, xi, cov, K, groups)
    assert got > s


def test_fluctuations_shrink_with_n():
    """Sample curvature errors along a fixed direction decay like 1/sqrt(n)."""
    p = 15
    cov = CovarianceModel.identity(p)
    beta = flat_signal(p, 3, 1.0)
    K = curvature_matrix(SQ, cov, beta)
    rng = np.random.default_rng(61)
    u = rng.standard_normal(p)
    meds = {}
    for n in (2000, 32000):
        vals = []
        for rep in range(30):
            ds = linear_dataset(n, p, 3, seed=1000 * n + rep)
            out = curvature_fluctuations(ds, SQ, K, beta, [u])
            vals.append(out["quad_err"][0])
        meds[n] = np.median(vals)
        # q1 concentrates at scale sqrt(2/n)
        assert meds[n] <= 3.0 * np.sqrt(2.0 / n)
    assert meds[2000] > 2.0 * meds[32000]


def test_fluctuations_diagonal_matches():
    ds = linear_dataset(500, 10, 2, seed=63)
    K = curvature_matrix(SQ, ds.covariance, ds.beta_star)
    rng = np.random.default_rng(64)
    dirs = [rng.standard_normal(10) for _ in range(3)]
    out = curvature_fluctuations(ds, SQ, K, ds.beta_star, dirs)
    for i in range(3):
        assert out["cross_err"][i][i] == pytest.approx(out["quad_err"][i],
                                                       rel=1e-12)
        for j in range(3):
            assert out["cross_err"][i][j] == out["cross_err"][j][i]


def test_fluctuations_cubic_moment():
    # E|g|^3 = 2 sqrt(2/pi) for a standard normal index
    n = 200000
    ds = linear_dataset(n, 4, 1, seed=67)
    K = curvature_matrix(SQ, ds.covariance, ds.beta_star)
    u = np.eye(4)[0]
    out = curvature_fluctuations(ds, SQ, K, ds.beta_star, [u])
    w = np.abs(ds.X[:, 0]) ** 3
    se = w.std(ddof=1) / np.sqrt(n)
    assert abs(out["cubic_moment"][0] - 2.0 * np.sqrt(2.0 / np.pi)) <= 3.0 * se


def test_fluctuations_zero_direction():
    ds = linear_dataset(50, 5, 1, seed=69)
    K = curvature_matrix(SQ, ds.covariance, ds.beta_star)
    with pytest.raises(ValueError):
        curvature_fluctuations(ds, SQ, K, ds.beta_star, [np.zeros(5)])


def test_taylor_gap_squared_is_zero():
    ds = linear_dataset(40, 6, 2, seed=71)
    val = taylor_remainder_gap(ds, SQ, ds.beta_star + 0.3, ds.beta_star)
    assert val == 0.0


def test_taylor_gap_logistic():
    cov = CovarianceModel.identity(5)
    X = generate_design(cov, 30, seed=73)
    beta = flat_signal(5, 2, 0.5)
    ds = make_dataset(X, beta, LG, 1.0, 74, covariance=cov)
    rng = np.random.default_rng(75)
    for _ in range(3):
        other = beta + 0.5 * rng.standard_normal(5)
        assert taylor_remainder_gap(ds, LG, other, beta) <= 1e-10
    # beta = beta*: the increment vanishes identically
    assert taylor_remainder_gap(ds, LG, beta, beta) <= 1e-12


def test_curvature_ratio_squared():
    """Squared loss: the remainder is exactly half the sample quadratic form."""
    n = 4000
    ds = linear_dataset(n, 8, 2, seed=77)
    K = curvature_matrix(SQ, ds.covariance, ds.beta_star)
    rng = np.random.default_rng(78)
    u = rng.standard_normal(8)
    u /= np.linalg.norm(u)
    ratio, in_ball = empirical_curvature_ratio(ds, SQ, K, ds.beta_star, u)
    assert in_ball
    manual = 0.5 * float(u @ (ds.X.T @ (ds.X @ u))) / n
    assert ratio == pytest.approx(manual, rel=1e-9)
    assert abs(ratio - 0.5) <= 0.5 * 3.0 * np.sqrt(2.0 / n)


def test_curvature_ratio_ball_flag():
    ds = linear_dataset(100, 6, 2, seed=79)
    K = curvature_matrix(SQ, ds.covariance, ds.beta_star)
    u = np.eye(6)[2]
    _, small = empirical_curvature_ratio(ds, SQ, K, ds.beta_star, 0.5 * u)
    _, big = empirical_curvature_ratio(ds, SQ, K, ds.beta_star, 2.0 * u)
    assert small and not big
    with pytest.raises(ValueError):
        empirical_curvature_ratio(ds, SQ, K, ds.beta_star, np.zeros(6))


def test_curvature_ratio_logistic_lower_bound():
    """Logistic remainders stay above the restricted strong convexity floor."""
    p = 6
    cov = CovarianceModel.identity(p)
    beta = flat_signal(p, 2, 0.5)
    K = curvature_matrix(LG, cov, beta)
    floor = curvature_lower_bound(LG, 1.0)
    hits = 0
    rng = np.random.default_rng(81)
    for rep in range(40):
        X = generate_design(cov, 500, seed=4000 + rep)
        ds = make_dataset(X, beta, LG, 1.0, 8000 + rep, covariance=cov)
        u = rng.standard_normal(p)
        u /= K.norm(u) * 1.25  # keep ||u||_K safely inside the unit ball
        ratio, in_ball = empirical_curvature_ratio(ds, LG, K, beta, u)
        assert in_ball
        if ratio >= floor:
            hits += 1
    assert hits >= 36
