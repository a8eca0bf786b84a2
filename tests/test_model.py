import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings, strategies as st

from penexp import losses, model
from penexp.losses import LOGISTIC, SQUARED


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cov", [
    model.CovarianceModel.identity(7), model.CovarianceModel.ar1(7, 0.0),
    model.CovarianceModel.ar1(7, -0.0), model.CovarianceModel.ar1(1, 0.6)],
    ids=["identity", "ar1_0", "ar1_minus_0", "ar1_p1"])
def test_identity_principal_is_eye_bitwise(cov):
    assert cov.is_identity
    for idx in ([0], np.arange(cov.p), [6, 0, 3], [2, 5], []):
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and idx.max() >= cov.p:
            continue
        assert same_bits(cov.principal(idx), np.eye(idx.size))
    assert same_bits(cov.matrix, np.eye(cov.p))


@pytest.mark.parametrize("base", [
    model.CovarianceModel.identity(6), model.CovarianceModel.ar1(6, -0.0),
    model.CovarianceModel.ar1(6, 0.5), model.CovarianceModel.ar1(6, -0.7)],
    ids=["identity", "ar1_minus_0", "ar1_0.5", "ar1_-0.7"])
def test_rank_one_matrix_is_its_formula_bitwise(base):
    q = np.random.default_rng(8).standard_normal(base.p)
    q[2] = -0.0
    m0, c = 0.7, -0.3 / float(q @ base.solve(q))
    K = model.CovarianceModel.rank_one(base, m0, c, q)
    assert same_bits(K.matrix, m0 * base.matrix + c * np.outer(q, q))
    idx = np.array([4, 1, 2])
    assert same_bits(K.principal(idx), K.matrix[np.ix_(idx, idx)])


def test_identity_covariance_basic():
    cov = model.CovarianceModel.identity(5)
    assert cov.p == 5
    assert np.array_equal(cov.matrix, np.eye(5))
    assert np.array_equal(cov.sqrt_rows(np.eye(5)), np.eye(5))
    assert np.array_equal(cov.solve(np.eye(5)), np.eye(5))
    assert cov.is_identity


def test_ar1_matrix_entries():
    cov = model.CovarianceModel.ar1(4, 0.5)
    for i in range(4):
        for j in range(4):
            assert cov.matrix[i, j] == pytest.approx(0.5 ** abs(i - j))


def test_covariance_from_spec():
    assert model.CovarianceModel.from_spec("identity", 6).is_identity
    cov = model.CovarianceModel.from_spec("ar1:0.5", 6)
    assert np.array_equal(cov.matrix, model.CovarianceModel.ar1(6, 0.5).matrix)
    for spec in ("ar2:0.5", "toeplitz", ""):
        with pytest.raises(ValueError, match="unknown covariance"):
            model.CovarianceModel.from_spec(spec, 6)
    with pytest.raises(ValueError):
        model.CovarianceModel.from_spec("ar1:strong", 6)


def test_covariance_factorizations_consistent():
    cov = model.CovarianceModel.ar1(12, 0.7)
    root = cov.sqrt_rows(np.eye(12))
    assert np.allclose(root @ root, cov.matrix, atol=1e-10)
    assert np.allclose(cov.matrix @ cov.solve(np.eye(12)), np.eye(12),
                       atol=1e-10)
    # symmetric square root, not a Cholesky factor
    assert np.array_equal(root, root.T)


def test_covariance_rejects_bad_input():
    with pytest.raises(ValueError):
        model.CovarianceModel.ar1(5, 1.0)
    with pytest.raises(ValueError):
        model.CovarianceModel.ar1(5, -1.0)
    # a closed-form AR(1) spectrum below the 1e-10 floor is refused
    with pytest.raises(ValueError, match="not positive definite"):
        model.CovarianceModel.ar1(60, 1.0 - 1e-11)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 30, 200])
@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.3, 0.5, 0.9, 0.99])
def test_ar1_closed_form_eigenpairs_match_eigh(p, rho):
    idx = np.arange(p)
    dense = rho ** np.abs(idx[:, None] - idx[None, :])
    ref = np.linalg.eigvalsh(dense)
    w, V = model._ar1_eigenpairs(p, rho)
    eps = np.finfo(float).eps
    assert np.all(np.diff(w) > 0)
    assert np.abs(w - ref).max() <= 1e-13 * ref[-1]
    assert np.linalg.norm(V.T @ V - np.eye(p), 2) <= 10 * p * eps
    assert np.linalg.norm(dense @ V - V * w, 2) <= 10 * p * eps * ref[-1]
    cov = model.CovarianceModel.ar1(p, rho)
    if p == 1:
        assert cov.is_identity
    else:
        assert np.array_equal(cov.matrix, dense)
        assert np.array_equal(cov._w, w)
        b = V * w ** 0.25
        assert np.array_equal(cov._root, b @ b.T)


# the grid of test_ar1_closed_form_eigenpairs_match_eigh, with p = 65 and
# 1000 (not multiples of the eigenvector build's block of 64 rows) and
# rho = 0.999
AR1_RHOS = [-0.9, -0.5, 0.3, 0.5, 0.9, 0.99, 0.999]


@lru_cache(maxsize=1)  # the examples of one (p, rho) share its matrices
def _ar1_and_dense(p, rho):
    idx = np.arange(p)
    return model.CovarianceModel.ar1(p, rho), \
        rho ** np.abs(idx[:, None] - idx[None, :])


@pytest.mark.parametrize("p", [1, 2, 3, 5, 30, 65, 200, 1000])
@pytest.mark.parametrize("rho", AR1_RHOS)
# a fixed seed: editing the test does not redraw its examples
@hypothesis.seed(int("3018592500636016522632191880539121279156"
                     "9461344283263549018885367720396010237104"
                     "732649942871977010576259091229311934"))
@settings(max_examples=6, deadline=None)
@given(cols=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_ar1_products_and_solves_match_dense(p, rho, cols, seed):
    # normwise relative errors: the product against the dense rho^|i-j|
    # times u, and the solve's backward error |Sigma x - u|
    cov, dense = _ar1_and_dense(p, rho)
    u = np.random.default_rng(seed).standard_normal(
        (p, cols) if cols else p)
    scale = np.abs(dense).sum(axis=1).max()
    prod = cov @ u
    assert prod.shape == u.shape
    assert np.abs(prod - dense @ u).max() <= \
        1e-13 * scale * np.abs(u).max()
    x = cov.solve(u)
    assert x.shape == u.shape
    assert np.abs(dense @ x - u).max() <= 1e-13 * scale * np.abs(x).max()
    idx = np.arange(0, p, 3)
    assert np.array_equal(cov.principal(idx), dense[np.ix_(idx, idx)])


@pytest.mark.parametrize("p, rho", [(2, 0.5), (65, -0.7), (400, 0.5),
                                    (1000, 0.999)])
def test_ar1_root_is_the_eigenvector_formula_bitwise(p, rho):
    # B B' with B = V diag(w^{1/4}), as it was built from the stored
    # eigenvectors, so that X = Z Sigma^{1/2} keeps its bits
    w, V = model._ar1_eigenpairs(p, rho)
    b = V * w ** 0.25
    assert np.array_equal(model.CovarianceModel.ar1(p, rho)._root, b @ b.T)


def test_ar1_memory_is_one_root():
    p = 1600
    square, column = 8 * p * p, 8 * p
    tracemalloc.start()
    try:
        cov = model.CovarianceModel.ar1(p, 0.5)
        held, peak = tracemalloc.get_traced_memory()
        # the root R alone is kept; the build holds the eigenvectors and R,
        # and the eigenvectors' row blocks are 64 x p
        assert square <= held <= square + 16 * column
        assert peak <= 2 * square + 128 * column
        K = losses.curvature_matrix(losses.LOGISTIC, cov,
                                    model.flat_signal(p, 5, 0.25))
        u = np.random.default_rng(0).standard_normal(p)
        K @ u, K.solve(u)  # the operators' cached constants
        for op in (K.__matmul__, K.solve, cov.__matmul__, cov.solve):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op(u)
            assert tracemalloc.get_traced_memory()[1] - base <= 8 * column
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cov", [
    model.CovarianceModel.identity(5), model.CovarianceModel.ar1(5, 0.5)],
    ids=["identity", "ar1"])
def test_relative_bounds_is_for_rank_one_updates(cov):
    # a covariance has eig_min; only a rank-one update has relative_bounds,
    # and only a covariance has a square root
    with pytest.raises(ValueError, match="rank-one updates"):
        cov.relative_bounds
    K = losses.curvature_matrix(losses.LOGISTIC, cov,
                                model.flat_signal(5, 2, 0.25))
    low, high = K.relative_bounds
    assert 0 < low <= high
    with pytest.raises(ValueError, match="builds no p x p factor"):
        K.sqrt_rows(np.eye(5))


def test_group_structure_contiguous():
    gs = model.GroupStructure(3, 2)
    assert gs.M * gs.d == 6 and gs.M == 3 and gs.d == 2
    flat = np.concatenate(gs.groups)
    assert sorted(flat.tolist()) == list(range(6))


def test_flat_signal():
    b = model.flat_signal(6, 2, amplitude=3.0)
    assert b.tolist() == [3.0, 3.0, 0.0, 0.0, 0.0, 0.0]


def test_design_shape_and_mean_zero():
    cov = model.CovarianceModel.identity(2)
    X = model.generate_design(cov, 4, "gaussian", seed=5)
    assert X.shape == (4, 2)
    big = model.generate_design(cov, 200000, "gaussian", seed=5)
    assert np.abs(big.mean(axis=0)).max() < 3.0 / np.sqrt(200000)


def test_ar1_zero_equals_identity_bitwise():
    a = model.generate_design(model.CovarianceModel.ar1(3, 0.0), 50,
                              "gaussian", seed=9)
    b = model.generate_design(model.CovarianceModel.identity(3), 50,
                              "gaussian", seed=9)
    assert np.array_equal(a, b)


def test_ar1_empirical_covariance():
    # entry (0,1) of the empirical covariance should match rho
    rho, n = 0.5, 100000
    X = model.generate_design(model.CovarianceModel.ar1(3, rho), n,
                              "gaussian", seed=21)
    emp = X[:, 0] @ X[:, 1] / n
    # var(X1 X2) = 1 + rho^2 for unit-variance margins
    se = np.sqrt((1 + rho ** 2) / n)
    assert abs(emp - rho) < 3 * se


def test_rademacher_design():
    cov = model.CovarianceModel.identity(4)
    X = model.generate_design(cov, 100, "rademacher", seed=3)
    assert set(np.unique(X)) == {-1.0, 1.0}
    with pytest.raises(ValueError):
        model.generate_design(cov, 10, "uniform", seed=3)


def test_simulate_linear_noiseless():
    cov = model.CovarianceModel.identity(3)
    beta = np.array([1.0, -1.0, 0.0])
    ds = model.simulate(cov, beta, 20, SQUARED, "gaussian", 0.0, seed=1)
    assert ds.model_kind == "linear"
    assert np.array_equal(ds.y, ds.X @ beta)
    assert model.noise_scale(ds) == 0.0


def test_simulate_linear_zero_signal():
    cov = model.CovarianceModel.identity(3)
    ds = model.simulate(cov, np.zeros(3), 20, SQUARED, "gaussian", 1.0,
                        seed=2)
    assert np.array_equal(ds.y, ds.noise)


# What simulate draws, read from the generators this path replaced: the
# Philox streams are part of the registered experiments, so these values
# may never move. Each is drawn with no BLAS: an identity design is the raw
# normals, eps is noise_sd times them, and 0.5 x_1 is an exact index.
PINNED_DESIGN = ["-0x1.9908a0f0350c7p-3", "-0x1.c1d818a19fa21p+0",
                 "-0x1.d0af30f497f55p-6", "0x1.20d7650673294p-2"]
PINNED_EPS = ["0x1.b96c248aff312p+0", "-0x1.2d3dac882a240p+1",
              "-0x1.5e650fd5d94f4p-1"]
PINNED_LABELS = "000001111011001101111101"


def test_simulate_draws_are_pinned():
    cov = model.CovarianceModel.identity(3)
    X = model.generate_design(cov, 8, "gaussian", 2024)
    assert [float(v).hex() for v in X.ravel()[[0, 1, 11, 23]]] == \
        PINNED_DESIGN
    lin = model.simulate(cov, np.zeros(3), 8, SQUARED, "gaussian", 2.0, 2024)
    assert lin.X.tobytes() == X.tobytes()
    assert [float(v).hex() for v in lin.noise[[0, 3, 7]]] == PINNED_EPS
    logit = model.simulate(cov, np.array([0.5, 0.0, 0.0]), 24, LOGISTIC,
                           "gaussian", 1.0, 2024)
    assert "".join(str(int(v)) for v in logit.y) == PINNED_LABELS


def test_noise_scale_concentrates():
    cov = model.CovarianceModel.identity(1)
    n = 100000
    ds = model.simulate(cov, np.zeros(1), n, SQUARED, "gaussian", 1.0,
                        seed=4)
    assert abs(model.noise_scale(ds) ** 2 - 1.0) < 3 * np.sqrt(2.0 / n)


def test_noise_scale_arithmetic():
    cov = model.CovarianceModel.identity(1)
    ds = model.Dataset(X=np.ones((2, 1)), y=np.zeros(2), model_kind="linear",
                       design_kind="gaussian", noise=np.array([3.0, 4.0]),
                       beta_star=np.zeros(1), covariance=cov)
    assert model.noise_scale(ds) == pytest.approx(np.sqrt(12.5))


def test_logistic_labels_balanced_at_zero_signal():
    cov = model.CovarianceModel.identity(2)
    n = 40000
    ds = model.simulate(cov, np.zeros(2), n, LOGISTIC, "gaussian", 1.0,
                        seed=7)
    assert ds.model_kind == "logistic"
    assert set(np.unique(ds.y)) <= {0.0, 1.0}
    assert abs(ds.y.mean() - 0.5) < 3.0 / (2 * np.sqrt(n))


def test_logistic_sign_convention():
    # large positive index means label 0 almost surely
    y, _ = LOGISTIC.responses(np.full(200, 30.0), 1.0, model.stream_rng(8, 1))
    assert y.sum() == 0
    y, _ = LOGISTIC.responses(np.full(200, -30.0), 1.0,
                              model.stream_rng(8, 1))
    assert y.sum() == 200


def test_logistic_moment_matches_quadrature():
    from scipy import integrate
    n = 100000
    cov = model.CovarianceModel.identity(1)
    ds = model.simulate(cov, np.array([1.0]), n, LOGISTIC, "gaussian", 1.0,
                        seed=9)
    prod = ds.y * ds.X[:, 0]
    target, _ = integrate.quad(
        lambda x: x / (1.0 + np.exp(x)) * np.exp(-x * x / 2)
        / np.sqrt(2 * np.pi), -30, 30)
    se = prod.std(ddof=1) / np.sqrt(n)
    assert abs(prod.mean() - target) < 3 * se


def test_logistic_warns_on_large_signal():
    # the warning belongs to the curvature, once per grid point; drawing
    # the labels does not repeat it
    cov = model.CovarianceModel.identity(2)
    beta = np.array([3.0, 0.0])
    with pytest.warns(UserWarning, match="expansion is unverified"):
        losses.curvature_matrix(LOGISTIC, cov, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.simulate(cov, beta, 30, LOGISTIC, "gaussian", 1.0, seed=10)
        # inside the unit ball the curvature is silent too
        losses.curvature_matrix(LOGISTIC, cov, np.array([0.6, 0.8]))


def test_logistic_noise_is_the_score_noise():
    # e = -l'(y, x'beta*) row by row, bit for bit
    cov = model.CovarianceModel.ar1(6, 0.5)
    beta = model.flat_signal(6, 2, 0.5)
    ds = model.simulate(cov, beta, 50, LOGISTIC, "gaussian", 1.0, seed=12)
    expected = -LOGISTIC.d1(ds.y, ds.X @ beta)
    assert ds.noise.tobytes() == expected.tobytes()


def test_bit_reproducibility():
    cov = model.CovarianceModel.ar1(5, 0.3)
    beta = model.flat_signal(5, 2)

    def make(seed):
        return model.simulate(cov, beta, 64, SQUARED, "gaussian", 1.0, seed)

    a, b = make(123), make(123)
    assert a.X.tobytes() == b.X.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.noise.tobytes() == b.noise.tobytes()
    c = make(124)
    assert a.X.tobytes() != c.X.tobytes()


_COV3 = model.CovarianceModel.identity(3)


# the model's sizes, signals and noise levels are refused by the config
# (tests/test_harness.py); a matrix guards its own form
@pytest.mark.parametrize("call, message", [
    # I - e1 e1' has a zero eigenvalue
    (lambda: model.CovarianceModel.rank_one(_COV3, 1.0, -1.0, np.eye(3)[0]),
     "curvature matrix is singular"),
], ids=["rank_one_singular"])
def test_model_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_stream_rng_streams_are_stable_and_distinct():
    a = model.stream_rng(5, 1).standard_normal(8)
    b = model.stream_rng(5, 1).standard_normal(8)
    c = model.stream_rng(5, 2).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
