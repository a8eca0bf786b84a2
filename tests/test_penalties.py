import numpy as np
import pytest
import hypothesis
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import lasso
from penexp.model import GroupStructure
from penexp.penalties import (GroupPenalty, L1BallConstraint, project_l1_ball,
                              soft_threshold)


def two_groups():
    return GroupStructure.contiguous(2, 2)


def test_penalty_value_l1():
    assert lasso(0.5, 2).value(np.array([1.0, -2.0])) == 1.5
    assert lasso(0.0, 1).value(np.array([9.0])) == 0.0


def test_penalty_value_ball():
    ball = L1BallConstraint(1.0)
    assert ball.value(np.array([0.3, 0.3])) == 0.0
    assert ball.value(np.array([2.0, 0.0])) == np.inf


def test_penalty_value_group():
    pen = GroupPenalty(2.0, two_groups())
    assert pen.value(np.array([3.0, 4.0, 0.0, 0.0])) == 10.0


def test_spec_validation():
    for bad in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError):
            GroupPenalty(bad, two_groups())
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            L1BallConstraint(bad)


def test_soft_threshold_values():
    assert soft_threshold(np.array([2.0]), 0.5)[0] == 1.5
    out = soft_threshold(np.array([-0.3]), 0.5)[0]
    assert out == 0.0
    assert soft_threshold(np.array([-2.0]), 0.5)[0] == -1.5


def test_prox_l1_exact_zero():
    x = np.array([0.49, -0.3, 2.0])
    b = lasso(0.5, 3).prox(x, 1.0)
    assert b[0] == 0.0 and b[1] == 0.0
    assert b[2] == pytest.approx(1.5)


@pytest.mark.parametrize("d", range(1, 8))
def test_block_norms_equal_linalg_norm_bitwise(d):
    # a batch of blocks with entries over many magnitudes, zeros among them
    rng = np.random.default_rng(d)
    x = rng.standard_normal((3, 500, d)) * 10.0 ** rng.integers(-8, 9, (
        3, 500, d))
    x[0, :50] = 0.0
    norms = GroupStructure.contiguous(500, d).norms(x.reshape(3, 500 * d))
    assert np.array_equal(norms, np.linalg.norm(x, axis=-1))


def test_prox_group_block_shrinkage():
    pen = GroupPenalty(2.0, two_groups())
    x = np.array([3.0, 4.0, 0.3, 0.4])
    b = pen.prox(x, 1.0)
    assert b[:2] == pytest.approx([1.8, 2.4])
    assert b[2] == 0.0 and b[3] == 0.0


@pytest.mark.parametrize("pen", [
    L1BallConstraint(1.0), GroupPenalty(0.5, GroupStructure.contiguous(1, 1))],
    ids=lambda pen: type(pen).__name__)
def test_prox_step_scaling(pen):
    # prox of t*h: threshold is t*lambda (the ball projects whatever t is)
    x = np.array([2.0])
    assert pen.prox(x, 2.0)[0] == pytest.approx(1.0)
    for step in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="prox step must be > 0"):
            pen.prox(x, step)


@st.composite
def _penalty_batch_step(draw):
    M, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    level = draw(st.floats(0.0, 3.0))
    pen = draw(st.sampled_from([
        lasso(level, M * d), L1BallConstraint(max(level, 0.01)),
        GroupPenalty(level, GroupStructure.contiguous(M, d))]))
    rows = draw(st.integers(1, 5))
    X = draw(hnp.arrays(float, (rows, M * d),
                        elements=st.floats(-5.0, 5.0, allow_nan=False)))
    return pen, X, draw(st.floats(0.01, 10.0))


# a fixed seed: editing the test does not redraw its examples
@hypothesis.seed(int("2338536347602089706214205473159727632559"
                     "3667774967329938702151238521442825580835"
                     "841591080488760823665836757989156188"))
@given(_penalty_batch_step())
def test_batched_prox_equals_row_by_row(case):
    pen, X, step = case
    rows = np.vstack([pen.prox(r, step) for r in X])
    assert pen.prox(X, step).tobytes() == rows.tobytes()


def test_projection_examples():
    b = L1BallConstraint(1.0).prox(np.array([2.0, 1.0]), 1.0)
    assert b == pytest.approx([1.0, 0.0])
    inside = np.array([0.2, -0.3])
    assert np.array_equal(L1BallConstraint(1.0).prox(inside, 1.0), inside)


def test_projection_inside_keeps_the_bits_in_a_new_array():
    x = np.array([0.25, -0.0, -0.5, 0.0, 1e-300])
    for a in (x, np.stack([x, -x, np.zeros(5)])):
        out = project_l1_ball(a, 1.0)
        assert not np.shares_memory(out, a)
        assert out.shape == a.shape and out.tobytes() == a.tobytes()
    # rows inside the ball keep their bits beside one that is projected
    a = np.stack([x, 4.0 * x])
    out = project_l1_ball(a, 1.0)
    assert out[0].tobytes() == x.tobytes()
    assert np.abs(out[1]).sum() == pytest.approx(1.0)


def test_projection_against_scalar_equation():
    # solve sum (|x_j| - theta)_+ = R independently and compare
    from scipy.optimize import brentq
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = rng.integers(2, 30)
        x = rng.normal(scale=2, size=p)
        R = float(rng.uniform(0.1, 0.9) * np.abs(x).sum())
        theta = brentq(lambda t: np.maximum(np.abs(x) - t, 0).sum() - R,
                       0.0, np.abs(x).max())
        expected = np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)
        got = project_l1_ball(x, R)
        assert np.allclose(got, expected, atol=1e-10)
        assert np.abs(got).sum() <= R + 1e-9


def test_projection_idempotent():
    rng = np.random.default_rng(3)
    ball = L1BallConstraint(2.5)
    for _ in range(20):
        x = rng.normal(size=15)
        once = ball.prox(x, 1.0)
        twice = ball.prox(once, 1.0)
        assert np.array_equal(once, twice)


def test_prox_is_lipschitz():
    rng = np.random.default_rng(11)
    specs = [lasso(0.7, 12), L1BallConstraint(3.0),
             GroupPenalty(0.5, GroupStructure.contiguous(4, 3))]
    for spec in specs:
        for _ in range(1000):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            d = np.linalg.norm(spec.prox(x, 1.0) - spec.prox(y, 1.0))
            assert d <= np.linalg.norm(x - y) + 1e-12


def test_prox_optimality_residual():
    rng = np.random.default_rng(13)
    specs = [lasso(0.7, 12), L1BallConstraint(3.0),
             GroupPenalty(0.5, GroupStructure.contiguous(4, 3))]
    for spec in specs:
        for _ in range(100):
            t = float(rng.uniform(0.1, 3.0))
            x = rng.normal(size=12)
            b = spec.prox(x, t)
            # optimality: (x - b)/t lies in the subdifferential at b
            res = spec.residual(b, (b - x) / t)
            assert res <= 1e-10


def _wide(rng, shape):
    # magnitudes from 1e-150 to 1e150, either sign, about a fifth exact 0
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-150, 150, shape)
    x[rng.random(shape) < 0.2] = 0.0
    return x


def test_group_prox_singletons_equal_soft_threshold():
    # groups of one coordinate are the lasso, bit for bit while x*x neither
    # underflows nor overflows: checked against the lasso's own formulas
    rng = np.random.default_rng(29)
    for trial in range(500):
        p = int(rng.integers(1, 40))
        level = 0.0 if trial % 5 == 0 else 10.0 ** rng.uniform(-150, 150)
        step = 10.0 ** rng.uniform(-2, 2)
        pen = lasso(level, p)
        for shape in (p, (4, p)):
            b, g = _wide(rng, shape), _wide(rng, shape)
            scores = np.where(b != 0.0, np.abs(g + level * np.sign(b)),
                              np.maximum(np.abs(g) - level, 0.0))
            soft = np.sign(b) * np.maximum(np.abs(b) - step * level, 0.0)
            assert pen.value(b) == float(level * np.abs(b).sum())
            assert pen.scores(b, g).tobytes() == scores.tobytes()
            assert pen.residual(b, g) == float(scores.max())
            assert pen.prox(b, step).tobytes() == soft.tobytes()
    # -0.0 maps to -0.0, where soft thresholding gives +0.0
    x = np.array([-0.0, 0.0, -0.3, 2.0])
    assert np.array_equal(lasso(0.5, 4).prox(x), soft_threshold(x, 0.5))


def test_singleton_groups_build_no_index_arrays():
    # the lasso at p = 6400 and its working-set restrictions hold M and d
    # alone; the index arrays come only when groups is read
    gs = GroupStructure.contiguous(6400, 1)
    pen = GroupPenalty(0.1, gs)
    rng = np.random.default_rng(4)
    b, g = rng.normal(size=6400), rng.normal(size=6400)
    sub, cols = pen.restrict(np.arange(0, 6400, 3))
    for used in (pen, sub):
        used.value(b[:used.groups.M])
        used.prox(b[:used.groups.M])
        used.residual(b[:used.groups.M], g[:used.groups.M])
    assert "groups" not in vars(gs) and "groups" not in vars(sub.groups)
    assert cols.tolist() == list(range(0, 6400, 3))
    assert len(sub.groups.groups) == 2134 and "groups" in vars(sub.groups)
    assert [k.tolist() for k in gs.groups[:2]] == [[0], [1]]


def test_residual_zero_cases():
    lam = 0.8
    grad = np.array([0.5, -0.8, 0.0])
    assert lasso(lam, 3).residual(np.zeros(3), grad) == 0.0
    beyond = np.array([0.9, 0.0, 0.0])
    assert lasso(lam, 3).residual(np.zeros(3), beyond) == pytest.approx(0.1)


def test_residual_refuses_a_gradient_of_another_length():
    with pytest.raises(ValueError, match="beta and grad dimensions differ"):
        GroupPenalty(0.5, two_groups()).residual(np.zeros(4), np.zeros(3))


def test_residual_l1_brute_force():
    # coordinatewise distance from -grad to the subdifferential interval
    rng = np.random.default_rng(5)
    lam = 0.6
    for _ in range(200):
        beta = rng.normal(size=8) * (rng.random(8) < 0.6)
        grad = rng.normal(size=8)
        dists = []
        for j in range(8):
            if beta[j] != 0:
                dists.append(abs(grad[j] + lam * np.sign(beta[j])))
            else:
                dists.append(max(abs(grad[j]) - lam, 0.0))
        got = lasso(lam, 8).residual(beta, grad)
        assert got == pytest.approx(max(dists), abs=1e-12)
        assert lasso(lam, 8).scores(beta, grad) == pytest.approx(dists,
                                                                 abs=1e-12)


def test_residual_group_brute_force():
    rng = np.random.default_rng(6)
    gs = GroupStructure.contiguous(4, 3)
    lam = 0.5
    for _ in range(200):
        beta = rng.normal(size=12)
        for k in range(4):
            if rng.random() < 0.5:
                beta[3 * k:3 * k + 3] = 0.0
        grad = rng.normal(size=12)
        dists = []
        for k in range(4):
            bg = beta[3 * k:3 * k + 3]
            gg = grad[3 * k:3 * k + 3]
            if np.any(bg != 0):
                dists.append(
                    np.linalg.norm(gg + lam * bg / np.linalg.norm(bg)))
            else:
                dists.append(max(np.linalg.norm(gg) - lam, 0.0))
        got = GroupPenalty(lam, gs).residual(beta, grad)
        assert got == pytest.approx(max(dists), abs=1e-12)
        assert GroupPenalty(lam, gs).scores(beta, grad) == pytest.approx(
            dists, abs=1e-12)


@pytest.mark.parametrize("pen, kept", [
    (lasso(0.3, 12), [1, 3]), (L1BallConstraint(1.5), [1, 3]),
    (GroupPenalty(0.3, GroupStructure.contiguous(4, 3)), [3, 4, 5, 9, 10, 11])],
    ids=["lasso", "L1BallConstraint", "GroupPenalty"])
def test_restriction_acts_on_the_kept_units(pen, kept):
    # on a vector that is zero outside the kept units, the restricted
    # penalty gives the same value, prox and residual on the sub-vector
    units = np.array([1, 3])
    sub, cols = pen.restrict(units)
    assert cols.tolist() == kept
    rng = np.random.default_rng(8)
    beta = np.zeros(12)
    beta[cols] = 0.2 * rng.normal(size=cols.size)
    grad = rng.normal(size=12)
    assert sub.value(beta[cols]) == pen.value(beta)
    assert np.array_equal(sub.prox(beta[cols], 0.5),
                          pen.prox(beta, 0.5)[cols])
    if not isinstance(pen, L1BallConstraint):
        assert np.array_equal(sub.scores(beta[cols], grad[cols]),
                              pen.scores(beta, grad)[units])


def test_residual_ball_cases():
    ball = L1BallConstraint(1.0)
    # infeasible point reports +inf
    assert ball.residual(np.array([2.0, 0.0]), np.zeros(2)) == np.inf
    # interior point: residual is the gradient sup norm
    grad = np.array([0.3, -0.7])
    assert ball.residual(np.array([0.1, 0.1]), grad) == pytest.approx(0.7)
    # boundary with gradient aligned to the normal cone: residual 0
    beta = np.array([0.6, -0.4])
    grad2 = np.array([-0.9, 0.9])
    got = ball.residual(beta, grad2)
    assert got == pytest.approx(0.0, abs=1e-12)
    # boundary, misaligned gradient
    grad3 = np.array([-0.9, 0.5])
    mu = 0.9
    expected = max(abs(grad3[0] + mu * np.sign(beta[0])),
                   abs(grad3[1] + mu * np.sign(beta[1])))
    assert ball.residual(beta, grad3) == pytest.approx(
        expected, abs=1e-12)


def test_projection_minimizer_certified():
    # the projection output passes its own KKT check
    rng = np.random.default_rng(8)
    ball = L1BallConstraint(2.0)
    for _ in range(100):
        x = rng.normal(scale=2, size=10)
        b = ball.prox(x, 1.0)
        res = ball.residual(b, b - x)
        assert res <= 1e-9
