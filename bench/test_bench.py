"""Tests of the benchmark's own code; they run in a few seconds.

    python3 -m pytest bench/test_bench.py
"""

import json
import os

import numpy as np
import pytest

import checks
import run
import tracer as tracing


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["harness.run_experiment", 0.0, 10.0, 1, None],
        ["solver.fit_penalized", 1.0, 5.0, 1, 0],
        ["penalties.prox", 2.0, 3.0, 1, 1],
        ["penalties.prox", 3.5, 4.0, 1, 1],
        ["model.generate_design", 6.0, 8.0, 1, 0],
    ]
    inclusive, calls, layer_self = tracing.span_totals(spans)
    assert layer_self["harness"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert layer_self["solver"] == pytest.approx(4.0 - 1.0 - 0.5)
    assert layer_self["penalties"] == pytest.approx(1.5)
    assert layer_self["model"] == pytest.approx(2.0)
    assert sum(layer_self.values()) == pytest.approx(10.0)
    assert inclusive["penalties.prox"] == pytest.approx(1.5)
    assert calls["penalties.prox"] == 2


def test_wrapped_calls_record_parents_and_after_hooks():
    tr = tracing.Tracer()
    seen = []

    def inner(x):
        return x + 1

    traced_inner = tr.wrap("solver.inner", inner,
                           after=lambda a, k, r: seen.append((a, r)))

    def outer(x):
        return traced_inner(x) * 2

    assert tr.wrap("harness.outer", outer)(3) == 8
    names = [sp[tracing.NAME] for sp in tr.spans]
    assert names == ["harness.outer", "solver.inner", "bench.after"]
    assert tr.spans[1][tracing.PARENT] == 0
    assert tr.spans[2][tracing.PARENT] == 0
    assert seen == [((3,), 4)]


def _orthonormal_problem(n=60, p=20, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = np.sqrt(n) * q  # X'X/n = I, so the solutions have closed forms
    beta = np.zeros(p)
    beta[:3] = 1.0
    y = X @ beta + 0.5 * rng.standard_normal(n)
    return X, y, X.T @ y / n


def test_l1_and_group_kkt_accept_solution_and_reject_perturbed():
    X, y, z = _orthonormal_problem()
    level = 0.3
    beta = checks.soft_threshold(z, level)
    grad = checks.loss_gradient("squared", X, y, beta)
    assert checks.l1_residual(beta, grad, level) <= 1e-12
    bad = beta.copy()
    bad[np.argmax(np.abs(beta))] += 1e-3
    grad = checks.loss_gradient("squared", X, y, bad)
    assert checks.l1_residual(bad, grad, level) >= 5e-4

    groups = [np.arange(k, k + 4) for k in range(0, 20, 4)]
    beta = checks.block_shrink(z, level, groups)
    assert 0 < np.count_nonzero(beta) < beta.size
    grad = checks.loss_gradient("squared", X, y, beta)
    assert checks.group_residual(beta, grad, level, groups) <= 1e-12
    grad = checks.loss_gradient("squared", X, y, bad)
    assert checks.group_residual(bad, grad, level, groups) >= 5e-4


def test_ball_kkt_accepts_projection_and_rejects_interior_point():
    X, y, z = _orthonormal_problem(seed=1)
    radius = 0.5 * np.abs(z).sum()
    lo, hi = 0.0, np.abs(z).max()
    for _ in range(200):  # bisection for the projection's threshold
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.abs(checks.soft_threshold(z, mid)).sum() \
            > radius else (lo, mid)
    beta = checks.soft_threshold(z, hi)
    grad = checks.loss_gradient("squared", X, y, beta)
    assert checks.ball_residual(beta, grad, radius) <= 1e-12
    bad = 0.99 * beta
    grad = checks.loss_gradient("squared", X, y, bad)
    assert checks.ball_residual(bad, grad, radius) >= 1e-2
    assert checks.ball_residual(1.01 * beta, grad, radius) == np.inf


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 5))
    y = (rng.random(40) < 0.4).astype(float)
    beta = 0.3 * rng.standard_normal(5)

    def loss(b):
        u = X @ b
        return np.mean((y - 1.0) * u + np.logaddexp(0.0, u))

    h = 1e-6
    fd = np.array([(loss(beta + h * e) - loss(beta - h * e)) / (2 * h)
                   for e in np.eye(5)])
    grad = checks.loss_gradient("logistic", X, y, beta)
    assert np.abs(grad - fd).max() <= 1e-8


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
