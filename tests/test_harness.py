import builtins
import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import penexp
from oracles import (block_risk_mpmath, dense_covariance, lasso_risk_erfc,
                     logistic_curvature_dense, prox_risk_unchunked)
from penexp import cli, diagnostics, harness, model, penalties, solver
from penexp.cones import lasso_rate
from penexp.harness import (ExperimentConfig, GridPoint, RECORD_SCHEMA,
                            TIMING_SCHEMA, parse_config, rate_fit,
                            run_experiment, task_seed)


CONFIG_TEXT = """\
# rates experiment, two tiny points
experiment = rates
loss = squared
penalty = l1_penalized
design = gaussian
covariance = identity
xi = 0.4
noise_sd = 1.0
amplitude = 0.8
replications = 4
master_seed = 42
grid = n=60 p=30 s=2
grid = n=120 p=30 s=2
"""


def test_parse_config_round_trip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.experiment == "rates"
    assert cfg.penalty == "l1_penalized"
    assert cfg.xi == 0.4
    assert cfg.amplitude == 0.8
    assert cfg.replications == 4
    assert cfg.master_seed == 42
    assert cfg.grid == (GridPoint(60, 30, 2), GridPoint(120, 30, 2))


def test_parse_config_group_grid():
    text = ("experiment = rates\npenalty = group_lasso\n"
            "grid = n=100 p=24 s=2 M=6 d=4\n")
    cfg = parse_config(text)
    assert cfg.grid[0].M == 6 and cfg.grid[0].d == 4


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("experiment = rates\njunk_key = 1\ngrid = n=10 p=5 s=1\n")
    with pytest.raises(ValueError):
        parse_config("experiment = rates\ngrid = n=10 q=5\n")
    with pytest.raises(ValueError):
        parse_config("grid = n=10 p=5 s=1\n")  # no experiment
    with pytest.raises(ValueError):
        parse_config("experiment = rates\nreplications = soon\n"
                     "grid = n=10 p=5 s=1\n")
    with pytest.raises(ValueError):
        parse_config("experiment = rates\nnot a key value line\n")
    # M and d only describe groups: a lasso run refuses them (3*7 != 40)
    for penalty, sizes in (("l1_penalized", "M=3 d=7"),
                           ("l1_constrained", "d=4")):
        with pytest.raises(ValueError, match="only group_lasso runs take M"):
            parse_config("experiment = rates\npenalty = %s\n"
                         "grid = n=100 p=40 s=2 %s\n" % (penalty, sizes))


@pytest.mark.parametrize("text, message", [
    ("experiment = rates\ngrid = n=4e2 p=800 s=5\n",
     "line 2: grid field n needs an integer, got '4e2'"),
    ("experiment = rates\ngrid = n=400 n=800 p=800 s=5\n",
     "line 2: grid field 'n' set twice"),
    ("experiment = rates\nloss = squared\nloss = logistic\n"
     "grid = n=400 p=800 s=5\n", "line 3: loss set twice"),
])
def test_parse_errors_name_their_line(tmp_path, capsys, text, message):
    # a value that is not an integer, and a field or key given twice, where
    # the last value used to win silently
    with pytest.raises(ValueError) as exc:
        parse_config(text)
    assert str(exc.value) == message
    conf = tmp_path / "bad.conf"
    conf.write_text(text)
    assert cli.main(["experiment", str(conf)]) == 2
    assert message in capsys.readouterr().err


def test_parse_config_refuses_ar1_rho_set_up_would_refuse():
    # its p = 2 build has eigenvalue 1 - rho = 1.5e-10 >= 1e-10, but at
    # p = 400 the spectrum reaches (1 - rho)/(1 + rho) = 7.5e-11, so the
    # floor of every p is checked when the config is read
    with pytest.raises(ValueError, match="not positive definite"):
        parse_config("experiment = rates\ncovariance = ar1:0.99999999985\n"
                     "grid = n=200 p=400 s=5\n")
    assert parse_config("experiment = rates\ncovariance = ar1:0.9999999997\n"
                        "grid = n=200 p=400 s=5\n").covariance == \
        "ar1:0.9999999997"


def test_parse_config_refuses_removed_keys():
    # the risk bound's t and the CLI's failure fraction are fixed values;
    # the worker count and the output directory change nothing computed,
    # and only the command line sets them
    for line in ("t_bound = 2.0", "max_fail_frac = 0.02", "threads = 1",
                 "out = out/"):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("experiment = rates\n%s\ngrid = n=10 p=5 s=1\n"
                         % line)


def test_threads_zero_starts_one_worker_per_usable_core(tmp_path,
                                                        monkeypatch):
    sizes = []
    real_pool = harness.ThreadPoolExecutor

    def spy_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", spy_pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    run_tiny(tmp_path, "pinned", threads=0, replications=1)
    run_tiny(tmp_path, "two", threads=2, replications=1)
    # a platform without CPU affinity falls back to the core count
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    run_tiny(tmp_path, "plain", threads=0, replications=1)
    assert sizes == [1, 2, 4]


def test_experiment_config_rejections(tmp_path):
    # an ExperimentConfig checks itself when it is built
    base = dict(experiment="rates", grid=(GridPoint(50, 20, 3),))
    with pytest.raises(ValueError, match="xi must be > 0"):
        ExperimentConfig(**dict(base, xi=0.0))
    with pytest.raises(ValueError, match="replications must be >= 1"):
        ExperimentConfig(**dict(base, replications=0))
    with pytest.raises(ValueError, match="unknown experiment kind 'volume'"):
        ExperimentConfig(**dict(base, experiment="volume"))
    # every run expands, and checks the cone and the support bound: no
    # kind fits alone or adds a check that has no hypotheses of its own
    for kind in ("fit", "cone_check", "sparsity_check"):
        with pytest.raises(ValueError,
                           match="unknown experiment kind '%s'" % kind):
            ExperimentConfig(**dict(base, experiment=kind))
    # group runs need matching M*d = p
    with pytest.raises(ValueError, match="grid point needs p = M\\*d"):
        ExperimentConfig(experiment="rates", penalty="group_lasso",
                         grid=(GridPoint(50, 20, 3, M=4, d=4),))
    # the solves' tolerance and budget, with SolverConfig's messages
    for key, bad, message in (
            ("kkt_tol", "inf", "kkt_tol must be > 0 and finite"),
            ("kkt_tol", "nan", "kkt_tol must be > 0 and finite"),
            ("kkt_tol", "-1", "kkt_tol must be > 0 and finite"),
            ("max_iters", "0", "max_iters must be >= 1")):
        with pytest.raises(ValueError, match=message):
            parse_config("experiment = rates\n%s = %s\n"
                         "grid = n=50 p=20 s=2\n" % (key, bad))
    with pytest.raises(ValueError, match="unknown covariance 'ar2:0.5'"):
        parse_config("experiment = rates\ncovariance = ar2:0.5\n"
                     "grid = n=50 p=20 s=2\n")
    for line in ("covariance = ar1:0.5", "loss = logistic",
                 "design = rademacher"):
        with pytest.raises(ValueError, match="the risk identity needs"):
            parse_config("experiment = risk_identity\n%s\n"
                         "grid = n=50 p=20 s=2\n" % line)
    # the rule reads the covariance's Sigma, not its spelling
    assert parse_config("experiment = risk_identity\ncovariance = ar1:0\n"
                        "grid = n=50 p=20 s=2\n").covariance == "ar1:0"
    with pytest.raises(ValueError, match="need linear data"):
        parse_config("experiment = coverage\nloss = logistic\n"
                     "grid = n=50 p=20 s=2\n")
    # the logistic curvature matrix exists in closed form only for a
    # gaussian design, and set-up computes it without asking again
    with pytest.raises(ValueError, match="gaussian"):
        parse_config("experiment = rates\nloss = logistic\n"
                     "design = rademacher\ngrid = n=50 p=20 s=2\n")
    # 0 means one worker per core; a negative count is a mistake
    with pytest.raises(ValueError, match="threads must be >= 0"):
        run_experiment(ExperimentConfig(**base), str(tmp_path / "o"), -3)
    assert not (tmp_path / "o").exists()
    with pytest.raises(ValueError, match="noise_sd must be >= 0"):
        parse_config("experiment = rates\nnoise_sd = -1\n"
                     "grid = n=50 p=20 s=2\n")
    # refused when read, not in the first task's seed after every set-up
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        parse_config("experiment = rates\nmaster_seed = -3\n"
                     "grid = n=50 p=20 s=2\n")
    # a coverage interval is 1.96 noise_sd/sqrt(n) wide
    with pytest.raises(ValueError, match="noise_sd > 0"):
        parse_config("experiment = coverage\nnoise_sd = 0\n"
                     "grid = n=50 p=20 s=2\n")
    # the config is the one check of the sizes, the signal and the noise:
    # the rates, levels, cones, draws and MC risk take them unchecked
    for grid in ("n=0 p=20 s=2", "n=10 p=0 s=0", "n=50 p=20 s=0",
                 "n=50 p=20 s=20"):
        with pytest.raises(ValueError, match="n >= 1 and p > s >= 1"):
            parse_config("experiment = rates\ngrid = %s\n" % grid)
    with pytest.raises(ValueError, match="xi must be > 0"):
        parse_config("experiment = rates\nxi = -0.2\n"
                     "grid = n=50 p=20 s=2\n")
    with pytest.raises(ValueError, match="mc_inner must be >= 2"):
        parse_config("experiment = risk_identity\nmc_inner = 1\n"
                     "grid = n=50 p=20 s=2\n")
    with pytest.raises(ValueError, match="l1-ball radius"):
        parse_config("experiment = rates\npenalty = l1_constrained\n"
                     "amplitude = 0\ngrid = n=50 p=20 s=2\n")
    for text, message in (
            ("grid = n=50 p20 s=2", "grid entries look like n=400"),
            ("grid = p=20 s=2", "grid entry missing 'n'"),
            ("", "at least one grid entry is required"),
            ("penalty = ridge\ngrid = n=50 p=20 s=2",
             "unknown penalty kind 'ridge'"),
            ("loss = poisson\ngrid = n=50 p=20 s=2",
             "unknown loss kind 'poisson'"),
            ("penalty = group_lasso\ngrid = n=50 p=20 s=2",
             "group runs need M and d in each grid entry"),
            ("penalty = group_lasso\ngrid = n=50 p=20 s=5 M=5 d=4",
             "grid point needs M > s"),
            ("penalty = group_lasso\ngrid = n=50 p=20 s=2 M=5 d=0",
             "grid point needs p = M\\*d")):
        with pytest.raises(ValueError, match=message):
            parse_config("experiment = rates\n%s\n" % text)
    for key, bad in (("xi", "nan"), ("xi", "inf"), ("amplitude", "nan"),
                     ("amplitude", "inf"), ("noise_sd", "inf"),
                     ("noise_sd", "nan")):
        with pytest.raises(ValueError, match="%s must be" % key):
            parse_config("experiment = rates\n%s = %s\n"
                         "grid = n=50 p=20 s=2\n" % (key, bad))


def test_config_boundaries_are_accepted():
    # the smallest values each check lets through
    cfg = parse_config("experiment = risk_identity\nmc_inner = 2\n"
                       "grid = n=50 p=20 s=1\n")
    assert cfg.mc_inner == 2 and cfg.grid[0].s == 1
    cfg = parse_config("experiment = rates\npenalty = group_lasso\n"
                       "grid = n=50 p=20 s=1 M=5 d=4\n")
    assert cfg.grid[0] == GridPoint(50, 20, 1, M=5, d=4)


@pytest.mark.parametrize("sizes", ["M=5", "d=4"])
def test_group_grid_entry_needs_both_m_and_d(sizes):
    # either one alone is refused by the check, not by the product M*d
    with pytest.raises(ValueError,
                       match="group runs need M and d in each grid entry"):
        parse_config("experiment = rates\npenalty = group_lasso\n"
                     "grid = n=50 p=20 s=2 %s\n" % sizes)


@pytest.mark.parametrize("loss, designs", [
    ("squared", "gaussian or rademacher"), ("logistic", "gaussian")])
def test_unknown_design_refused_by_the_loss(tmp_path, capsys, loss, designs):
    conf = tmp_path / "bogus.conf"
    conf.write_text("experiment = rates\nloss = %s\ndesign = bogus\n"
                    "grid = n=50 p=20 s=2\n" % loss)
    rc = cli.main(["experiment", str(conf), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "%s loss needs a %s design, got 'bogus'" % (loss, designs) in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, message", [
    ("kkt_tol = inf", "kkt_tol must be > 0 and finite"),
    ("kkt_tol = nan", "kkt_tol must be > 0 and finite"),
    ("kkt_tol = -1", "kkt_tol must be > 0 and finite"),
    ("max_iters = 0", "max_iters must be >= 1"),
], ids=["kkt_tol_inf", "kkt_tol_nan", "kkt_tol_negative", "max_iters_zero"])
def test_experiment_refuses_a_bad_tolerance_or_budget(tmp_path, capsys, line,
                                                      message):
    # an infinite tolerance would certify any iterate
    conf = tmp_path / "bad.conf"
    conf.write_text("experiment = rates\n%s\ngrid = n=50 p=20 s=2\n" % line)
    rc = cli.main(["experiment", str(conf), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_task_seed_stable():
    assert task_seed(7, 0, 0) == task_seed(7, 0, 0)
    seen = {task_seed(7, pi, ri) for pi in range(25) for ri in range(40)}
    assert len(seen) == 1000  # no collisions across the grid
    for s in list(seen)[:10]:
        assert 0 <= s < 2 ** 64
    assert task_seed(7, 0, 1) != task_seed(8, 0, 1)


def synthetic_points(r_values, gap_fn):
    # summary point entries with r_n and the median gap
    return [{"point": i, "r_n": r, "median_gap": gap_fn(r)}
            for i, r in enumerate(r_values)]


def test_rate_fit_exact_square():
    pts = synthetic_points([0.5, 0.4, 0.3, 0.2], lambda r: r * r)
    fit = rate_fit(pts, "gap")
    assert fit["metric"] == "gap"
    assert abs(fit["slope"] - 2.0) < 1e-12
    assert abs(fit["intercept"]) < 1e-12
    assert fit["stderr"] < 1e-12


def test_rate_fit_three_halves():
    pts = synthetic_points([0.5, 0.4, 0.3, 0.2], lambda r: 3.0 * r ** 1.5)
    fit = rate_fit(pts, "gap")
    assert abs(fit["slope"] - 1.5) < 1e-12
    assert abs(fit["intercept"] - math.log(3.0)) < 1e-12


def test_rate_fit_skips_nonconverged():
    pts = synthetic_points([0.5, 0.4, 0.3], lambda r: r * r)
    # a fourth point none of whose solves converged has no median gap
    pts.append({"point": 3, "r_n": 0.1})
    assert abs(rate_fit(pts, "gap")["slope"] - 2.0) < 1e-12
    assert rate_fit(pts, "err_est") is None


def test_rate_fit_needs_three_points():
    assert rate_fit(synthetic_points([0.5, 0.4], lambda r: r * r),
                    "gap") is None
    # three points but one r_n: no slope to fit
    assert rate_fit(synthetic_points([0.3, 0.3, 0.3], lambda r: r * r),
                    "gap") is None


def test_rate_fit_skips_a_median_not_positive():
    pts = synthetic_points([0.5, 0.4, 0.3, 0.2], lambda r: r * r)
    pts[3]["median_gap"] = 0.0
    assert abs(rate_fit(pts, "gap")["slope"] - 2.0) < 1e-12
    # with one more skipped, too few points are left
    pts[2]["median_gap"] = 0.0
    assert rate_fit(pts, "gap") is None


def run_tiny(tmp_path, name, threads=1, **overrides):
    kw = dict(experiment="rates",
              grid=(GridPoint(60, 30, 2), GridPoint(120, 30, 2),
                    GridPoint(240, 30, 2)),
              replications=4, master_seed=11)
    kw.update(overrides)
    cfg = ExperimentConfig(**kw)
    return cfg, run_experiment(cfg, str(tmp_path / name), threads)


def read_records(path):
    """records.csv as dicts, each cell parsed by its RECORD_SCHEMA type and
    None when empty."""
    with open(path, newline="") as fh:
        return [{k: None if v == "" else v == "true"
                 if RECORD_SCHEMA[k] is bool else RECORD_SCHEMA[k](v)
                 for k, v in row.items()} for row in csv.DictReader(fh)]


def assert_typed_as_written(recs):
    # each cell comes back with its column's type, an integral float too
    for rec in recs:
        assert list(rec) == list(RECORD_SCHEMA)
        for k, v in rec.items():
            assert v is None or type(v) is RECORD_SCHEMA[k], (k, v)


def test_run_experiment_outputs(tmp_path):
    cfg, summary = run_tiny(tmp_path, "a")
    out = tmp_path / "a"
    body = (out / "records.csv").read_bytes()
    assert body.startswith((",".join(RECORD_SCHEMA) + "\r\n").encode())
    assert body.count(b"\r\n") == 1 + summary["records"]
    assert summary["records"] == 12
    assert summary["failed"] == 0
    # records come back typed and ordered
    recs = read_records(out / "records.csv")
    assert [(r["point"], r["rep"]) for r in recs] == \
        sorted((r["point"], r["rep"]) for r in recs)
    assert recs[0]["r_n"] == lasso_rate(60, p=30, s=2)
    assert_typed_as_written(recs)
    # the expansion on K = I ends at a zero residual
    assert any(r["exp_kkt"] == 0.0 for r in recs)
    # summary.json round trips
    loaded = json.loads((out / "summary.json").read_text())
    assert loaded["rate_fit"]["slope"] == summary["rate_fit"]["slope"]
    # timings live in the sidecar, never in records.csv
    assert "est_time" not in RECORD_SCHEMA
    tim = (out / "timings.csv").read_text()
    assert tim.splitlines()[0] == ",".join(TIMING_SCHEMA)
    assert len(tim.splitlines()) == 1 + summary["records"]
    # the expansion steps by the exact 1/eig_max of K = I, so it makes one
    # product with K per iteration, plus the one pass over X (X'eps) of its
    # centre; a fit makes at least the full pass of its certificate
    with open(out / "timings.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_task = {(int(r["point"]), int(r["rep"])): r for r in rows}
    for rec in recs:
        row = by_task[(rec["point"], rec["rep"])]
        assert int(row["est_passes"]) >= 1
        assert int(row["exp_passes"]) == rec["exp_iterations"] + 1


def test_logistic_expansion_makes_one_pass_over_x(tmp_path):
    # the centre reads the stored score noise, so a logistic expansion makes
    # one pass over X (X'e) as a squared-loss one does, plus one product
    # with K per iteration at the exact 1/eig_max of the identity-Sigma K
    run_tiny(tmp_path, "logistic", loss="logistic",
             penalty="l1_constrained", amplitude=0.25, replications=2)
    out = tmp_path / "logistic"
    recs = read_records(out / "records.csv")
    with open(out / "timings.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(recs) == 6
    for rec, row in zip(recs, rows):
        assert int(row["exp_passes"]) == rec["exp_iterations"] + 1


def test_run_experiment_thread_invariance(tmp_path):
    _, s1 = run_tiny(tmp_path, "one", threads=1)
    _, s2 = run_tiny(tmp_path, "two", threads=3)
    b1 = (tmp_path / "one" / "records.csv").read_bytes()
    b2 = (tmp_path / "two" / "records.csv").read_bytes()
    assert b1 == b2
    assert s1["rate_fit"]["slope"] == s2["rate_fit"]["slope"]


def test_risk_identity_at_ar1_zero_is_the_identity_run(tmp_path):
    # ar1:0 spells the identity Sigma, so its run writes the same bytes
    for out, cov in (("identity", "identity"), ("ar1_0", "ar1:0")):
        run_tiny(tmp_path, out, experiment="risk_identity", covariance=cov,
                 grid=(GridPoint(200, 100, 2),), replications=2,
                 mc_inner=100)
    for name in ("records.csv", "summary.json"):
        assert (tmp_path / "ar1_0" / name).read_bytes() == \
            (tmp_path / "identity" / name).read_bytes()


@pytest.mark.parametrize("penalty, point", [
    ("group_lasso", GridPoint(200, 40, 2, M=10, d=4)),
    ("l1_penalized", GridPoint(200, 40, 2))])
def test_exact_risk_runs_draw_no_monte_carlo(tmp_path, monkeypatch,
                                             penalty, point):
    # the lasso's and the group lasso's prox risk is exact: mc_inner
    # changes no byte, risk_mc_se is 0, and stream purpose 4 is never drawn
    purposes = []
    real_rng = penalties.stream_rng

    def spy(seed, *ids):
        purposes.append(ids)
        return real_rng(seed, *ids)

    monkeypatch.setattr(penalties, "stream_rng", spy)
    monkeypatch.setattr(model, "stream_rng", spy)
    for mc_inner in (2, 4000):
        run_tiny(tmp_path, str(mc_inner), experiment="risk_identity",
                 penalty=penalty, grid=(point,), replications=2,
                 mc_inner=mc_inner)
    assert (tmp_path / "2" / "records.csv").read_bytes() == \
        (tmp_path / "4000" / "records.csv").read_bytes()
    assert (4,) not in purposes and (0,) in purposes
    records = read_records(tmp_path / "2" / "records.csv")
    assert [r["risk_mc_se"] for r in records] == [0.0, 0.0]


# (est_iterations, exp_iterations, est_passes, exp_passes) of each of two
# replications, read on a 2-core Intel Xeon (KVM guest) with Python 3.11.7,
# numpy 2.4.6 and its bundled OpenBLAS 0.3.31. Another machine may round
# differently and stop a solve a check earlier or later. FISTA with its
# momentum held constant still certifies every solve, but changes the
# est_iterations of all three.
SOLVER_COUNTS = {
    "lasso": (dict(penalty="l1_penalized", master_seed=1012),
              [(25, 1, 2, 2), (35, 1, 2, 2)]),
    "ball_ar1": (dict(penalty="l1_constrained", covariance="ar1:0.5",
                      master_seed=1013),
                 [(115, 55, 3, 56), (105, 45, 3, 46)]),
    "logistic": (dict(loss="logistic", penalty="l1_constrained",
                      amplitude=0.25, master_seed=1014),
                 [(40, 10, 2, 11), (45, 10, 2, 11)]),
}


@pytest.mark.parametrize("case", sorted(SOLVER_COUNTS))
def test_solver_counters_are_pinned(tmp_path, case):
    settings, counts = SOLVER_COUNTS[case]
    run_experiment(ExperimentConfig(
        experiment="rates", grid=(GridPoint(200, 400, 5),), replications=2,
        **settings), str(tmp_path), 1)
    records = read_records(tmp_path / "records.csv")
    with open(tmp_path / "timings.csv", newline="") as fh:
        timings = list(csv.DictReader(fh))
    assert all(r["est_converged"] and r["exp_converged"] for r in records)
    assert [(r["est_iterations"], r["exp_iterations"], int(t["est_passes"]),
             int(t["exp_passes"])) for r, t in zip(records, timings)] == counts


def test_run_experiment_pins_blas_and_restores_it(tmp_path, monkeypatch):
    libs = harness._openblas_libs()
    if not libs:
        pytest.skip("no OpenBLAS mapped into this process")

    def counts():
        return [get() for get, _ in libs]

    seen = []
    real_task = harness._run_task

    def spy(*args):
        seen.append(counts())
        return real_task(*args)

    def boom(*args):
        raise RuntimeError("task failed")

    with harness._blas_threads(2):
        before = counts()
        monkeypatch.setattr(harness, "_run_task", spy)
        run_tiny(tmp_path, "one", threads=1)
        run_tiny(tmp_path, "two", threads=2)
        assert counts() == before
        monkeypatch.setattr(harness, "_run_task", boom)
        with pytest.raises(RuntimeError, match="task failed"):
            run_tiny(tmp_path, "raise", threads=2)
        assert counts() == before
    assert len(seen) == 24
    assert all(c == [1] * len(libs) for c in seen)


def test_point_setups_start_largest_first(tmp_path, monkeypatch):
    # one worker runs the set-ups in the order they were submitted
    sizes = []
    real_setup = harness._setup_point

    def spy(cfg, pt):
        sizes.append(pt.p)
        return real_setup(cfg, pt)

    monkeypatch.setattr(harness, "_setup_point", spy)
    _, summary = run_tiny(
        tmp_path, "sizes", replications=1,
        grid=(GridPoint(60, 20, 2), GridPoint(60, 40, 2),
              GridPoint(60, 30, 2), GridPoint(80, 40, 2)))
    assert sizes == [40, 40, 30, 20]
    assert [pt["p"] for pt in summary["points"]] == [20, 40, 30, 40]


def test_a_task_starts_before_a_larger_points_set_up_ends(tmp_path,
                                                         monkeypatch):
    # the set-up of p = 40 waits for a task of p = 20; behind a barrier
    # that holds every task until every set-up is done, it times out
    started, waited = threading.Event(), []
    real_setup, real_task = harness._setup_point, harness._run_task

    def setup_spy(cfg, pt):
        if pt.p == 40:
            waited.append(started.wait(timeout=30))
        return real_setup(cfg, pt)

    def task_spy(cfg, setup, *args):
        if setup.point.p == 20:
            started.set()
        return real_task(cfg, setup, *args)

    monkeypatch.setattr(harness, "_setup_point", setup_spy)
    monkeypatch.setattr(harness, "_run_task", task_spy)
    _, summary = run_tiny(tmp_path, "overlap", replications=1, threads=2,
                          grid=(GridPoint(60, 20, 2), GridPoint(60, 40, 2)))
    assert waited == [True]
    assert summary["records"] == 2 and summary["failed"] == 0


def test_a_failed_set_up_raises_and_writes_nothing(tmp_path, monkeypatch):
    # point 0's set-up raises; the tasks of point 1, each held for 50 ms,
    # are cancelled where they wait in the queue
    real_setup, real_task = harness._setup_point, harness._run_task
    ran = []

    def setup_spy(cfg, pt):
        if pt.p == 20:
            raise RuntimeError("set-up failed")
        return real_setup(cfg, pt)

    def task_spy(*args):
        ran.append(args[-1])
        time.sleep(0.05)
        return real_task(*args)

    monkeypatch.setattr(harness, "_setup_point", setup_spy)
    monkeypatch.setattr(harness, "_run_task", task_spy)
    with pytest.raises(RuntimeError, match="set-up failed"):
        run_tiny(tmp_path, "broken", threads=2, replications=40,
                 grid=(GridPoint(60, 20, 2), GridPoint(60, 30, 2)))
    # the output directory is made before the pool starts, and stays empty
    assert list((tmp_path / "broken").iterdir()) == []
    assert len(ran) < 40


def test_an_unusable_out_fails_before_any_set_up(tmp_path, monkeypatch,
                                                  capsys):
    calls = []
    monkeypatch.setattr(harness, "_setup_point",
                        lambda *args: calls.append(args))
    taken = tmp_path / "file"
    taken.write_text("not a directory")
    with pytest.raises(OSError):
        run_tiny(tmp_path, "file")
    assert calls == []
    conf = tmp_path / "run.conf"
    conf.write_text(CONFIG_TEXT)
    assert cli.main(["experiment", str(conf), "--out", str(taken)]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("name", ["records.csv", "timings.csv",
                                  "summary.json"])
def test_a_failed_write_leaves_the_previous_output_whole(tmp_path,
                                                         monkeypatch, name):
    run_tiny(tmp_path, "out")
    out = tmp_path / "out"
    before = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert sorted(before) == ["records.csv", "summary.json", "timings.csv"]
    # a rerun with another seed, whose temporary for name cannot be opened
    real_open = builtins.open

    def failing(file, *args, **kwargs):
        if os.path.basename(os.fspath(file)) == name + ".tmp":
            raise OSError("disk full")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", failing)
    with pytest.raises(OSError, match="disk full"):
        run_tiny(tmp_path, "out", master_seed=12)
    monkeypatch.undo()
    # all three previous files are whole, and no temporary is left
    assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before


@pytest.mark.parametrize("penalty, radius, layout", [
    ("l1_penalized", lambda xi, s: (6 + 2 / xi) * math.sqrt(s), (24, 1)),
    ("l1_constrained", lambda xi, s: 2 * math.sqrt(s), (24, 1)),
    ("group_lasso", lambda xi, s: (2 + 3 / xi) * math.sqrt(s), (6, 4))],
    ids=["l1_penalized", "l1_constrained", "group_lasso"])
def test_setup_gives_each_penalty_the_papers_cone(penalty, radius, layout):
    # the radius is no records.csv column, and a cone flag moves only when
    # an error vector falls between the right radius and a wrong one
    pt = GridPoint(50, 24, 3, *(layout if penalty == "group_lasso" else ()))
    for xi in (0.1, 0.5, 2.0):
        cfg = ExperimentConfig(experiment="rates", penalty=penalty, xi=xi,
                               grid=(pt,))
        cone = harness._setup_point(cfg, pt).cone
        assert cone.radius == pytest.approx(radius(xi, pt.s), rel=1e-15)
        assert (cone.groups.M, cone.groups.d) == layout


def test_logistic_ar1_point_makes_no_eigendecomposition(tmp_path,
                                                        monkeypatch):
    # Sigma's closed-form eigenpairs serve the design's square root and
    # Sigma's eig_max, which the rank-one K's eig_max step reads
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cfg = ExperimentConfig(
        experiment="rates", loss="logistic",
        penalty="l1_constrained", covariance="ar1:0.5", amplitude=0.25,
        grid=(GridPoint(100, 60, 3),), replications=1)
    setup = harness._setup_point(cfg, cfg.grid[0])
    assert calls == []
    rec = harness._run_task(cfg, setup, 0, 0)
    assert rec["exp_converged"] and rec["gap"] > 0
    assert calls == []


def test_coverage_interval_scales_with_noise_sd(tmp_path):
    # at noise_sd = 2 an interval of 1.96/sqrt(n), the width for unit
    # noise, covers about 65 % of the time; 1.96 noise_sd/sqrt(n) covers
    # 95 %, and the t statistics have unit spread
    cfg = ExperimentConfig(
        experiment="coverage", grid=(GridPoint(400, 800, 5),),
        xi=0.05, amplitude=0.1, noise_sd=2.0, replications=100,
        master_seed=4242)
    summary = run_experiment(cfg, str(tmp_path / "cov"))
    assert 0.88 <= summary["points"][0]["coverage"] <= 0.99
    recs = read_records(tmp_path / "cov" / "records.csv")
    t_sd = float(np.std([r["t_stat"] for r in recs], ddof=1))
    assert 0.8 <= t_sd <= 1.25


def assert_fits_match_records(summary, recs):
    # each point's median_<metric> is np.quantile's median of its certified
    # records.csv cells, bit for bit, and the three rate fits are the line
    # np.polyfit draws through log r_n and log np.median of those cells
    fits = dict(summary["rate_fits"], gap=summary["rate_fit"])
    for metric, fit in fits.items():
        cells = {}
        for r in recs:
            if r["est_converged"] and r["exp_converged"] \
                    and r[metric] is not None:
                cells.setdefault(r["point"], (r["r_n"], []))[1].append(
                    r[metric])
        for pi, (_, vals) in cells.items():
            median = summary["points"][pi]["median_" + metric]
            assert median == np.quantile(vals, 0.5)
        pairs = [(r_n, np.median(vals)) for r_n, vals in cells.values()
                 if np.median(vals) > 0]
        if len(pairs) < 3 or len({r_n for r_n, _ in pairs}) < 2:
            assert fit is None
            continue
        x, y = np.log(pairs).T
        coef = np.polyfit(x, y, 1)
        resid = y - np.polyval(coef, x)
        stderr = math.sqrt(resid @ resid / (len(x) - 2)
                           / ((x - x.mean()) @ (x - x.mean())))
        assert fit["metric"] == metric
        for key, want in zip(("slope", "intercept", "stderr"),
                             (*coef, stderr)):
            assert fit[key] == pytest.approx(want, rel=1e-12, abs=0), key


def test_rate_fit_matches_csv_round_trip(tmp_path):
    # summary.json's gap fit (rate_fit) and err_est and err_exp fits
    # (rate_fits) match the records read back
    cfg, summary = run_tiny(tmp_path, "rt")
    recs = read_records(tmp_path / "rt" / "records.csv")
    assert summary["rate_fit"] is not None
    assert None not in summary["rate_fits"].values()
    assert_fits_match_records(summary, recs)
    loaded = json.loads((tmp_path / "rt" / "summary.json").read_text())
    assert loaded == summary


def test_run_experiment_records_failures(tmp_path):
    # two iterations rarely reach a 1e-13 tolerance from a zero start
    cfg, summary = run_tiny(tmp_path, "fail", max_iters=2, kkt_tol=1e-13)
    recs = read_records(tmp_path / "fail" / "records.csv")
    failed = sum(1 for r in recs
                 if not (r["est_converged"] and r["exp_converged"]))
    assert summary["failed"] == failed
    assert summary["failed_fraction"] == failed / summary["records"]
    assert failed >= summary["records"] // 2
    assert all(r["est_iterations"] <= 2 for r in recs)
    # too few surviving grid points for a rate fit
    assert summary["rate_fit"] is None
    assert summary["rate_fits"] == {"err_est": None, "err_exp": None}
    dead = {r["point"] for r in recs} - {
        r["point"] for r in recs if r["est_converged"] and r["exp_converged"]}
    for e in summary["points"]:
        if e["point"] in dead:
            assert "median_err_est" not in e


def test_summary_is_strict_json_when_gaps_vanish(tmp_path):
    def refuse(name):
        raise ValueError("non-finite number %s in summary.json" % name)

    cases = [
        # with no signal both fits are 0, so gap, err_est and err_exp are
        # all 0: ratio has no value and log(median gap) is undefined
        ("zero", 0.0, (100, 200, 400), 3),
        # one grid point three times: every r_n is equal, so no slope
        ("same_rn", 1.0, (100, 100, 100), 2),
    ]
    for name, amplitude, sizes, reps in cases:
        cfg = ExperimentConfig(experiment="rates", amplitude=amplitude,
                               grid=tuple(GridPoint(n, 2 * n, 5)
                                          for n in sizes),
                               replications=reps, master_seed=5)
        summary = run_experiment(cfg, str(tmp_path / name), threads=1)
        loaded = json.loads((tmp_path / name / "summary.json").read_text(),
                            parse_constant=refuse)
        assert loaded == summary
        assert summary["failed"] == 0
        assert summary["rate_fit"] is None
        if amplitude == 0.0:
            assert all(e["median_gap"] == 0.0 for e in summary["points"])
        else:
            assert all(e["median_gap"] > 0.0 for e in summary["points"])


# the writer's text for each cell type: flags, format(int, "d") and
# format(float, ".17g")
CELL_TEXT = {bool: "true|false", int: "-?[0-9]+",
             float: r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?|nan|-?inf"}

# The columns every kind fills with its fit, its expansion, the cone and
# the support bound, and those each kind adds on top; group runs also fill
# M, d and nnz_groups.
EVERY_KIND_COLUMNS = {
    "point", "n", "p", "s", "rep", "seed", "r_n", "penalty_level", "err_est",
    "err_exp", "gap", "ratio", "est_iterations", "exp_iterations", "est_kkt",
    "exp_kkt", "est_converged", "exp_converged", "cone_est", "cone_exp",
    "cone_both", "nnz_coords", "nnz_groups", "sparsity_bound", "sparsity_ok"}
KIND_COLUMNS = {
    "rates": set(),
    "risk_identity": {"risk_lhs", "risk_rhs", "risk_mc_se", "risk_ratio",
                      "risk_bound", "risk_ok"},
    "coverage": {"theta_hat", "target", "covered", "t_stat"},
}


@pytest.mark.parametrize("penalty", harness.PENALTY_KINDS)
@pytest.mark.parametrize("kind", harness.EXPERIMENT_KINDS)
def test_each_kind_fills_its_columns_and_round_trips(tmp_path, monkeypatch,
                                                     kind, penalty):
    group = penalty == "group_lasso"
    point = GridPoint(100, 40, 2, M=10, d=4) if group else \
        GridPoint(100, 40, 2)
    csv_text = harness._csv_text
    written = []

    def keep(schema, rows):
        if schema is RECORD_SCHEMA:
            written[:] = [{k: row[k] for k in RECORD_SCHEMA} for row in rows]
        return csv_text(schema, rows)

    monkeypatch.setattr(harness, "_csv_text", keep)
    body = {}
    for threads in (1, 2):
        out = tmp_path / str(threads)
        run_experiment(ExperimentConfig(
            experiment=kind, penalty=penalty, grid=(point,), replications=2,
            master_seed=2027, mc_inner=100), str(out), threads)
        body[threads] = (out / "records.csv").read_bytes()
    assert body[1] == body[2]
    filled = EVERY_KIND_COLUMNS | KIND_COLUMNS[kind]
    if group:
        filled |= {"M", "d"}
    else:
        filled -= {"nnz_groups"}  # there are no groups to count
    records = written
    assert len(records) == 2
    for rec in records:
        assert rec["est_converged"] is True
        assert rec["exp_converged"] is True
        assert {k for k, v in rec.items() if v is not None} == filled
    # the tasks give each cell its column's type, each cell's text is its
    # type's as the writer writes it, and parsing the file and writing it
    # again gives records.csv byte for byte
    assert_typed_as_written(records)
    with open(tmp_path / "2" / "records.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(RECORD_SCHEMA) and len(rows) == 2
    for row in rows:
        for k, v in zip(header, row):
            assert v == "" or re.fullmatch(CELL_TEXT[RECORD_SCHEMA[k]], v), \
                (k, v)
    loaded = read_records(tmp_path / "2" / "records.csv")
    assert csv_text(RECORD_SCHEMA, loaded).encode() == body[2]
    # the ratios are their definitions, exactly: %.17g round-trips a double
    for rec in loaded:
        assert rec["ratio"] == rec["gap"] / (rec["err_est"] + rec["err_exp"])
        if kind == "risk_identity":
            assert rec["risk_ratio"] == rec["risk_lhs"] / rec["risk_rhs"]


# One config per kind, penalty and loss the kind allows: squared loss on
# AR(1) Sigma, except that the risk identity needs the identity, and
# logistic loss on the identity inside the unit ball (v = 0.99 and 0.49),
# with n large enough for every fit to leave zero.
ORACLE_CASES = [
    (kind, penalty, loss) for kind in harness.EXPERIMENT_KINDS
    for penalty in harness.PENALTY_KINDS for loss in ("squared", "logistic")
    if loss == "squared" or kind not in ("risk_identity", "coverage")]


def oracle_cells(cfg, pi, ri, ds, penalty, est, exp):
    """Every records.csv cell of one task, recomputed from its definition
    with dense matrices and tests/oracles.py; the risk cells only where the
    risk identity's hypotheses hold, the interval's only on linear data."""
    pt = cfg.grid[pi]
    group = cfg.penalty == "group_lasso"
    b_star, b_hat, eta = ds.beta_star, est.solution, exp.solution
    sigma = dense_covariance(ds.covariance.matrix)
    K = sigma.matrix if cfg.loss == "squared" else \
        logistic_curvature_dense(ds.covariance, b_star)
    sig_hat = float(np.sqrt(np.mean(ds.noise ** 2))) \
        if cfg.loss == "squared" else 0.5

    def knorm(u):
        return math.sqrt(u @ K @ u)

    seed = int(np.random.SeedSequence((cfg.master_seed, pi, ri))
               .generate_state(1, np.uint64)[0])
    cells = dict(point=pi, n=pt.n, p=pt.p, s=pt.s, M=pt.M, d=pt.d, rep=ri,
                 seed=seed, est_iterations=est.iterations,
                 exp_iterations=exp.iterations, est_kkt=est.kkt_residual,
                 exp_kkt=exp.kkt_residual, est_converged=est.converged,
                 exp_converged=exp.converged)
    # the rate scale, the penalty level and the cone's radius of each penalty
    if group:
        d = pt.d
        cells["r_n"] = math.sqrt((pt.s * d + pt.s * math.log(pt.M / pt.s))
                                 / pt.n)
        cells["penalty_level"] = sig_hat * (1 + cfg.xi) * (
            math.sqrt(d) + (1 + 2 * cfg.xi) * math.sqrt(
                2 * math.log(pt.M / pt.s))) / math.sqrt(pt.n)
        radius = (2 + 3 / cfg.xi) * math.sqrt(pt.s)
    else:
        d = 1
        cells["r_n"] = math.sqrt(2 * pt.s * math.log(pt.p / pt.s) / pt.n)
        if cfg.penalty == "l1_penalized":
            cells["penalty_level"] = sig_hat * (1 + 3 * cfg.xi) * math.sqrt(
                2 * math.log(pt.p / pt.s) / pt.n)
            radius = (6 + 2 / cfg.xi) * math.sqrt(pt.s)
        else:
            cells["penalty_level"] = float(np.abs(b_star).sum())
            radius = 2 * math.sqrt(pt.s)
    err_est, err_exp = knorm(b_hat - b_star), knorm(eta - b_star)
    cells.update(err_est=err_est, err_exp=err_exp, gap=knorm(eta - b_hat))
    if err_est + err_exp > 0:
        cells["ratio"] = cells["gap"] / (err_est + err_exp)

    def in_cone(u):
        return bool(np.linalg.norm(u.reshape(-1, d), axis=1).sum()
                    <= radius * np.linalg.norm(u))

    cells.update(cone_est=in_cone(b_hat - b_star),
                 cone_exp=in_cone(eta - b_star))
    cells["cone_both"] = cells["cone_est"] and cells["cone_exp"]
    # the support bound s {1 + C_max [2(3+xi)(1+1/xi)]^2 B3^2/phi^2}
    blocks = [K[g:g + d, g:g + d] for g in range(0, pt.p, d)] if group \
        else [K]
    c_max = max(np.linalg.eigvalsh(b).max() for b in blocks)
    b3 = np.linalg.eigvals(np.linalg.solve(K, sigma.matrix)).real.max()
    factor = 2 * (3 + cfg.xi) * (1 + 1 / cfg.xi)
    bound = pt.s * (1 + c_max * factor ** 2 * b3 ** 2
                    / np.linalg.eigvalsh(sigma.matrix).min())
    nz = np.any(eta.reshape(-1, d) != 0, axis=1)
    cells.update(nnz_coords=int(np.count_nonzero(eta)),
                 nnz_groups=int(nz.sum()) if group else None,
                 sparsity_bound=bound,
                 sparsity_ok=bool(nz.sum() <= bound))
    if cfg.loss == "squared" and cfg.covariance == "identity":
        if cfg.penalty == "l1_penalized":
            risk = lasso_risk_erfc(penalty.level, b_star, sig_hat, pt.n)
            risk_se = 0.0
        elif group:
            tau = sig_hat / math.sqrt(pt.n)
            norms = np.linalg.norm(b_star.reshape(-1, d), axis=1)
            risk = tau * tau * sum(
                count * block_risk_mpmath(m / tau, penalty.level / tau, d)
                for m, count in zip(*np.unique(norms, return_counts=True)))
            risk_se = 0.0
        else:
            risk, risk_se = prox_risk_unchunked(penalty, b_star, sig_hat,
                                                pt.n, cfg.mc_inner, seed)
        lhs, rhs = float(np.linalg.norm(b_hat - b_star)), math.sqrt(risk)
        bound = 3 * sig_hat / math.sqrt(pt.n) + np.linalg.norm(b_hat - eta)
        cells.update(risk_lhs=lhs, risk_rhs=rhs,
                     risk_mc_se=risk_se / (2 * rhs), risk_ratio=lhs / rhs,
                     risk_bound=bound, risk_ok=bool(abs(lhs - rhs) <= bound))
    if cfg.loss == "squared":
        # a = e_1 normalized to ||Sigma^{-1/2} a|| = 1, and its score z_a
        x = np.linalg.solve(sigma.matrix, np.eye(1, pt.p)[0])
        a, z_a = np.eye(1, pt.p)[0] / math.sqrt(x[0]), \
            ds.X @ x / math.sqrt(x[0])
        theta = a @ b_hat + z_a @ (ds.y - ds.X @ b_hat) / (z_a @ z_a)
        half = 1.96 * cfg.noise_sd / math.sqrt(pt.n)
        target = a @ b_star
        cells.update(theta_hat=theta, target=target,
                     covered=bool(abs(theta - target) <= half),
                     t_stat=math.sqrt(pt.n) * (theta - target)
                     / cfg.noise_sd)
    return cells


@pytest.mark.parametrize("kind, penalty, loss", ORACLE_CASES)
def test_every_filled_cell_is_its_definition(tmp_path, monkeypatch, kind,
                                             penalty, loss):
    # keep each task's data, penalty, fit and expansion, in task order
    solves = {"fit": [], "expansion": []}

    def keeping(name, solve):
        def run(*args):
            result = solve(*args)
            solves[name].append((args[0], args[-2], result))
            return result
        return run

    monkeypatch.setattr(solver, "fit_penalized",
                        keeping("fit", solver.fit_penalized))
    monkeypatch.setattr(solver, "fit_expansion",
                        keeping("expansion", solver.fit_expansion))
    group = penalty == "group_lasso"
    n = 200 if loss == "squared" else 1600
    cfg = ExperimentConfig(
        experiment=kind, penalty=penalty, loss=loss, replications=2,
        grid=(GridPoint(n, 40, 2, M=10, d=4) if group
              else GridPoint(n, 40, 2),),
        covariance="identity" if loss == "logistic" or
        kind == "risk_identity" else "ar1:0.5",
        amplitude=1.0 if loss == "squared" else 0.35 if group else 0.7,
        master_seed=2031,
        mc_inner=100)
    run_experiment(cfg, str(tmp_path), 1)
    records = read_records(tmp_path / "records.csv")
    assert len(records) == len(solves["fit"]) == len(solves["expansion"]) \
        == 2
    for rec, (ds, pen, est), (ds_exp, _, exp) in zip(
            records, solves["fit"], solves["expansion"]):
        assert ds_exp is ds
        want = oracle_cells(cfg, rec["point"], rec["rep"], ds, pen, est, exp)
        for k, v in rec.items():
            if v is None:
                continue
            assert k in want, k
            if RECORD_SCHEMA[k] is float:
                assert v == pytest.approx(want[k], rel=1e-12, abs=1e-300), k
            else:
                assert v == want[k], k


def test_a_numpy_flag_is_written_by_its_column_type(tmp_path, monkeypatch):
    # sparsity_ok is declared bool, so a numpy.bool_ cell is written as a
    # Python bool is (str(np.True_) would write "True")
    kw = dict(experiment="rates", grid=(GridPoint(100, 40, 2),),
              replications=2)
    run_tiny(tmp_path, "plain", **kw)
    real_count = diagnostics.sparsity_count

    def numpy_flag(*args):
        cells = real_count(*args)
        return dict(cells, sparsity_ok=np.bool_(cells["sparsity_ok"]))

    monkeypatch.setattr(diagnostics, "sparsity_count", numpy_flag)
    run_tiny(tmp_path, "numpy", **kw)
    body = (tmp_path / "numpy" / "records.csv").read_bytes()
    with open(tmp_path / "numpy" / "records.csv", newline="") as fh:
        assert [r["sparsity_ok"] for r in csv.DictReader(fh)] == ["true"] * 2
    assert body == (tmp_path / "plain" / "records.csv").read_bytes()


def test_cli_experiment_prints_the_summary_rate_fit(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(CONFIG_TEXT.replace("grid = n=120 p=30 s=2",
                                        "grid = n=120 p=30 s=2\n"
                                        "grid = n=240 p=30 s=2"))
    out = str(tmp_path / "res")
    rc = cli.main(["experiment", str(conf), "--threads", "1", "--out", out])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["failed"] == 0
    # the printed rate fit is summary.json's
    summary = json.loads((tmp_path / "res" / "summary.json").read_text())
    assert printed["rate_fit"] == summary["rate_fit"]
    assert printed["rate_fit"]["slope"] > 0


def test_cli_experiment_bad_config(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("experiment = rates\nwat = 1\ngrid = n=10 p=5 s=1\n")
    rc = cli.main(["experiment", str(conf)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = cli.main(["experiment", str(tmp_path / "missing.conf")])
    assert rc == 2


def test_cli_experiment_failure_exit(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("experiment = rates\nreplications = 2\nmaster_seed = 3\n"
                    "max_iters = 2\nkkt_tol = 1e-13\n"
                    "grid = n=40 p=20 s=2\n")
    rc = cli.main(["experiment", str(conf), "--threads", "1",
                   "--out", str(tmp_path / "res")])
    assert rc == 3
    out = json.loads(capsys.readouterr().out)
    assert out["failed_fraction"] > 0.02


def test_cli_coverage_smoke(tmp_path, capsys):
    conf = tmp_path / "coverage.conf"
    conf.write_text("experiment = coverage\nreplications = 8\n"
                    "master_seed = 21\ngrid = n=100 p=30 s=2\n")
    rc = cli.main(["experiment", str(conf), "--threads", "1",
                   "--out", str(tmp_path / "cov")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["records"] == 8
    summary = json.loads((tmp_path / "cov" / "summary.json").read_text())
    assert 0.0 <= summary["points"][0]["coverage"] <= 1.0
    recs = read_records(tmp_path / "cov" / "records.csv")
    assert len(recs) == 8
    assert all(r["covered"] in (True, False) for r in recs)
    assert_typed_as_written(recs)
    assert all(r["target"] == 1.0 for r in recs)


def test_logistic_signal_at_the_default_amplitude_is_certified(tmp_path):
    # ||Sigma^{1/2} beta*|| = sqrt(5) at the default amplitude, beyond the
    # unit ball: the curvature is built and both solves are certified
    conf = tmp_path / "run.conf"
    conf.write_text("experiment = rates\nloss = logistic\n"
                    "replications = 1\ngrid = n=200 p=40 s=5\n")
    # a fresh process with a timeout, so a solve that never ends fails
    src = os.path.dirname(os.path.dirname(penexp.__file__))
    out = subprocess.run([sys.executable, "-m", "penexp", "experiment",
                          str(conf), "--threads", "1",
                          "--out", str(tmp_path / "res")],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    [rec] = read_records(tmp_path / "res" / "records.csv")
    assert rec["est_converged"] is True and rec["exp_converged"] is True
    assert rec["est_kkt"] <= 1e-8 and rec["exp_kkt"] <= 1e-8


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
