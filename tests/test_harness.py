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
from penexp import cli, diagnostics, harness
from penexp.cones import lasso_rate
from penexp.harness import (ExperimentConfig, GridPoint, RECORD_FIELDS,
                            RECORD_SCHEMA, TIMING_FIELDS, parse_config,
                            rate_fit, run_experiment, task_seed)


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
    text = ("experiment = sparsity_check\npenalty = group_lasso\n"
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
        with pytest.raises(ValueError, match="risk_identity runs require"):
            parse_config("experiment = risk_identity\n%s\n"
                         "grid = n=50 p=20 s=2\n" % line)
    # the rule reads the covariance's Sigma, not its spelling
    assert parse_config("experiment = risk_identity\ncovariance = ar1:0\n"
                        "grid = n=50 p=20 s=2\n").covariance == "ar1:0"
    with pytest.raises(ValueError):
        parse_config("experiment = coverage\nloss = logistic\n"
                     "grid = n=50 p=20 s=2\n")
    # the logistic curvature matrix exists in closed form only for a
    # gaussian design, so set-up would refuse this run after parsing
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
    # each of these would run every point set-up and then end the run at
    # its first task, or (infinite noise_sd) run on meaningless data
    for grid in ("n=0 p=20 s=2", "n=10 p=0 s=0"):
        with pytest.raises(ValueError, match="n >= 1 and p > s >= 1"):
            parse_config("experiment = rates\ngrid = %s\n" % grid)
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
            ("penalty = group_lasso\ngrid = n=50 p=20 s=2",
             "group runs need M and d in each grid entry"),
            ("penalty = group_lasso\ngrid = n=50 p=20 s=5 M=5 d=4",
             "grid point needs M > s")):
        with pytest.raises(ValueError, match=message):
            parse_config("experiment = rates\n%s\n" % text)
    for key, bad in (("xi", "nan"), ("xi", "inf"), ("amplitude", "nan"),
                     ("amplitude", "inf"), ("noise_sd", "inf"),
                     ("noise_sd", "nan")):
        with pytest.raises(ValueError, match="%s must be" % key):
            parse_config("experiment = rates\n%s = %s\n"
                         "grid = n=50 p=20 s=2\n" % (key, bad))


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
        assert list(rec) == RECORD_FIELDS
        for k, v in rec.items():
            assert v is None or type(v) is RECORD_SCHEMA[k], (k, v)


def test_run_experiment_outputs(tmp_path):
    cfg, summary = run_tiny(tmp_path, "a")
    out = tmp_path / "a"
    body = (out / "records.csv").read_bytes()
    assert body.startswith((",".join(RECORD_FIELDS) + "\r\n").encode())
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
    assert recs[0]["est_time"] if "est_time" in RECORD_FIELDS else True
    # summary.json round trips
    loaded = json.loads((out / "summary.json").read_text())
    assert loaded["rate_fit"]["slope"] == summary["rate_fit"]["slope"]
    # timings live in the sidecar, never in records.csv
    assert "est_time" not in RECORD_FIELDS
    tim = (out / "timings.csv").read_text()
    assert tim.splitlines()[0] == ",".join(TIMING_FIELDS)
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
            if r["est_converged"] and r["exp_converged"] is not False \
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


def test_fit_experiment_kind(tmp_path):
    cfg = ExperimentConfig(experiment="fit",
                           grid=(GridPoint(80, 20, 2), GridPoint(160, 20, 2),
                                 GridPoint(320, 20, 2)),
                           replications=3, master_seed=5)
    summary = run_experiment(cfg, str(tmp_path / "fit"), threads=1)
    recs = read_records(tmp_path / "fit" / "records.csv")
    assert len(recs) == 9
    for r in recs:
        assert r["est_converged"] is True
        assert r["exp_converged"] is None  # no expansion in fit runs
        assert r["gap"] is None
    assert all(e["median_err_est"] > 0 for e in summary["points"])
    # the fit's error has a rate; there is no expansion to fit
    assert summary["rate_fit"] is None
    assert summary["rate_fits"]["err_exp"] is None
    assert summary["rate_fits"]["err_est"] is not None
    assert_fits_match_records(summary, recs)


# the writer's text for each cell type: flags, format(int, "d") and
# format(float, ".17g")
CELL_TEXT = {bool: "true|false", int: "-?[0-9]+",
             float: r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?|nan|-?inf"}

# The columns every kind fills, those every kind but fit adds with its
# expansion, and those each kind adds on top; group runs also fill M and d.
FIT_COLUMNS = {"point", "n", "p", "s", "rep", "seed", "r_n",
               "penalty_level", "err_est", "est_iterations", "est_kkt",
               "est_converged"}
EXPANSION_COLUMNS = {"err_exp", "gap", "ratio", "exp_iterations", "exp_kkt",
                     "exp_converged"}
KIND_COLUMNS = {
    "rates": set(), "fit": set(),
    "cone_check": {"cone_est", "cone_exp", "cone_both"},
    "risk_identity": {"risk_lhs", "risk_rhs", "risk_mc_se", "risk_ratio",
                      "risk_bound", "risk_ok"},
    "coverage": {"theta_hat", "target", "covered", "t_stat"},
    "sparsity_check": {"nnz_coords", "nnz_groups", "sparsity_bound",
                       "sparsity_ok"},
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
            written[:] = [{k: row[k] for k in RECORD_FIELDS} for row in rows]
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
    filled = FIT_COLUMNS | KIND_COLUMNS[kind]
    if kind != "fit":
        filled |= EXPANSION_COLUMNS
    if group:
        filled |= {"M", "d"}
    else:
        filled -= {"nnz_groups"}  # there are no groups to count
    records = written
    assert len(records) == 2
    for rec in records:
        assert rec["est_converged"] is True
        assert rec["exp_converged"] is (None if kind == "fit" else True)
        assert {k for k, v in rec.items() if v is not None} == filled
    # the tasks give each cell its column's type, each cell's text is its
    # type's as the writer writes it, and parsing the file and writing it
    # again gives records.csv byte for byte
    assert_typed_as_written(records)
    with open(tmp_path / "2" / "records.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == RECORD_FIELDS and len(rows) == 2
    for row in rows:
        for k, v in zip(header, row):
            assert v == "" or re.fullmatch(CELL_TEXT[RECORD_SCHEMA[k]], v), \
                (k, v)
    loaded = read_records(tmp_path / "2" / "records.csv")
    assert csv_text(RECORD_SCHEMA, loaded).encode() == body[2]


def test_a_numpy_flag_is_written_by_its_column_type(tmp_path, monkeypatch):
    # sparsity_ok is declared bool, so a numpy.bool_ cell is written as a
    # Python bool is (str(np.True_) would write "True")
    kw = dict(experiment="sparsity_check", grid=(GridPoint(100, 40, 2),),
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
