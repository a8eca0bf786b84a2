import csv
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import penexp
from penexp import cli, harness, model, solver
from penexp.cones import lasso_rate
from penexp.harness import (ExperimentConfig, GridPoint, RECORD_FIELDS,
                            TIMING_FIELDS, load_records_csv, parse_config,
                            rate_fit, run_experiment, task_seed)
from penexp.losses import LOGISTIC, get_loss


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
threads = 1
grid = n=60 p=30 s=2
grid = n=120 p=30 s=2
out = ignored
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
    assert cfg.out == "ignored"


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
    # the risk bound's t and the CLI's failure fraction are fixed values
    for line in ("t_bound = 2.0", "max_fail_frac = 0.02"):
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


def test_validate_config_rejections():
    base = dict(experiment="rates", grid=(GridPoint(50, 20, 3),))
    with pytest.raises(ValueError):
        harness.validate_config(ExperimentConfig(**dict(base, xi=0.0)))
    with pytest.raises(ValueError):
        harness.validate_config(ExperimentConfig(**dict(base, replications=0)))
    with pytest.raises(ValueError):
        harness.validate_config(
            ExperimentConfig(**dict(base, experiment="volume")))
    # group runs need matching M*d = p
    with pytest.raises(ValueError):
        harness.validate_config(ExperimentConfig(
            experiment="rates", penalty="group_lasso",
            grid=(GridPoint(50, 20, 3, M=4, d=4),)))
    with pytest.raises(ValueError, match="unknown covariance 'ar2:0.5'"):
        parse_config("experiment = rates\ncovariance = ar2:0.5\n"
                     "grid = n=50 p=20 s=2\n")
    with pytest.raises(ValueError):
        parse_config("experiment = risk_identity\ncovariance = ar1:0.5\n"
                     "grid = n=50 p=20 s=2\n")
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
        parse_config("experiment = rates\nthreads = -3\n"
                     "grid = n=50 p=20 s=2\n")
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
    with pytest.raises(ValueError, match="n >= 1"):
        parse_config("experiment = rates\ngrid = n=0 p=20 s=2\n")
    with pytest.raises(ValueError, match="l1-ball radius"):
        parse_config("experiment = rates\npenalty = l1_constrained\n"
                     "amplitude = 0\ngrid = n=50 p=20 s=2\n")
    for key, bad in (("xi", "nan"), ("xi", "inf"), ("amplitude", "nan"),
                     ("amplitude", "inf"), ("noise_sd", "inf")):
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


def test_task_seed_stable():
    assert task_seed(7, 0, 0) == task_seed(7, 0, 0)
    seen = {task_seed(7, pi, ri) for pi in range(25) for ri in range(40)}
    assert len(seen) == 1000  # no collisions across the grid
    for s in list(seen)[:10]:
        assert 0 <= s < 2 ** 64
    assert task_seed(7, 0, 1) != task_seed(8, 0, 1)


def synthetic_records(r_values, gap_fn):
    recs = []
    for i, r in enumerate(r_values):
        for rep in range(3):
            recs.append({"point": i, "r_n": r, "gap": gap_fn(r),
                         "est_converged": True, "exp_converged": True})
    return recs


def test_rate_fit_exact_square():
    recs = synthetic_records([0.5, 0.4, 0.3, 0.2], lambda r: r * r)
    slope, intercept, stderr = rate_fit(recs, metric="gap")
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept) < 1e-12
    assert stderr < 1e-12


def test_rate_fit_three_halves():
    recs = synthetic_records([0.5, 0.4, 0.3, 0.2], lambda r: 3.0 * r ** 1.5)
    slope, intercept, _ = rate_fit(recs, metric="gap")
    assert abs(slope - 1.5) < 1e-12
    assert abs(intercept - math.log(3.0)) < 1e-12


def test_rate_fit_skips_nonconverged():
    recs = synthetic_records([0.5, 0.4, 0.3], lambda r: r * r)
    # a poisoned fourth point that never converged must not move the fit
    for rep in range(3):
        recs.append({"point": 3, "r_n": 0.1, "gap": 99.0,
                     "est_converged": False, "exp_converged": True})
    slope, _, _ = rate_fit(recs, metric="gap")
    assert abs(slope - 2.0) < 1e-12


def test_rate_fit_needs_three_points():
    recs = synthetic_records([0.5, 0.4], lambda r: r * r)
    with pytest.raises(ValueError):
        rate_fit(recs, metric="gap")
    # three points but one r_n: no slope to fit
    recs = synthetic_records([0.3, 0.3, 0.3], lambda r: r * r)
    with pytest.raises(ValueError):
        rate_fit(recs, metric="gap")


@pytest.mark.parametrize("r_n", [0.0, -0.2, math.inf, math.nan, None])
def test_rate_fit_refuses_r_n_not_finite_and_positive(capfd, r_n):
    recs = synthetic_records([0.5, 0.4, 0.3, 0.2], lambda r: r * r)
    for r in recs:
        if r["point"] == 2:
            r["r_n"] = r_n
    with pytest.raises(ValueError, match="grid point 2 has r_n = %r; "
                       % (r_n,)):
        rate_fit(recs, metric="gap")
    # refused before a logarithm or a least-squares solve is taken
    assert "DLASCL" not in "".join(capfd.readouterr())


@pytest.mark.parametrize("gap", [math.inf, -math.inf, math.nan])
def test_rate_fit_refuses_a_median_not_finite(gap):
    recs = synthetic_records([0.5, 0.4, 0.3, 0.2], lambda r: r * r)
    for r in recs:
        if r["point"] == 1:
            r["gap"] = gap
    with pytest.raises(ValueError, match="grid point 1 has a median gap of "
                       "%s, which is not finite" % gap):
        rate_fit(recs, metric="gap")


def test_rate_fit_skips_a_median_not_positive():
    recs = synthetic_records([0.5, 0.4, 0.3, 0.2], lambda r: r * r)
    for r in recs:
        if r["point"] == 3:
            r["gap"] = 0.0
    slope, _, _ = rate_fit(recs, metric="gap")
    assert abs(slope - 2.0) < 1e-12


def run_tiny(tmp_path, name, **overrides):
    kw = dict(experiment="rates",
              grid=(GridPoint(60, 30, 2), GridPoint(120, 30, 2),
                    GridPoint(240, 30, 2)),
              replications=4, master_seed=11, threads=1,
              out=str(tmp_path / name))
    kw.update(overrides)
    cfg = ExperimentConfig(**kw)
    return cfg, run_experiment(cfg)


INT_COLUMNS = {"point", "n", "p", "s", "M", "d", "rep", "seed",
               "est_iterations", "exp_iterations", "nnz_coords",
               "nnz_groups"}
FLAG_COLUMNS = {"est_converged", "exp_converged", "cone_est", "cone_exp",
                "cone_both", "risk_ok", "covered", "sparsity_ok"}


def assert_typed_as_written(recs):
    # each cell comes back with its column's type, an integral float too
    for rec in recs:
        assert list(rec) == RECORD_FIELDS
        for k, v in rec.items():
            want = int if k in INT_COLUMNS else \
                bool if k in FLAG_COLUMNS else float
            assert v is None or type(v) is want, (k, v)


def test_run_experiment_outputs(tmp_path):
    cfg, summary = run_tiny(tmp_path, "a")
    out = tmp_path / "a"
    body = (out / "records.csv").read_bytes()
    assert body.startswith((",".join(RECORD_FIELDS) + "\r\n").encode())
    assert body.count(b"\r\n") == 1 + summary["records"]
    assert summary["records"] == 12
    assert summary["failed"] == 0
    # records come back typed and ordered
    recs = load_records_csv(out / "records.csv")
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


def test_run_experiment_thread_invariance(tmp_path):
    _, s1 = run_tiny(tmp_path, "one", threads=1)
    _, s2 = run_tiny(tmp_path, "two", threads=3)
    b1 = (tmp_path / "one" / "records.csv").read_bytes()
    b2 = (tmp_path / "two" / "records.csv").read_bytes()
    assert b1 == b2
    assert s1["rate_fit"]["slope"] == s2["rate_fit"]["slope"]


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

    def spy(cfg, pt, loss):
        sizes.append(pt.p)
        return real_setup(cfg, pt, loss)

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

    def setup_spy(cfg, pt, loss):
        if pt.p == 40:
            waited.append(started.wait(timeout=30))
        return real_setup(cfg, pt, loss)

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

    def setup_spy(cfg, pt, loss):
        if pt.p == 20:
            raise RuntimeError("set-up failed")
        return real_setup(cfg, pt, loss)

    def task_spy(*args):
        ran.append(args[-1])
        time.sleep(0.05)
        return real_task(*args)

    monkeypatch.setattr(harness, "_setup_point", setup_spy)
    monkeypatch.setattr(harness, "_run_task", task_spy)
    with pytest.raises(RuntimeError, match="set-up failed"):
        run_tiny(tmp_path, "broken", threads=2, replications=40,
                 grid=(GridPoint(60, 20, 2), GridPoint(60, 30, 2)))
    assert not (tmp_path / "broken").exists()
    assert len(ran) < 40


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
        grid=(GridPoint(100, 60, 3),), replications=1, threads=1,
        out=str(tmp_path / "ar1"))
    setup = harness._setup_point(cfg, cfg.grid[0], LOGISTIC)
    assert calls == []
    rec, _ = harness._run_task(cfg, setup, LOGISTIC, solver.SolverConfig(),
                               0, 0)
    assert rec["exp_converged"] and rec["gap"] > 0
    assert calls == []


def test_coverage_interval_scales_with_noise_sd(tmp_path):
    # at noise_sd = 2 an interval of 1.96/sqrt(n), the width for unit
    # noise, covers about 65 % of the time; 1.96 noise_sd/sqrt(n) covers
    # 95 %, and the t statistics have unit spread
    cfg = ExperimentConfig(
        experiment="coverage", grid=(GridPoint(400, 800, 5),),
        xi=0.05, amplitude=0.1, noise_sd=2.0, replications=100,
        master_seed=4242, out=str(tmp_path / "cov"))
    summary = run_experiment(cfg)
    assert 0.88 <= summary["points"][0]["coverage"] <= 0.99
    recs = load_records_csv(tmp_path / "cov" / "records.csv")
    t_sd = float(np.std([r["t_stat"] for r in recs], ddof=1))
    assert 0.8 <= t_sd <= 1.25


def test_rate_fit_matches_csv_round_trip(tmp_path):
    cfg, summary = run_tiny(tmp_path, "rt")
    recs = load_records_csv(tmp_path / "rt" / "records.csv")
    slope, intercept, stderr = rate_fit(recs, metric="gap")
    assert slope == summary["rate_fit"]["slope"]
    assert intercept == summary["rate_fit"]["intercept"]


def test_run_experiment_records_failures(tmp_path):
    # two iterations rarely reach a 1e-13 tolerance from a zero start
    cfg, summary = run_tiny(tmp_path, "fail", max_iters=2, kkt_tol=1e-13)
    recs = load_records_csv(tmp_path / "fail" / "records.csv")
    failed = sum(1 for r in recs
                 if not (r["est_converged"] and r["exp_converged"]))
    assert summary["failed"] == failed
    assert summary["failed_fraction"] == failed / summary["records"]
    assert failed >= summary["records"] // 2
    assert all(r["est_iterations"] <= 2 for r in recs)
    # too few surviving grid points for a rate fit
    assert summary["rate_fit"] is None
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
                               replications=reps, master_seed=5, threads=1,
                               out=str(tmp_path / name))
        summary = run_experiment(cfg)
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
                           grid=(GridPoint(80, 20, 2),),
                           replications=3, master_seed=5, threads=1,
                           out=str(tmp_path / "fit"))
    summary = run_experiment(cfg)
    recs = load_records_csv(tmp_path / "fit" / "records.csv")
    assert len(recs) == 3
    for r in recs:
        assert r["est_converged"] is True
        assert r["exp_converged"] is None  # no expansion in fit runs
        assert r["gap"] is None
    assert summary["points"][0]["median_err_est"] > 0
    assert summary["rate_fit"] is None


def test_cli_generate_fit_expand(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    rc = cli.main(["generate", "--n", "120", "--p", "30", "--s", "3",
                   "--seed", "9", "--out", ds])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["n"] == 120 and meta["p"] == 30

    sol = str(tmp_path / "sol")
    rc = cli.main([ "fit", ds, "--penalty", "l1:0.3", "--out", sol])
    assert rc == 0
    info = json.loads((tmp_path / "sol" / "solution.json").read_text())
    assert info["converged"] is True
    assert info["kkt_residual"] <= 1e-8
    assert info["passes"] >= 2
    beta = np.fromfile(tmp_path / "sol" / "solution.bin")
    assert beta.shape == (30,)

    exp = str(tmp_path / "exp")
    rc = cli.main(["expand", ds, "--penalty", "l1:0.3", "--out", exp])
    assert rc == 0
    info = json.loads((tmp_path / "exp" / "expansion.json").read_text())
    assert info["converged"] is True
    assert info["passes"] >= info["iterations"] >= 1
    eta = np.fromfile(tmp_path / "exp" / "expansion.bin")
    assert eta.shape == (30,)


def _without(key):
    return lambda meta, ds: {k: v for k, v in meta.items() if k != key}


def _with(**items):
    return lambda meta, ds: dict(meta, **items)


def _shortened(name):
    def edit(meta, ds):
        (ds / name).write_bytes((ds / name).read_bytes()[:-8])
        return meta
    return edit


def _poisoned(name):
    def edit(meta, ds):
        values = np.fromfile(ds / name, dtype="<f8")
        values[-1] = np.nan
        values.tofile(ds / name)
        return meta
    return edit


@pytest.mark.parametrize("edit, message", [
    (_without("covariance"), "lacks the key 'covariance'"),
    (_without("n"), "lacks the key 'n'"),
    (_with(model_kind="poisson"), "unknown model kind 'poisson'"),
    (lambda meta, ds: [1], "holds no JSON object"),
    (_with(n="40"), "the key 'n' holds '40'"),
    (_with(p=10.0), "the key 'p' holds 10.0"),
    (_with(seed=True), "the key 'seed' holds True"),
    (_with(covariance=5), "the key 'covariance' holds 5"),
    (_with(beta_star=[None] * 10), "the key 'beta_star'"),
    (_with(n=-1), "the key 'n' holds -1, a value out of range"),
    (_with(p=-10), "the key 'p' holds -10, a value out of range"),
    (_with(design_kind="bogus"), "the key 'design_kind' holds 'bogus'"),
    (_with(beta_star=[0.0] * 9), "the key 'beta_star' holds 9 values, "
                                 "not p = 10"),
    (_shortened("y.bin"), "y.bin holds 39 values, not n = 40"),
    (_shortened("eps.bin"), "eps.bin holds 39 values, not n = 40"),
    (_shortened("X.bin"), "X.bin holds 399 values, not n·p = 400"),
    (_with(beta_star=[0.0] * 9 + [math.nan]),
     "the key 'beta_star' holds a value that is not finite"),
    (_with(beta_star=[0.0] * 9 + [10 ** 400]),
     "the key 'beta_star' holds a value that is not finite"),
    (_with(noise_sd=math.inf), "the key 'noise_sd' holds inf, a value out "
                               "of range"),
    (_poisoned("y.bin"), "y.bin holds a value that is not finite"),
    (_poisoned("eps.bin"), "eps.bin holds a value that is not finite"),
    (_poisoned("X.bin"), "X.bin holds a value that is not finite"),
], ids=["no_covariance", "no_n", "unknown_model_kind", "not_an_object",
        "n_a_string", "p_a_float", "seed_a_flag", "covariance_a_number",
        "beta_star_nulls", "n_negative", "p_negative", "design_kind_unknown",
        "beta_star_short", "y_short", "eps_short", "x_short", "beta_star_nan",
        "beta_star_overflow", "noise_sd_inf", "y_nan", "eps_nan", "x_nan"])
def test_cli_fit_refuses_a_malformed_meta_json(tmp_path, capsys, edit,
                                               message):
    ds = tmp_path / "ds"
    cli.main(["generate", "--n", "40", "--p", "10", "--s", "2",
              "--out", str(ds)])
    capsys.readouterr()
    meta = json.loads((ds / "meta.json").read_text())
    (ds / "meta.json").write_text(json.dumps(edit(meta, ds)))
    rc = cli.main(["fit", str(ds), "--penalty", "l1:0.3",
                   "--out", str(tmp_path / "sol")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sol").exists()


def test_cli_generate_refuses_negative_seed(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = cli.main(["generate", "--n", "20", "--p", "5", "--s", "1",
                   "--seed", "-1", "--out", str(out)])
    assert rc == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_generate_refuses_negative_noise_sd(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = cli.main(["generate", "--n", "20", "--p", "5", "--s", "1",
                   "--noise-sd", "-2", "--out", str(out)])
    assert rc == 2
    assert "noise_sd must be >= 0" in capsys.readouterr().err
    assert not (out / "meta.json").exists()


def test_cli_generate_refuses_empty_design(tmp_path, capsys):
    # p = 0 used to write a dataset that fit then refused
    for covariance in ("identity", "ar1:0.5"):
        out = tmp_path / covariance
        rc = cli.main(["generate", "--n", "10", "--p", "0", "--s", "0",
                       "--covariance", covariance, "--out", str(out)])
        assert rc == 2, covariance
        assert "need p >= 1" in capsys.readouterr().err, covariance
        assert not out.exists()


def test_cli_generate_refuses_non_finite_noise_sd(tmp_path, capsys):
    # an infinite noise_sd wrote responses of +-inf, and a later fit wrote
    # Infinity and NaN into solution.json
    for value in ("inf", "nan"):
        out = tmp_path / value
        rc = cli.main(["generate", "--n", "20", "--p", "5", "--s", "1",
                       "--noise-sd", value, "--out", str(out)])
        assert rc == 2, value
        assert "noise_sd must be >= 0 and finite" in \
            capsys.readouterr().err, value
        assert not out.exists()


def test_cli_generate_refuses_non_finite_amplitude(tmp_path, capsys):
    # an infinite amplitude wrote NaN responses, and a later fit wrote NaN
    # into solution.json
    for value in ("inf", "nan"):
        out = tmp_path / value
        rc = cli.main(["generate", "--n", "20", "--p", "5", "--s", "1",
                       "--amplitude", value, "--out", str(out)])
        assert rc == 2, value
        assert "amplitude must be finite" in capsys.readouterr().err, value
        assert not out.exists()


@pytest.mark.parametrize("loss, covariance, design", [
    ("squared", "ar1:0.5", "rademacher"),
    ("logistic", "ar1:-0.3", "gaussian"),
])
def test_cli_generate_writes_the_experiment_task_dataset(
        tmp_path, capsys, monkeypatch, loss, covariance, design):
    # generate --seed S and the experiment task whose seed is S draw their
    # data through one path, so they write the same bytes
    cfg = ExperimentConfig(
        experiment="fit", loss=loss, covariance=covariance, design=design,
        noise_sd=0.7, amplitude=0.3, grid=(GridPoint(40, 12, 2),),
        replications=2, master_seed=77, threads=1, out=str(tmp_path / "x"))
    made = []
    simulate = model.simulate

    def spy(*args):
        made.append(simulate(*args))
        return made[-1]

    monkeypatch.setattr(model, "simulate", spy)
    loss_obj = get_loss(loss)
    setup = harness._setup_point(cfg, cfg.grid[0], loss_obj)
    harness._run_task(cfg, setup, loss_obj, solver.SolverConfig(), 0, 1)
    ds = made[0]
    seed = task_seed(77, 0, 1)
    assert ds.seed == seed
    out = tmp_path / "ds"
    rc = cli.main(["generate", "--n", "40", "--p", "12", "--s", "2",
                   "--model", ds.model_kind, "--design", design,
                   "--covariance", covariance, "--noise-sd", "0.7",
                   "--amplitude", "0.3", "--seed", str(seed),
                   "--out", str(out)])
    assert rc == 0
    assert (out / "X.bin").read_bytes() == ds.X.astype("<f8").tobytes()
    assert (out / "y.bin").read_bytes() == ds.y.astype("<f8").tobytes()
    if ds.noise is None:
        assert not (out / "eps.bin").exists()
    else:
        assert (out / "eps.bin").read_bytes() == \
            ds.noise.astype("<f8").tobytes()


def test_cli_fit_not_converged_exit(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "60", "--p", "20", "--s", "2",
              "--seed", "4", "--out", ds])
    capsys.readouterr()
    rc = cli.main(["fit", ds, "--penalty", "l1:0.1", "--max-iters", "1",
                   "--out", str(tmp_path / "sol")])
    assert rc == 3


def test_cli_penalty_spec_errors(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "40", "--p", "20", "--s", "2",
              "--seed", "4", "--out", ds])
    capsys.readouterr()
    out = str(tmp_path / "sol")
    for spec in ("l2:0.3", "l1:-1", "l1ball:0", "group:0.2:7", "l1"):
        rc = cli.main(["fit", ds, "--penalty", spec, "--out", out])
        assert rc == 2, spec
        assert "error:" in capsys.readouterr().err


def test_cli_refuses_non_finite_penalty_and_tolerance(tmp_path, capsys):
    # an infinite tolerance certified any iterate; infinite or NaN levels
    # and radii wrote NaN objectives or failed inside the solver
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "40", "--p", "20", "--s", "2",
              "--seed", "4", "--out", ds])
    capsys.readouterr()
    out = tmp_path / "sol"
    cases = [(["--penalty", spec], "bad penalty spec")
             for spec in ("l1:inf", "l1:nan", "l1ball:nan", "l1ball:inf",
                          "group:inf:2", "group:nan:2")]
    cases += [(["--penalty", "l1:0.3", "--tol", tol], "kkt_tol must be")
              for tol in ("inf", "nan")]
    for flags, message in cases:
        for command in ("fit", "expand"):
            rc = cli.main([command, ds] + flags + ["--out", str(out)])
            assert rc == 2, flags
            assert message in capsys.readouterr().err, flags
            assert not out.exists()


def test_cli_group_fit(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "80", "--p", "20", "--s", "2",
              "--seed", "6", "--out", ds])
    capsys.readouterr()
    rc = cli.main(["fit", ds, "--penalty", "group:0.2:5",
                   "--out", str(tmp_path / "sol")])
    assert rc == 0
    info = json.loads((tmp_path / "sol" / "solution.json").read_text())
    assert info["penalty"] == "group:0.2:5"


def test_cli_risk_identity(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "200", "--p", "30", "--s", "3",
              "--seed", "13", "--out", ds])
    capsys.readouterr()
    rc = cli.main(["risk-identity", ds, "--penalty", "l1:0.25",
                   "--n-mc", "4000", "--seed", "2",
                   "--out", str(tmp_path / "rr")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    disk = json.loads((tmp_path / "rr" / "risk_identity.json").read_text())
    assert disk == report
    assert report["est_converged"] and report["exp_converged"]
    assert report["ratio"] == pytest.approx(report["lhs"] / report["rhs"],
                                            rel=1e-12)


def test_cli_risk_identity_writes_strict_json_at_zero_rhs(tmp_path, capsys):
    # no noise and no penalty: the prox risk, hence rhs, is exactly 0
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "100", "--p", "20", "--s", "2",
              "--noise-sd", "0", "--seed", "4", "--out", ds])
    capsys.readouterr()
    rc = cli.main(["risk-identity", ds, "--penalty", "l1:0", "--n-mc", "50",
                   "--out", str(tmp_path / "rr")])
    assert rc == 0

    def refuse(name):
        raise ValueError("not strict JSON: %s" % name)

    text = (tmp_path / "rr" / "risk_identity.json").read_text()
    report = json.loads(text, parse_constant=refuse)
    assert report["rhs"] == 0.0
    assert report["ratio"] is None


def test_cli_risk_identity_refuses_logistic_data_before_solving(
        tmp_path, capsys, monkeypatch):
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--model", "logistic", "--n", "100", "--p", "20",
              "--s", "2", "--amplitude", "0.5", "--seed", "3", "--out", ds])
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing the data")

    monkeypatch.setattr(solver, "fit_penalized", no_solve)
    rc = cli.main(["risk-identity", ds, "--penalty", "l1:0.1"])
    assert rc == 2
    assert "risk identity applies to linear data" in capsys.readouterr().err


def test_cli_risk_identity_refuses_one_draw_before_solving(
        tmp_path, capsys, monkeypatch):
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "100", "--p", "20", "--s", "2",
              "--seed", "3", "--out", ds])
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing --n-mc")

    monkeypatch.setattr(solver, "fit_penalized", no_solve)
    rc = cli.main(["risk-identity", ds, "--penalty", "l1:0.1",
                   "--n-mc", "1"])
    assert rc == 2
    assert "--n-mc" in capsys.readouterr().err


def test_cli_risk_identity_refuses_bad_t_before_solving(
        tmp_path, capsys, monkeypatch):
    # --t -3 reported a negative bound and --t nan a NaN one, with exit 0
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "100", "--p", "20", "--s", "2",
              "--seed", "3", "--out", ds])
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing --t")

    monkeypatch.setattr(solver, "fit_penalized", no_solve)
    for value in ("-3", "nan", "inf"):
        rc = cli.main(["risk-identity", ds, "--penalty", "l1:0.1",
                       "--t", value])
        assert rc == 2, value
        assert "--t must be >= 0 and finite" in capsys.readouterr().err


def test_cli_risk_identity_refuses_negative_seed_before_solving(
        tmp_path, capsys, monkeypatch):
    ds = str(tmp_path / "ds")
    cli.main(["generate", "--n", "100", "--p", "20", "--s", "2",
              "--seed", "3", "--out", ds])
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing --seed")

    monkeypatch.setattr(solver, "fit_penalized", no_solve)
    rc = cli.main(["risk-identity", ds, "--penalty", "l1:0.1",
                   "--seed", "-2"])
    assert rc == 2
    assert "--seed must be >= 0, got -2" in capsys.readouterr().err


def test_cli_experiment_and_rate_fit(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(CONFIG_TEXT.replace("grid = n=120 p=30 s=2",
                                        "grid = n=120 p=30 s=2\n"
                                        "grid = n=240 p=30 s=2"))
    out = str(tmp_path / "res")
    rc = cli.main(["experiment", str(conf), "--out", out])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["failed"] == 0
    fit_path = tmp_path / "fit.json"
    rc = cli.main(["rate-fit", str(tmp_path / "res" / "records.csv"),
                   "--out", str(fit_path)])
    assert rc == 0
    text = capsys.readouterr().out
    assert json.loads(text)["slope"] == printed["rate_fit"]["slope"]
    # the file holds the printed JSON, final newline included
    assert fit_path.read_text() == text
    # a misspelt metric is named, not reported as too few grid points
    rc = cli.main(["rate-fit", str(tmp_path / "res" / "records.csv"),
                   "--metric", "gaps"])
    assert rc == 2
    assert "'gaps'" in capsys.readouterr().err
    # an identifier, the rate scale itself or a flag is no measurement
    for metric in ("seed", "r_n", "est_converged"):
        rc = cli.main(["rate-fit", str(tmp_path / "res" / "records.csv"),
                       "--metric", metric, "--out", str(tmp_path / "no.json")])
        assert rc == 2
        assert "%r is not a measured" % metric in capsys.readouterr().err
        assert not (tmp_path / "no.json").exists()


def test_cli_rate_fit_refuses_a_file_that_is_not_records(tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("a,b\r\n1,2\r\n")
    rc = cli.main(["rate-fit", str(other)])
    assert rc == 2
    assert "%s is not a records file: its header lacks the column 'point'" \
        % other in capsys.readouterr().err
    # a records file short of one column names that column
    fields = [f for f in RECORD_FIELDS if f != "est_converged"]
    short = tmp_path / "short.csv"
    short.write_text(",".join(fields) + "\r\n")
    with pytest.raises(ValueError, match="lacks the column 'est_converged'"):
        load_records_csv(short)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="lacks the column 'point'"):
        load_records_csv(empty)


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
                    "threads = 1\nmax_iters = 2\nkkt_tol = 1e-13\n"
                    "grid = n=40 p=20 s=2\n")
    rc = cli.main(["experiment", str(conf), "--out", str(tmp_path / "res")])
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
    recs = load_records_csv(tmp_path / "cov" / "records.csv")
    assert len(recs) == 8
    assert all(r["covered"] in (True, False) for r in recs)
    assert_typed_as_written(recs)
    assert all(r["target"] == 1.0 for r in recs)


def _penexp_process(*args):
    # a fresh process with a timeout, so a solve that never ends fails
    src = os.path.dirname(os.path.dirname(penexp.__file__))
    return subprocess.run([sys.executable, "-m", "penexp", *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)


def test_logistic_signal_at_the_default_amplitude_is_certified(tmp_path,
                                                               capsys):
    # ||Sigma^{1/2} beta*|| = sqrt(5) at the default amplitude, beyond the
    # unit ball: the curvature is built and both solves are certified
    conf = tmp_path / "run.conf"
    conf.write_text("experiment = rates\nloss = logistic\n"
                    "replications = 1\nthreads = 1\ngrid = n=200 p=40 s=5\n")
    out = _penexp_process("experiment", str(conf),
                          "--out", str(tmp_path / "res"))
    assert out.returncode == 0, out.stderr
    [rec] = load_records_csv(tmp_path / "res" / "records.csv")
    assert rec["est_converged"] is True and rec["exp_converged"] is True
    assert rec["est_kkt"] <= 1e-8 and rec["exp_kkt"] <= 1e-8
    ds = str(tmp_path / "ds")
    with pytest.warns(UserWarning):
        assert cli.main(["generate", "--model", "logistic", "--n", "200",
                         "--p", "40", "--s", "5", "--out", ds]) == 0
    out = _penexp_process("expand", ds, "--penalty", "l1:0.05",
                          "--out", str(tmp_path / "exp"))
    assert out.returncode == 0, out.stderr
    info = json.loads((tmp_path / "exp" / "expansion.json").read_text())
    assert info["converged"] is True


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
