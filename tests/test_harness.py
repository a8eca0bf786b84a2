import json
import math

import numpy as np
import pytest

from penexp import cli, harness
from penexp.cones import minimax_rate
from penexp.harness import (ExperimentConfig, GridPoint, RECORD_FIELDS,
                            TIMING_FIELDS, load_records_csv, parse_config,
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
threads = 1
grid = n=60 p=30 s=2
grid = n=120 p=30 s=2
out = ignored
"""


def test_parse_config_round_trip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.experiment_kind == "rates"
    assert cfg.penalty_kind == "l1_penalized"
    assert cfg.xi == 0.4
    assert cfg.amplitude == 0.8
    assert cfg.replications == 4
    assert cfg.master_seed == 42
    assert cfg.grid == (GridPoint(60, 30, 2), GridPoint(120, 30, 2))
    assert cfg.output_dir == "ignored"


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


def test_validate_config_rejections():
    base = dict(experiment_kind="rates", grid=(GridPoint(50, 20, 3),))
    with pytest.raises(ValueError):
        harness.validate_config(ExperimentConfig(**dict(base, xi=0.0)))
    with pytest.raises(ValueError):
        harness.validate_config(ExperimentConfig(**dict(base, replications=0)))
    with pytest.raises(ValueError):
        harness.validate_config(
            ExperimentConfig(**dict(base, experiment_kind="volume")))
    # group runs need matching M*d = p
    with pytest.raises(ValueError):
        harness.validate_config(ExperimentConfig(
            experiment_kind="rates", penalty_kind="group_lasso",
            grid=(GridPoint(50, 20, 3, M=4, d=4),)))
    with pytest.raises(ValueError):
        parse_config("experiment = risk_identity\ncovariance = ar1:0.5\n"
                     "grid = n=50 p=20 s=2\n")
    with pytest.raises(ValueError):
        parse_config("experiment = coverage\nloss = logistic\n"
                     "grid = n=50 p=20 s=2\n")


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


def run_tiny(tmp_path, name, **overrides):
    kw = dict(experiment_kind="rates",
              grid=(GridPoint(60, 30, 2), GridPoint(120, 30, 2),
                    GridPoint(240, 30, 2)),
              replications=4, master_seed=11, threads=1,
              output_dir=str(tmp_path / name))
    kw.update(overrides)
    cfg = ExperimentConfig(**kw)
    return cfg, run_experiment(cfg)


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
    assert recs[0]["r_n"] == minimax_rate("l1_penalized", 60, p=30, s=2)
    assert isinstance(recs[0]["est_converged"], bool)
    assert recs[0]["est_time"] if "est_time" in RECORD_FIELDS else True
    # summary.json round trips
    loaded = json.loads((out / "summary.json").read_text())
    assert loaded["rate_fit"]["slope"] == summary["rate_fit"]["slope"]
    # timings live in the sidecar, never in records.csv
    assert "est_time" not in RECORD_FIELDS
    tim = (out / "timings.csv").read_text()
    assert tim.splitlines()[0] == ",".join(TIMING_FIELDS)
    assert len(tim.splitlines()) == 1 + summary["records"]


def test_run_experiment_thread_invariance(tmp_path):
    _, s1 = run_tiny(tmp_path, "one", threads=1)
    _, s2 = run_tiny(tmp_path, "two", threads=3)
    b1 = (tmp_path / "one" / "records.csv").read_bytes()
    b2 = (tmp_path / "two" / "records.csv").read_bytes()
    assert b1 == b2
    assert s1["rate_fit"]["slope"] == s2["rate_fit"]["slope"]


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
        cfg = ExperimentConfig(experiment_kind="rates", amplitude=amplitude,
                               grid=tuple(GridPoint(n, 2 * n, 5)
                                          for n in sizes),
                               replications=reps, master_seed=5, threads=1,
                               output_dir=str(tmp_path / name))
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
    cfg = ExperimentConfig(experiment_kind="fit",
                           grid=(GridPoint(80, 20, 2),),
                           replications=3, master_seed=5, threads=1,
                           output_dir=str(tmp_path / "fit"))
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
    beta = np.fromfile(tmp_path / "sol" / "solution.bin")
    assert beta.shape == (30,)

    exp = str(tmp_path / "exp")
    rc = cli.main(["expand", ds, "--penalty", "l1:0.3", "--out", exp])
    assert rc == 0
    info = json.loads((tmp_path / "exp" / "expansion.json").read_text())
    assert info["converged"] is True
    eta = np.fromfile(tmp_path / "exp" / "expansion.bin")
    assert eta.shape == (30,)


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
    rc = cli.main(["rate-fit", str(tmp_path / "res" / "records.csv")])
    assert rc == 0
    fitted = json.loads(capsys.readouterr().out)
    assert fitted["slope"] == printed["rate_fit"]["slope"]


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
    rc = cli.main(["coverage", "--n", "100", "--p", "30", "--s", "2",
                   "--replications", "8", "--seed", "21", "--threads", "1",
                   "--out", str(tmp_path / "cov")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["coverage"] <= 1.0
    recs = load_records_csv(tmp_path / "cov" / "records.csv")
    assert len(recs) == 8
    assert all(r["covered"] in (True, False) for r in recs)


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
