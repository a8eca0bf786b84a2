"""penexp benchmark: experiment workloads timed end to end, and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the workload's experiment again and again, each time in a
fresh process through `penexp experiment` (harness.run_experiment), until
the next run would end after S seconds (at least MIN_RUNS runs). It reports
the medians of wall_s, setup_s and peak_rss_mb.

--trace 1 runs the experiment once traced with one worker, which gives the
per-layer metrics and checks every solve independently, then once with the
default threads, which gives harness.busy_over_wall.

Every run's records.csv and summary.json are checked, and must be byte-
identical to those of the first run of the same invocation. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402

MIN_RUNS = 3
# Every experiment process is killed once this many seconds have passed
# since the benchmark started, so that a run ends within three minutes.
DEADLINE_S = 170.0
T_START = time.monotonic()
# Environment variables that set BLAS and OpenMP thread counts. They are
# removed from the experiment's environment: the benchmark measures the
# program's defaults, so a change to those shows up in wall_s.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
RATE_GRID = ["n=%d p=%d s=5" % (n, 2 * n) for n in (400, 800, 1600, 3200)]

# Config settings per workload; master_seed is the benchmark's --seed.
WORKLOADS = {
    "rates_lasso": {
        "settings": {"experiment": "rates", "loss": "squared",
                     "penalty": "l1_penalized", "covariance": "identity"},
        "replications": 2,
        "grid": RATE_GRID,
    },
    "rates_ball_logistic_ar1": {
        "settings": {"experiment": "rates", "loss": "logistic",
                     "penalty": "l1_constrained", "covariance": "ar1:0.5",
                     "amplitude": "0.25"},
        "replications": 1,
        "grid": ["n=%d p=%d s=5" % (n, 2 * n) for n in (100, 200, 400)],
    },
    "risk_group": {
        "settings": {"experiment": "risk_identity", "loss": "squared",
                     "penalty": "group_lasso", "covariance": "identity",
                     "mc_inner": "4000"},
        "replications": 10,
        "grid": ["n=2000 p=1000 s=5 M=250 d=4"],
    },
}
# Share of replications in which the risk_identity deviation bound must hold
# (at least 8 of the 10).
MIN_RISK_SHARE = {"risk_group": 0.8}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "model.generate_design.s": "s", "model.generate_design.calls": "count",
    "model.generate_design.mb": "MB", "model.covariance.s": "s",
    "losses.curvature_matrix.s": "s",
    "solver.fit_penalized.s": "s", "solver.fit_penalized.iterations": "count",
    "solver.fit_penalized.ms_per_iter": "ms",
    "solver.fit_penalized.x_gb_per_s": "GB/s",
    "solver.fit_expansion.s": "s", "solver.fit_expansion.iterations": "count",
    "solver.power_max_eig.s": "s", "solver.power_max_eig.calls": "count",
    "penalties.prox.s": "s", "penalties.prox.calls": "count",
    "penalties.subdifferential_residual.s": "s",
    "diagnostics.prox_risk_mc.s": "s", "diagnostics.prox_risk_mc.draws_mb": "MB",
    "harness.self_s": "s", "harness.busy_over_wall": "ratio",
    "harness.output_bytes": "bytes", "harness.files": "count",
    "model.self_s": "s", "losses.self_s": "s", "penalties.self_s": "s",
    "solver.self_s": "s", "cones.self_s": "s", "diagnostics.self_s": "s",
    "cli.self_s": "s", "trace.wall_s": "s", "trace.check_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}
LAYERS = ("cli", "harness", "model", "losses", "penalties", "solver", "cones",
          "diagnostics")


def config_text(workload, seed):
    w = WORKLOADS[workload]
    lines = ["%s = %s" % kv for kv in w["settings"].items()]
    lines += ["design = gaussian", "replications = %d" % w["replications"],
              "master_seed = %d" % seed]
    lines += ["grid = " + g for g in w["grid"]]
    return "\n".join(lines) + "\n"


def write_config(workload, seed, out_dir):
    path = out_dir + ".cfg"
    with open(path, "w") as fh:
        fh.write(config_text(workload, seed))
    return path


def run_child(config, out_dir, mode):
    """Run bench/experiment.py in a fresh process; return (result, seconds
    from spawn) with result None if it failed."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    shutil.rmtree(out_dir, ignore_errors=True)
    t_spawn = time.monotonic()
    timeout = DEADLINE_S - (t_spawn - T_START)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "experiment.py"), config,
             out_dir, "--mode", mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print("experiment killed after %.0f s" % timeout, file=sys.stderr)
        return None, t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None, t_spawn
    result = json.loads(lines[-1])
    if result["rc"] not in (0, 3):  # 3: too many uncertified tasks
        sys.stderr.write(proc.stderr[-4000:])
        return None, t_spawn
    return result, t_spawn


class Tally:
    """Tasks attempted and failed, problems found, and the reference
    outputs every later run of this invocation must match byte for byte."""

    def __init__(self, workload):
        self.workload = workload
        w = WORKLOADS[workload]
        self.tasks = w["replications"] * len(w["grid"])
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def add(self, result, out_dir, label):
        self.attempted += self.tasks
        if result is None:
            self.failed += self.tasks
            return False
        tasks, failed = checks.task_failures(
            os.path.join(out_dir, "records.csv"))
        if tasks != self.tasks:
            self.problems.append("%s: %d records, expected %d"
                                 % (label, tasks, self.tasks))
        self.failed += failed
        self.problems += ["%s: %s" % (label, p) for p in checks.check_summary(
            os.path.join(out_dir, "summary.json"),
            MIN_RISK_SHARE.get(self.workload))]
        if self.reference is None:
            self.reference = out_dir
        else:
            self.problems += ["%s: %s differs from %s" % (label, name,
                                                         self.reference)
                              for name in checks.same_bytes(self.reference,
                                                            out_dir)]
        return True


def measure_end_to_end(workload, seed, seconds, base):
    tally = Tally(workload)
    walls, setups, rss = [], [], []
    t_start = time.monotonic()
    k = 0
    while True:
        out_dir = "%s/run%d" % (base, k)
        config = write_config(workload, seed, out_dir)
        result, t_spawn = run_child(config, out_dir, "plain")
        if tally.add(result, out_dir, "run %d" % k):
            walls.append(result["t_done"] - t_spawn)
            setups.append(result["t_first_design"] - t_spawn)
            rss.append(result["max_rss_kb"] / 1024.0)
        k += 1
        elapsed = time.monotonic() - t_start
        if k >= MIN_RUNS and elapsed * (k + 1) / k > seconds or \
                time.monotonic() - T_START > DEADLINE_S:
            break
    metrics = {}
    if walls:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(rss)}
    print("%s: %d runs, wall %s" % (workload, k, [round(w, 3) for w in walls]),
          file=sys.stderr)
    return tally, metrics


def per_layer_metrics(tr, tasks):
    inc, calls, own = tr["inclusive"], tr["calls"], tr["layer_self"]
    counts = tr["counts"]

    def s(name):
        return inc.get(name, 0.0)

    fit_s = s("solver.fit_penalized")
    iters = counts["penalized_iterations"]
    cov_s = sum(s("model.CovarianceModel." + m)
                for m in ("identity", "ar1", "explicit"))
    m = {
        "model.generate_design.s": s("model.generate_design"),
        "model.generate_design.calls": calls.get("model.generate_design", 0),
        "model.generate_design.mb": counts["design_bytes"] / 1e6,
        "model.covariance.s": cov_s,
        "losses.curvature_matrix.s": s("losses.curvature_matrix"),
        "solver.fit_penalized.s": fit_s,
        "solver.fit_penalized.iterations": iters,
        "solver.fit_penalized.ms_per_iter": 1e3 * fit_s / max(iters, 1),
        "solver.fit_penalized.x_gb_per_s":
            counts["penalized_x_bytes"] / 1e9 / fit_s if fit_s else 0.0,
        "solver.fit_expansion.s": s("solver.fit_expansion"),
        "solver.fit_expansion.iterations": counts["expansion_iterations"],
        "solver.power_max_eig.s": s("solver.power_max_eig"),
        "solver.power_max_eig.calls": calls.get("solver.power_max_eig", 0),
        "penalties.prox.s": s("penalties.prox"),
        "penalties.prox.calls": calls.get("penalties.prox", 0),
        "penalties.subdifferential_residual.s":
            s("penalties.subdifferential_residual"),
        "diagnostics.prox_risk_mc.s": s("diagnostics.prox_risk_mc"),
        "diagnostics.prox_risk_mc.draws_mb": counts["mc_draw_bytes"] / 1e6,
        "harness.busy_over_wall":
            tasks["busy"] / (tasks["wall"] * tasks["workers"])
            if tasks and tasks["wall"] else 0.0,
        "harness.output_bytes": tr["output_bytes"],
        "harness.files": tr["output_files"],
        "trace.wall_s": tr["wall"],
        "trace.check_s": own.get("bench", 0.0),
        "trace.spans": tr["spans"],
        "trace.overhead_s": tr["spans"] * tr["span_cost"],
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = own.get(layer, 0.0)
    return m


def measure_traced(workload, seed, base):
    tally = Tally(workload)
    traced_dir = base + "/traced"
    config = write_config(workload, seed, traced_dir)
    tr, _ = run_child(config, traced_dir, "traced")
    if tally.add(tr, traced_dir, "traced run") and tr["problems"]:
        tally.problems += ["traced run: " + p for p in tr["problems"]]
    tasks_dir = base + "/threads"
    config = write_config(workload, seed, tasks_dir)
    tasks, _ = run_child(config, tasks_dir, "tasks")
    tally.add(tasks, tasks_dir, "default-threads run")
    if tr is None:
        return tally, {}
    print("%s traced: KKT residual max %.3e, closed form max diff %.3e, "
          "curvature max rel diff %.3e, checked %s"
          % (workload, tr["worst_kkt"], tr["worst_closed_form"],
             tr["worst_curvature"], tr["counts"]), file=sys.stderr)
    return tally, per_layer_metrics(tr, tasks)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running experiment before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "penexp", "harness.py")):
        print("penexp sources not found under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    base = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    if args.trace:
        tally, values = measure_traced(args.workload, args.seed, base)
        units = PER_LAYER_UNITS
    else:
        tally, values = measure_end_to_end(args.workload, args.seed,
                                           args.seconds, base)
        units = END_TO_END_UNITS
    for p in tally.problems:
        print("check failed: " + p, file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if k in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
