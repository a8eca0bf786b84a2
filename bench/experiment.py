"""Run one penexp experiment in this process, the way `penexp experiment`
does, and print one JSON line of measurements.

    python3 bench/experiment.py CONFIG OUT_DIR --mode plain|traced|tasks

plain   no tracing; records when model.generate_design is first called, for
        the set-up time, and the process's peak resident memory.
traced  run with threads = 1 and every public penexp function wrapped in a
        span; checks each solve, expansion and curvature matrix against
        checks.py as it happens, and writes the spans to OUT_DIR.spans.json.
tasks   default threads; only harness._run_task is wrapped, to sum the busy
        time of the tasks.

Times are time.monotonic() readings, which on Linux share one clock across
processes, so the parent can measure from the moment it started this one.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import penexp  # noqa: E402
from penexp import cli, harness, model  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Probe:
    """After-call hooks of the traced run: counters and the solution checks."""

    def __init__(self, kkt_tol):
        self.kkt_tol = kkt_tol
        self.counts = {"design_bytes": 0, "penalized_iterations": 0,
                       "penalized_x_bytes": 0, "expansion_iterations": 0,
                       "mc_draw_bytes": 0, "solves_checked": 0,
                       "expansions_checked": 0, "curvatures_checked": 0,
                       "closed_form_checked": 0}
        self.worst_kkt = 0.0
        self.worst_closed_form = 0.0
        self.worst_curvature = 0.0
        self.problems = []
        self._own_K = {}
        self._fns = {}

    def hooks(self):
        return {"model.generate_design": self.on_design,
                "losses.curvature_matrix": self.on_curvature,
                "solver.fit_penalized": self.on_penalized,
                "solver.fit_expansion": self.on_expansion,
                "diagnostics.prox_risk_mc": self.on_mc}

    def _args(self, name, args, kwargs):
        module, fn = name.split(".")
        original = self._fns.get(name)
        if original is None:
            original = self._fns[name] = inspect.unwrap(
                getattr(getattr(penexp, module), fn))
        return _bound(original, args, kwargs)

    def _kkt(self, what, res):
        self.worst_kkt = max(self.worst_kkt, res)
        if not res <= self.kkt_tol + checks.KKT_ROUNDING:
            self.problems.append("%s: recomputed KKT residual %.3e above "
                                 "%.1e" % (what, res, self.kkt_tol))

    def on_design(self, args, kwargs, X):
        self.counts["design_bytes"] += X.nbytes

    def on_mc(self, args, kwargs, result):
        a = self._args("diagnostics.prox_risk_mc", args, kwargs)
        self.counts["mc_draw_bytes"] += 8 * int(a["n_draws"]) * \
            np.asarray(a["beta_star"]).size

    def on_curvature(self, args, kwargs, curv):
        a = self._args("losses.curvature_matrix", args, kwargs)
        cov, loss = a["cov"], a["loss"]
        if cov.kind == "identity" and loss.kind == "squared":
            # K = I, checked without allocating another p x p matrix.
            own = None
            exact = np.count_nonzero(curv.matrix) == cov.p and \
                bool(np.all(np.diagonal(curv.matrix) == 1.0))
            err = 0.0 if exact else float("inf")
        else:
            if cov.kind == "identity":
                sigma = np.eye(cov.p)
            elif cov.kind == "ar1":
                sigma = checks.ar1_matrix(cov.p, cov.rho)
            else:
                self.problems.append("no independent %s covariance"
                                     % cov.kind)
                return
            own = sigma if loss.kind == "squared" else \
                checks.logistic_curvature(
                    sigma, np.asarray(a["beta_star"], dtype=float))
            err = float(np.abs(curv.matrix - own).max() / np.abs(own).max())
        self.worst_curvature = max(self.worst_curvature, err)
        if not err <= 1e-10:
            self.problems.append("curvature matrix differs from the "
                                 "independent one by %.3e (relative)" % err)
        self.counts["curvatures_checked"] += 1
        self._own_K[id(curv)] = own

    def on_penalized(self, args, kwargs, res):
        a = self._args("solver.fit_penalized", args, kwargs)
        ds, loss = a["dataset"], a["loss"]
        self.counts["penalized_iterations"] += res.iterations
        self.counts["penalized_x_bytes"] += 2 * res.iterations * ds.X.nbytes
        if res.converged:
            grad = checks.loss_gradient(loss.kind, ds.X, ds.y, res.solution)
            self._kkt("penalized fit", checks.kkt_residual(
                a["penalty"], res.solution, grad))
            self.counts["solves_checked"] += 1

    def on_expansion(self, args, kwargs, res):
        a = self._args("solver.fit_expansion", args, kwargs)
        ds, loss, pen = a["dataset"], a["loss"], a["penalty"]
        beta_star = np.asarray(a["beta_star"], dtype=float)
        self.counts["expansion_iterations"] += res.iterations
        if not res.converged:
            return
        if id(a["curvature"]) not in self._own_K:
            self.problems.append("expansion against an unchecked curvature")
            return
        K = self._own_K[id(a["curvature"])]
        d = res.solution - beta_star
        grad = (d if K is None else K @ d) + \
            checks.loss_gradient(loss.kind, ds.X, ds.y, beta_star)
        self._kkt("expansion", checks.kkt_residual(pen, res.solution, grad))
        self.counts["expansions_checked"] += 1
        if K is None and loss.kind == "squared" and \
                type(pen).__name__ != "L1BallConstraint":
            own = checks.identity_expansion(pen, beta_star, ds.X, ds.noise)
            err = float(np.abs(res.solution - own).max())
            self.worst_closed_form = max(self.worst_closed_form, err)
            if not err <= 1e-10:
                self.problems.append("expansion differs from the prox of "
                                     "beta* + X'eps/n by %.3e" % err)
            self.counts["closed_form_checked"] += 1


def _output_size(out_dir):
    files = size = 0
    for root, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


def run_plain(argv):
    first = []
    original = model.generate_design

    def generate_design(*args, **kwargs):
        if not first:
            first.append(time.monotonic())
        return original(*args, **kwargs)

    model.generate_design = generate_design
    try:
        rc = cli.main(argv)
    finally:
        model.generate_design = original
    return {"rc": rc, "t_first_design": first[0] if first else None}


def run_traced(argv, kkt_tol, out_dir):
    probe = Probe(kkt_tol)
    tr = tracing.Tracer()
    tr.patch_package(penexp, hooks=probe.hooks())
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv + ["--threads", "1"])
    finally:
        tr.restore()
    wall = time.perf_counter() - t0
    inclusive, calls, layer_self = tracing.span_totals(tr.spans)
    with open(out_dir + ".spans.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "thread", "parent"],
                   "spans": tr.spans}, fh)
    files, size = _output_size(out_dir)
    return {"rc": rc, "wall": wall, "inclusive": inclusive, "calls": calls,
            "layer_self": layer_self, "counts": probe.counts,
            "worst_kkt": probe.worst_kkt,
            "worst_closed_form": probe.worst_closed_form,
            "worst_curvature": probe.worst_curvature,
            "problems": probe.problems, "spans": len(tr.spans),
            "span_cost": tracing.per_span_cost(),
            "output_files": files, "output_bytes": size}


def run_tasks(argv):
    tr = tracing.Tracer()
    tr.patch_private(harness, "_run_task", "harness._run_task")
    tr.patch_package(penexp, only={"harness.run_experiment"})
    try:
        rc = cli.main(argv)
    finally:
        tr.restore()
    inclusive, _, _ = tracing.span_totals(tr.spans)
    workers = os.cpu_count() or 1
    return {"rc": rc, "busy": inclusive.get("harness._run_task", 0.0),
            "wall": inclusive.get("harness.run_experiment", 0.0),
            "workers": workers}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("out_dir")
    ap.add_argument("--mode", choices=("plain", "traced", "tasks"),
                    default="plain")
    args = ap.parse_args()
    argv = ["experiment", args.config, "--out", args.out_dir]
    if args.mode == "plain":
        result = run_plain(argv)
    elif args.mode == "traced":
        with open(args.config) as fh:
            cfg = harness.parse_config(fh.read())
        result = run_traced(argv, cfg.kkt_tol, args.out_dir)
    else:
        result = run_tasks(argv)
    result["t_done"] = time.monotonic()
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
