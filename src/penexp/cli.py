"""Command-line entry points.

Subcommands: generate, fit, expand, risk-identity, experiment, rate-fit.
Monte Carlo experiments, coverage runs among them, are config files run by
`experiment`, whose --threads and --out override the config's threads and
out. Exit codes: 0 on success, 2 on invalid configuration or arguments,
3 when solves fail to converge (or more than MAX_FAIL_FRAC of an
experiment's tasks are uncertified).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import diagnostics, harness, model, solver
from .losses import curvature_matrix, get_loss
from .penalties import GroupPenalty, L1BallConstraint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
MAX_FAIL_FRAC = 0.02  # of an experiment's tasks, uncertified, for exit 0


def parse_penalty_spec(spec, p):
    """Penalty from a compact string: l1:<level>, l1ball:<radius>,
    group:<level>:<block size>."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "l1" and len(parts) == 2:
            return GroupPenalty(float(parts[1]),
                                model.GroupStructure.contiguous(p, 1))
        if kind == "l1ball" and len(parts) == 2:
            return L1BallConstraint(float(parts[1]))
        if kind == "group" and len(parts) == 3:
            level, d = float(parts[1]), int(parts[2])
            if d < 1 or p % d != 0:
                raise ValueError(
                    "group size %d does not divide p = %d" % (d, p))
            return GroupPenalty(level,
                                model.GroupStructure.contiguous(p // d, d))
    except ValueError as exc:
        raise ValueError("bad penalty spec %r: %s" % (spec, exc)) from None
    raise ValueError(
        "bad penalty spec %r (expected l1:<level>, l1ball:<radius> "
        "or group:<level>:<block size>)" % (spec,))


def _loss_for(dataset):
    return get_loss("squared" if dataset.model_kind == "linear"
                    else "logistic")


def _solver_config(args):
    return solver.SolverConfig(kkt_tol=args.tol, max_iters=args.max_iters)


def _write_solve(args, loss, result, name):
    """Write result's vector to <out>/<name>.bin and its metadata, which
    is also printed, to <out>/<name>.json; the exit code follows
    convergence."""
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, name + ".bin"), "wb") as fh:
        fh.write(np.ascontiguousarray(result.solution, dtype="<f8").tobytes())
    meta = {
        "penalty": args.penalty, "loss": loss.kind,
        "objective": result.objective, "kkt_residual": result.kkt_residual,
        "iterations": result.iterations, "converged": result.converged,
        "passes": result.passes,
        "nnz": int(np.count_nonzero(result.solution)),
        "vector": name + ".bin",
    }
    _emit(meta, os.path.join(args.out, name + ".json"))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _emit(obj, path=None):
    """Print obj as strict JSON, refusing NaN and infinities, and, given a
    path, write it there too."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_generate(args):
    if args.seed < 0:
        raise ValueError("--seed must be >= 0, got %d" % args.seed)
    cov = model.CovarianceModel.from_spec(args.covariance, args.p)
    beta_star = model.flat_signal(args.p, args.s, args.amplitude)
    ds = model.simulate(cov, beta_star, args.n, args.model, args.design,
                        args.noise_sd, args.seed)
    model.save_dataset(ds, args.out)
    _emit({"out": args.out, "n": ds.n, "p": ds.p, "model": args.model,
           "seed": args.seed})
    return EXIT_OK


def _cmd_fit(args):
    ds = model.load_dataset(args.dataset)
    loss = _loss_for(ds)
    penalty = parse_penalty_spec(args.penalty, ds.p)
    result = solver.fit_penalized(ds, loss, penalty, _solver_config(args))
    return _write_solve(args, loss, result, "solution")


def _require_truth(ds, what):
    if ds.covariance is None:
        raise ValueError(
            "%s needs a dataset saved with its covariance "
            "(use the generate subcommand)" % what)


def _cmd_expand(args):
    ds = model.load_dataset(args.dataset)
    _require_truth(ds, "expand")
    loss = _loss_for(ds)
    penalty = parse_penalty_spec(args.penalty, ds.p)
    curv = curvature_matrix(loss, ds.covariance, ds.beta_star,
                            ds.design_kind)
    result = solver.fit_expansion(ds, loss, curv, ds.beta_star, penalty,
                                  _solver_config(args))
    return _write_solve(args, loss, result, "expansion")


def _cmd_risk_identity(args):
    ds = model.load_dataset(args.dataset)
    _require_truth(ds, "risk-identity")
    diagnostics.require_risk_identity_data(ds)
    if args.n_mc < 2:
        raise ValueError("--n-mc needs at least 2 draws, got %d" % args.n_mc)
    if not 0 <= args.t < np.inf:
        raise ValueError("--t must be >= 0 and finite, got %r" % args.t)
    if args.seed < 0:
        raise ValueError("--seed must be >= 0, got %d" % args.seed)
    loss = _loss_for(ds)
    penalty = parse_penalty_spec(args.penalty, ds.p)
    cfg = _solver_config(args)
    est = solver.fit_penalized(ds, loss, penalty, cfg)
    curv = curvature_matrix(loss, ds.covariance, ds.beta_star,
                            ds.design_kind)
    exp = solver.fit_expansion(ds, loss, curv, ds.beta_star, penalty, cfg)
    report = diagnostics.risk_identity_check(ds, est.solution, exp.solution,
                                             penalty, args.n_mc, args.seed,
                                             t=args.t)
    payload = report.as_dict()
    payload["est_converged"] = est.converged
    payload["exp_converged"] = exp.converged
    path = None
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "risk_identity.json")
    _emit(payload, path)
    if not (est.converged and exp.converged):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_experiment(args):
    with open(args.config) as fh:
        cfg = harness.parse_config(fh.read())
    overrides = {}
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out"] = args.out
    cfg = replace(cfg, **overrides)
    summary = harness.run_experiment(cfg)
    _emit({"out": cfg.out, "records": summary["records"],
           "failed": summary["failed"],
           "failed_fraction": summary["failed_fraction"],
           "rate_fit": summary["rate_fit"]})
    if summary["failed_fraction"] > MAX_FAIL_FRAC:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_rate_fit(args):
    records = harness.load_records_csv(args.records)
    slope, intercept, stderr = harness.rate_fit(records, metric=args.metric)
    payload = {"metric": args.metric, "slope": slope,
               "intercept": intercept, "stderr": stderr}
    _emit(payload, args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="penexp",
        description="Penalized regression, first-order expansions, and "
                    "simulation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp):
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="KKT residual tolerance (default 1e-8)")
        sp.add_argument("--max-iters", type=int, default=20000)

    sp = sub.add_parser("generate", help="simulate a dataset and save it")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True,
                    help="number of nonzero true coefficients")
    sp.add_argument("--model", choices=("linear", "logistic"),
                    default="linear")
    sp.add_argument("--design", choices=("gaussian", "rademacher"),
                    default="gaussian")
    sp.add_argument("--covariance", default="identity",
                    help="identity or ar1:<rho>")
    sp.add_argument("--noise-sd", type=float, default=1.0)
    sp.add_argument("--amplitude", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("fit", help="solve the penalized problem")
    sp.add_argument("dataset", help="directory written by generate")
    sp.add_argument("--penalty", required=True,
                    help="l1:<level>, l1ball:<radius>, group:<level>:<size>")
    add_solver_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("expand",
                        help="solve the quadratic surrogate at the truth")
    sp.add_argument("dataset")
    sp.add_argument("--penalty", required=True)
    add_solver_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("risk-identity",
                        help="check the estimation-error risk identity")
    sp.add_argument("dataset")
    sp.add_argument("--penalty", required=True)
    sp.add_argument("--n-mc", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--t", type=float, default=2.0,
                    help="deviation parameter in the finite-sample bound")
    add_solver_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_risk_identity)

    sp = sub.add_parser("experiment", help="run a config-file experiment")
    sp.add_argument("config")
    sp.add_argument("--threads", type=int, default=None,
                    help="override threads from the config")
    sp.add_argument("--out", default=None,
                    help="override out from the config")
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("rate-fit",
                        help="log-log slope fit over a records.csv")
    sp.add_argument("records")
    sp.add_argument("--metric", default="gap")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_rate_fit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
