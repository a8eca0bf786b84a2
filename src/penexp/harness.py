"""Experiment configuration, deterministic replication engine, and outputs.

Configs are flat key=value text with # comments; one grid entry per `grid`
line. Each (grid point, replication) task derives its own integer seed from
(master_seed, point index, rep index), so results do not depend on worker
count or completion order. Records are sorted by (point, rep) before writing.

Outputs in the configured directory: records.csv (RFC 4180, fixed header,
floats at 17 significant digits), timings.csv (wall times, kept out of
records.csv so reruns are byte-identical) and summary.json.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cones, diagnostics, model, solver
from .losses import curvature_matrix, get_loss, norm_ratio_bound
from .penalties import GroupPenalty, L1BallConstraint, L1Penalty

EXPERIMENT_KINDS = ("rates", "risk_identity", "coverage", "cone_check",
                    "sparsity_check", "fit")
PENALTY_KINDS = ("l1_penalized", "l1_constrained", "group_lasso")

RECORD_FIELDS = [
    "point", "n", "p", "s", "M", "d", "rep", "seed", "r_n", "penalty_level",
    "err_est", "err_exp", "gap", "ratio",
    "est_iterations", "exp_iterations", "est_kkt", "exp_kkt",
    "est_converged", "exp_converged",
    "cone_est", "cone_exp", "cone_both",
    "risk_lhs", "risk_rhs", "risk_mc_se", "risk_ratio", "risk_bound",
    "risk_ok",
    "theta_hat", "target", "covered", "t_stat",
    "nnz_coords", "nnz_groups", "sparsity_bound", "sparsity_ok",
]
TIMING_FIELDS = ["point", "rep", "est_time", "exp_time"]


@dataclass(frozen=True)
class GridPoint:
    n: int
    p: int
    s: int
    M: int | None = None
    d: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_kind: str
    grid: tuple = ()
    loss_kind: str = "squared"
    penalty_kind: str = "l1_penalized"
    design_kind: str = "gaussian"
    covariance: str = "identity"
    xi: float = 0.5
    noise_sd: float = 1.0
    amplitude: float = 1.0
    replications: int = 100
    master_seed: int = 1
    mc_inner: int = 2000
    t_bound: float = 2.0
    threads: int = 0
    kkt_tol: float = 1e-8
    max_iters: int = 20000
    max_fail_frac: float = 0.02
    output_dir: str = "out"


_CONFIG_KEYS = {
    "experiment": ("experiment_kind", str),
    "loss": ("loss_kind", str),
    "penalty": ("penalty_kind", str),
    "design": ("design_kind", str),
    "covariance": ("covariance", str),
    "xi": ("xi", float),
    "noise_sd": ("noise_sd", float),
    "amplitude": ("amplitude", float),
    "replications": ("replications", int),
    "master_seed": ("master_seed", int),
    "mc_inner": ("mc_inner", int),
    "t_bound": ("t_bound", float),
    "threads": ("threads", int),
    "kkt_tol": ("kkt_tol", float),
    "max_iters": ("max_iters", int),
    "max_fail_frac": ("max_fail_frac", float),
    "out": ("output_dir", str),
}


def parse_config(text):
    """Parse the flat key=value config format into an ExperimentConfig."""
    values = {}
    grid = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "grid":
            grid.append(_parse_grid_entry(val, lineno))
            continue
        if key not in _CONFIG_KEYS:
            raise ValueError("line %d: unknown key %r" % (lineno, key))
        field_name, conv = _CONFIG_KEYS[key]
        try:
            values[field_name] = conv(val)
        except ValueError:
            raise ValueError("line %d: bad value %r for %s"
                             % (lineno, val, key)) from None
    if "experiment_kind" not in values:
        raise ValueError("config must set `experiment`")
    cfg = ExperimentConfig(grid=tuple(grid), **values)
    validate_config(cfg)
    return cfg


def _parse_grid_entry(val, lineno):
    fields = {}
    for tok in val.split():
        if "=" not in tok:
            raise ValueError("line %d: grid entries look like n=400 p=800 s=5"
                             % lineno)
        k, _, v = tok.partition("=")
        if k not in ("n", "p", "s", "M", "d"):
            raise ValueError("line %d: unknown grid field %r" % (lineno, k))
        fields[k] = int(v)
    for req in ("n", "p", "s"):
        if req not in fields:
            raise ValueError("line %d: grid entry missing %r" % (lineno, req))
    return GridPoint(**fields)


def validate_config(cfg):
    if cfg.experiment_kind not in EXPERIMENT_KINDS:
        raise ValueError("unknown experiment kind %r (one of %s)"
                         % (cfg.experiment_kind, ", ".join(EXPERIMENT_KINDS)))
    if cfg.penalty_kind not in PENALTY_KINDS:
        raise ValueError("unknown penalty kind %r" % (cfg.penalty_kind,))
    get_loss(cfg.loss_kind)
    if cfg.design_kind not in ("gaussian", "rademacher"):
        raise ValueError("unknown design kind %r" % (cfg.design_kind,))
    _parse_covariance(cfg.covariance, 2)  # validates the syntax
    if not cfg.grid:
        raise ValueError("at least one grid entry is required")
    if cfg.replications < 1:
        raise ValueError("replications must be >= 1")
    if cfg.xi <= 0:
        raise ValueError("xi must be > 0")
    if cfg.mc_inner < 2:
        raise ValueError("mc_inner must be >= 2")
    if not 0.0 <= cfg.max_fail_frac <= 1.0:
        raise ValueError("max_fail_frac must be in [0, 1]")
    for pt in cfg.grid:
        if not pt.p > pt.s >= 1:
            raise ValueError("grid point needs p > s >= 1, got %r" % (pt,))
        if cfg.penalty_kind == "group_lasso":
            if pt.M is None or pt.d is None:
                raise ValueError("group runs need M and d in each grid entry")
            if pt.M * pt.d != pt.p:
                raise ValueError("grid point needs p = M*d, got %r" % (pt,))
            if not pt.M > pt.s:
                raise ValueError("grid point needs M > s, got %r" % (pt,))
    if cfg.experiment_kind == "risk_identity":
        if (cfg.loss_kind, cfg.covariance, cfg.design_kind) != \
                ("squared", "identity", "gaussian"):
            raise ValueError(
                "risk_identity runs require squared loss, identity "
                "covariance and gaussian design")
    if cfg.experiment_kind == "coverage" and cfg.loss_kind != "squared":
        raise ValueError("coverage runs require squared loss (linear data)")


def _parse_covariance(spec, p):
    if spec == "identity":
        return model.CovarianceModel.identity(p)
    if spec.startswith("ar1:"):
        return model.CovarianceModel.ar1(p, float(spec.split(":", 1)[1]))
    raise ValueError("unknown covariance %r (identity or ar1:<rho>)" % (spec,))


def task_seed(master_seed, point_idx, rep_idx):
    """Stable 64-bit seed derived from (master, point, rep)."""
    seq = np.random.SeedSequence((int(master_seed), int(point_idx),
                                  int(rep_idx)))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class _PointSetup:
    point: GridPoint
    cov: object
    groups: object
    beta_star: np.ndarray
    curv: object
    cone: object
    r_n: float
    radius: float | None
    sparsity_bound: float | None


def _setup_point(cfg, pt, loss):
    cov = _parse_covariance(cfg.covariance, pt.p)
    groups = None
    if cfg.penalty_kind == "group_lasso":
        groups = model.GroupStructure.contiguous(pt.M, pt.d)
        beta_star = model.flat_signal(pt.p, pt.s * pt.d, cfg.amplitude)
        cone = cones.group_cone(pt.s, groups, xi=cfg.xi)
        r_n = cones.minimax_rate("group", pt.n, s=pt.s, M=pt.M, d=pt.d)
    else:
        beta_star = model.flat_signal(pt.p, pt.s, cfg.amplitude)
        if cfg.penalty_kind == "l1_constrained":
            # Error vectors of the constrained fit satisfy the support
            # inequality, which lands them in the sqrt(4s) cone.
            cone = cones.lasso_cone(4.0 * pt.s)
        else:
            cone = cones.lasso_cone(pt.s * (6.0 + 2.0 / cfg.xi) ** 2)
        r_n = cones.minimax_rate("lasso", pt.n, p=pt.p, s=pt.s)
    curv = curvature_matrix(loss, cov, beta_star, cfg.design_kind)
    radius = float(np.abs(beta_star).sum()) \
        if cfg.penalty_kind == "l1_constrained" else None
    sbound = None
    if cfg.experiment_kind == "sparsity_check":
        sbound = _sparsity_bound(cfg, pt, cov, curv, groups)
    return _PointSetup(pt, cov, groups, beta_star, curv, cone, r_n, radius,
                       sbound)


def _sparsity_bound(cfg, pt, cov, curv, groups):
    if groups is not None:
        c_max = max(
            float(np.linalg.eigvalsh(curv.matrix[np.ix_(g, g)]).max())
            for g in groups.groups)
        cone_spec = cones.group_cone(pt.s, groups, xi=cfg.xi)
    else:
        c_max = curv.eig_max
        cone_spec = cones.lasso_cone(pt.s * (6.0 + 2.0 / cfg.xi) ** 2)
    phi = cones.restricted_eigenvalue_bound(cone_spec, cov)
    b3 = norm_ratio_bound(cov, curv)
    c_tilde = diagnostics.sparsity_constant(c_max, cfg.xi, b3, phi)
    return c_tilde * pt.s


def _make_penalty(cfg, setup, loss, sigma):
    pt = setup.point
    if cfg.penalty_kind == "l1_penalized":
        level = cones.lasso_penalty_level(
            loss, pt.p, pt.s, pt.n, cfg.xi, noise_scale=sigma,
            design_L=model.DESIGN_SUBGAUSSIAN_L[cfg.design_kind])
        return L1Penalty(level), level
    if cfg.penalty_kind == "group_lasso":
        level = cones.group_penalty_level(
            loss, pt.M, pt.d, pt.s, pt.n, cfg.xi, noise_scale=sigma,
            design_L=model.DESIGN_SUBGAUSSIAN_L[cfg.design_kind])
        return GroupPenalty(level, setup.groups), level
    return L1BallConstraint(setup.radius), setup.radius


def _run_task(cfg, setup, loss, solver_cfg, point_idx, rep_idx):
    pt = setup.point
    seed = task_seed(cfg.master_seed, point_idx, rep_idx)
    X = model.generate_design(setup.cov, pt.n, cfg.design_kind, seed)
    if cfg.loss_kind == "squared":
        ds = model.generate_linear(X, setup.beta_star, cfg.noise_sd, seed,
                                   covariance=setup.cov,
                                   design_kind=cfg.design_kind)
        sigma = model.noise_scale(ds)
    else:
        ds = model.generate_logistic(X, setup.beta_star, seed,
                                     covariance=setup.cov,
                                     design_kind=cfg.design_kind)
        sigma = None
    penalty, level = _make_penalty(cfg, setup, loss, sigma)

    rec = {k: None for k in RECORD_FIELDS}
    rec.update(point=point_idx, n=pt.n, p=pt.p, s=pt.s, M=pt.M, d=pt.d,
               rep=rep_idx, seed=seed, r_n=setup.r_n, penalty_level=level)
    timing = {"point": point_idx, "rep": rep_idx, "est_time": None,
              "exp_time": None}

    est = solver.fit_penalized(ds, loss, penalty, solver_cfg)
    rec.update(est_iterations=est.iterations, est_kkt=est.kkt_residual,
               est_converged=est.converged)
    timing["est_time"] = est.wall_time
    err_est = setup.curv.norm(est.solution - setup.beta_star)
    rec["err_est"] = err_est

    if cfg.experiment_kind == "fit":
        return rec, timing

    exp = solver.fit_expansion(ds, loss, setup.curv, setup.beta_star, penalty,
                               solver_cfg)
    rec.update(exp_iterations=exp.iterations, exp_kkt=exp.kkt_residual,
               exp_converged=exp.converged)
    timing["exp_time"] = exp.wall_time
    err_exp = setup.curv.norm(exp.solution - setup.beta_star)
    gap = setup.curv.norm(exp.solution - est.solution)
    denom = err_est + err_exp
    rec.update(err_exp=err_exp, gap=gap,
               ratio=gap / denom if denom > 0 else None)

    if cfg.experiment_kind == "cone_check":
        in_est = cones.cone_member(setup.cone, est.solution - setup.beta_star)
        in_exp = cones.cone_member(setup.cone, exp.solution - setup.beta_star)
        rec.update(cone_est=in_est, cone_exp=in_exp,
                   cone_both=in_est and in_exp)
    elif cfg.experiment_kind == "risk_identity":
        rep_report = diagnostics.risk_identity_check(
            ds, est.solution, exp.solution, penalty, cfg.mc_inner, seed,
            t=cfg.t_bound)
        rec.update(risk_lhs=rep_report.lhs, risk_rhs=rep_report.rhs,
                   risk_mc_se=rep_report.mc_se, risk_ratio=rep_report.ratio,
                   risk_bound=rep_report.bound,
                   risk_ok=rep_report.within_bound)
    elif cfg.experiment_kind == "coverage":
        a = np.zeros(pt.p)
        a[0] = 1.0
        inf_report = diagnostics.debiased_estimate(ds, est.solution,
                                                   setup.cov, a)
        rec.update(theta_hat=inf_report.theta_hat, target=inf_report.target,
                   covered=inf_report.covered, t_stat=inf_report.t_stat)
    elif cfg.experiment_kind == "sparsity_check":
        coords, ngroups = diagnostics.sparsity_count(exp.solution,
                                                     setup.groups)
        count = ngroups if setup.groups is not None else coords
        rec.update(nnz_coords=coords, nnz_groups=ngroups,
                   sparsity_bound=setup.sparsity_bound,
                   sparsity_ok=count <= setup.sparsity_bound)
    return rec, timing


def run_experiment(cfg):
    """Run all (grid point, replication) tasks and write the output files.

    Returns the summary dict (also written to summary.json). Records from
    non-converged solves stay in records.csv flagged as such but are
    excluded from all summary statistics.
    """
    validate_config(cfg)
    loss = get_loss(cfg.loss_kind)
    solver_cfg = solver.SolverConfig(max_iters=cfg.max_iters,
                                     kkt_tol=cfg.kkt_tol)
    setups = [_setup_point(cfg, pt, loss) for pt in cfg.grid]
    tasks = [(pi, ri) for pi in range(len(cfg.grid))
             for ri in range(cfg.replications)]
    workers = cfg.threads if cfg.threads > 0 else (os.cpu_count() or 1)

    def work(task):
        pi, ri = task
        return _run_task(cfg, setups[pi], loss, solver_cfg, pi, ri)

    if workers == 1:
        results = [work(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, tasks))
    records = [r for r, _ in results]
    timings = [t for _, t in results]
    records.sort(key=lambda r: (r["point"], r["rep"]))
    timings.sort(key=lambda t: (t["point"], t["rep"]))

    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.output_dir, "records.csv"),
               RECORD_FIELDS, records)
    _write_csv(os.path.join(cfg.output_dir, "timings.csv"),
               TIMING_FIELDS, timings)
    summary = summarize(cfg, records)
    with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _format_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path, fields, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_cell(row[k]) for k in fields])


def _quantiles(vals):
    arr = np.sort(np.asarray(vals, dtype=float))
    q25, q50, q75 = np.quantile(arr, [0.25, 0.5, 0.75])
    return float(q25), float(q50), float(q75)


def _freq(flags):
    flags = [bool(f) for f in flags]
    if not flags:
        return None, None
    freq = sum(flags) / len(flags)
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / len(flags))
    return freq, se


def summarize(cfg, records):
    """Medians, quartiles and frequencies per grid point, plus a rate fit."""
    points = []
    for pi, pt in enumerate(cfg.grid):
        recs = [r for r in records if r["point"] == pi]
        good = [r for r in recs if r["est_converged"]
                and (r["exp_converged"] is None or r["exp_converged"])]
        entry = {
            "point": pi, "n": pt.n, "p": pt.p, "s": pt.s, "M": pt.M,
            "d": pt.d, "replications": len(recs),
            "converged": len(good), "failed": len(recs) - len(good),
            "r_n": recs[0]["r_n"] if recs else None,
        }
        for metric in ("err_est", "err_exp", "gap", "ratio"):
            vals = [r[metric] for r in good if r[metric] is not None]
            if vals:
                q25, q50, q75 = _quantiles(vals)
                entry["median_" + metric] = q50
                entry["q25_" + metric] = q25
                entry["q75_" + metric] = q75
        for flag_field, name in (("cone_both", "cone_freq"),
                                 ("covered", "coverage"),
                                 ("risk_ok", "risk_bound_freq"),
                                 ("sparsity_ok", "sparsity_freq")):
            flags = [r[flag_field] for r in good if r[flag_field] is not None]
            freq, se = _freq(flags)
            if freq is not None:
                entry[name] = freq
                entry[name + "_se"] = se
        if cfg.experiment_kind == "risk_identity":
            ratios = [r["risk_ratio"] for r in good
                      if r["risk_ratio"] is not None]
            if ratios:
                close = [abs(x - 1.0) <= 0.15 for x in ratios]
                freq, se = _freq(close)
                entry["risk_ratio_close_freq"] = freq
                entry["risk_ratio_close_se"] = se
        points.append(entry)

    total = len(records)
    failed = sum(1 for r in records
                 if not (r["est_converged"]
                         and (r["exp_converged"] is None
                              or r["exp_converged"])))
    summary = {
        "experiment": cfg.experiment_kind,
        "loss": cfg.loss_kind,
        "penalty": cfg.penalty_kind,
        "master_seed": cfg.master_seed,
        "replications": cfg.replications,
        "records": total,
        "failed": failed,
        "failed_fraction": failed / total if total else 0.0,
        "points": points,
    }
    try:
        slope, intercept, stderr = rate_fit(records, metric="gap")
    except ValueError:  # too few grid points, or no spread in r_n
        summary["rate_fit"] = None
    else:
        summary["rate_fit"] = {"metric": "gap", "slope": slope,
                               "intercept": intercept, "stderr": stderr}
    return summary


def rate_fit(records, metric="gap"):
    """Least-squares slope of log(median metric) against log(r_n).

    Records from non-converged solves are skipped, and so are grid points
    whose median is not positive (no logarithm); needs at least 3 grid
    points left, with at least two distinct r_n (no slope otherwise).
    """
    by_point = {}
    for r in records:
        if not (r["est_converged"]
                and (r["exp_converged"] is None or r["exp_converged"])):
            continue
        if r.get(metric) is None:
            continue
        by_point.setdefault(r["point"], []).append(r)
    pairs = []
    for recs in by_point.values():
        med = float(np.median([float(r[metric]) for r in recs]))
        if med > 0:
            pairs.append((float(recs[0]["r_n"]), med))
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 grid points with a "
                         "positive median")
    x = np.log([a for a, _ in pairs])
    if x.min() == x.max():
        raise ValueError("rate fit needs grid points with distinct r_n")
    y = np.log([b for _, b in pairs])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - A @ coef
    dof = len(pairs) - 2
    sig2 = float(resid @ resid) / dof if dof > 0 else 0.0
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(sig2 / sxx)
    return slope, intercept, stderr


def load_records_csv(path):
    """Read records.csv back into dicts with numbers and flags restored."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rec = {}
            for k, v in row.items():
                if v == "":
                    rec[k] = None
                elif v in ("true", "false"):
                    rec[k] = v == "true"
                else:
                    try:
                        rec[k] = int(v)
                    except ValueError:
                        try:
                            rec[k] = float(v)
                        except ValueError:
                            rec[k] = v
                if k in ("r_n", "penalty_level", "err_est", "err_exp", "gap",
                         "ratio") and isinstance(rec[k], int):
                    rec[k] = float(rec[k])
            out.append(rec)
    return out
