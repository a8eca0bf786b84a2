"""Experiment configuration, deterministic replication engine, and outputs.

Configs are flat key=value text with # comments; one grid entry per `grid`
line. An ExperimentConfig describes only what a run computes, and refuses
an invalid value when it is built; the output directory and the worker
count are run_experiment's arguments. Each (grid point, replication) task
derives its own integer seed from (master_seed, point index, rep index), so
results do not depend on worker count or completion order. Records are
written in (point, rep) order. Every task fits, expands, and checks both
error vectors against the point's cone and the expansion's support against
its bound; `experiment` names the one diagnostic with hypotheses of its own
that the run adds: none (rates), risk_identity or coverage.

The point set-ups and then the tasks run in one thread pool, and every
mapped OpenBLAS copy is held at one thread while they run: the pool is the
parallelism, and BLAS helper threads would only take cores from the other
workers. It also makes the BLAS results, hence the outputs, independent of
the process's BLAS thread setting. The previous counts come back afterwards.
No barrier holds the tasks: each waits only for its own point's set-up,
which was queued ahead of every task and so is running or done by then.

Outputs, in the directory given to run_experiment, each CSV cell written by
its column's type in RECORD_SCHEMA or TIMING_SCHEMA: records.csv (RFC 4180,
floats at 17 significant digits), timings.csv (each solve call's wall time
on the harness's clock, kept out of records.csv so reruns are byte-identical,
and its full passes over X or K) and summary.json: per point the medians,
quartiles and frequencies of its certified tasks, the totals summed from
them, and the rate fits through those medians. All three are built, written
to temporary names and then renamed into place together, never read back.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import json
import math
import os
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import diagnostics, model, solver
from .losses import curvature_matrix, get_loss
from .penalties import (GroupPenalty, L1BallConstraint, group_penalty_level,
                        lasso_penalty_level)

EXPERIMENT_KINDS = ("rates", "risk_identity", "coverage")
PENALTY_KINDS = ("l1_penalized", "l1_constrained", "group_lasso")

# Each records.csv column in header order, with the type of its cells:
# integers, true/false flags and floats; any cell may be empty (None).
RECORD_SCHEMA = dict(
    point=int, n=int, p=int, s=int, M=int, d=int, rep=int, seed=int,
    r_n=float, penalty_level=float, err_est=float, err_exp=float,
    gap=float, ratio=float, est_iterations=int, exp_iterations=int,
    est_kkt=float, exp_kkt=float, est_converged=bool, exp_converged=bool,
    cone_est=bool, cone_exp=bool, cone_both=bool, risk_lhs=float,
    risk_rhs=float, risk_mc_se=float, risk_ratio=float, risk_bound=float,
    risk_ok=bool, theta_hat=float, target=float, covered=bool, t_stat=float,
    nnz_coords=int, nnz_groups=int, sparsity_bound=float, sparsity_ok=bool,
)
# The timings.csv columns the same way: each solve's wall time and passes.
TIMING_SCHEMA = dict(point=int, rep=int, est_time=float, exp_time=float,
                     est_passes=int, exp_passes=int)


@dataclass(frozen=True)
class GridPoint:
    n: int
    p: int
    s: int
    M: int | None = None
    d: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """A valid experiment description: each field is named by its config
    key, and a value out of range raises ValueError when it is built. This
    is the one check of every value a run uses: the library does not
    repeat it."""

    experiment: str
    grid: tuple = ()
    loss: str = "squared"
    penalty: str = "l1_penalized"
    design: str = "gaussian"
    covariance: str = "identity"
    xi: float = 0.5
    noise_sd: float = 1.0
    amplitude: float = 1.0
    replications: int = 100
    master_seed: int = 1
    mc_inner: int = 2000
    kkt_tol: float = 1e-8
    max_iters: int = 20000

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError("unknown experiment kind %r (one of %s)"
                             % (self.experiment, ", ".join(EXPERIMENT_KINDS)))
        if self.penalty not in PENALTY_KINDS:
            raise ValueError("unknown penalty kind %r" % (self.penalty,))
        loss = get_loss(self.loss)
        if self.design not in loss.designs:
            raise ValueError("%s loss needs a %s design, got %r"
                             % (loss.kind, " or ".join(loss.designs),
                                self.design))
        # validates the syntax; p = 2 tells AR(1) with rho != 0 apart
        cov = model.CovarianceModel.from_spec(self.covariance, 2)
        if not self.grid:
            raise ValueError("at least one grid entry is required")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0, got %d"
                             % self.master_seed)
        if not 0 < self.xi < math.inf:
            raise ValueError("xi must be > 0 and finite")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.penalty == "l1_constrained" and self.amplitude == 0:
            raise ValueError("l1_constrained runs need amplitude != 0: the "
                             "l1-ball radius is ||beta*||_1")
        if self.mc_inner < 2:
            raise ValueError("mc_inner must be >= 2")
        if not 0 <= self.noise_sd < math.inf:
            raise ValueError("noise_sd must be >= 0 and finite")
        for pt in self.grid:
            if not (pt.n >= 1 and pt.p > pt.s >= 1):
                raise ValueError("grid point needs n >= 1 and p > s >= 1, "
                                 "got %r" % (pt,))
            if self.penalty == "group_lasso":
                if pt.M is None or pt.d is None:
                    raise ValueError("group runs need M and d in each grid "
                                     "entry")
                if pt.M * pt.d != pt.p:
                    raise ValueError("grid point needs p = M*d, got %r"
                                     % (pt,))
                if not pt.M > pt.s:
                    raise ValueError("grid point needs M > s, got %r" % (pt,))
            elif pt.M is not None or pt.d is not None:
                raise ValueError("only group_lasso runs take M and d, got %r"
                                 % (pt,))
        if self.experiment == "risk_identity":
            diagnostics.risk_identity_hypotheses(loss.model, self.design, cov)
        if self.experiment == "coverage":
            diagnostics.interval_hypotheses(loss.model, self.noise_sd)
        # validates the solves' tolerance and iteration budget
        solver.SolverConfig(self.max_iters, self.kkt_tol)


# key -> type of the field it sets, which converts the value
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


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
        if key not in _FIELD_TYPES:
            raise ValueError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ValueError("line %d: %s set twice" % (lineno, key))
        try:
            values[key] = _FIELD_TYPES[key](val)
        except ValueError:
            raise ValueError("line %d: bad value %r for %s"
                             % (lineno, val, key)) from None
    if "experiment" not in values:
        raise ValueError("config must set `experiment`")
    return ExperimentConfig(grid=tuple(grid), **values)


def _parse_grid_entry(val, lineno):
    fields = {}
    for tok in val.split():
        if "=" not in tok:
            raise ValueError("line %d: grid entries look like n=400 p=800 s=5"
                             % lineno)
        k, _, v = tok.partition("=")
        if k not in ("n", "p", "s", "M", "d"):
            raise ValueError("line %d: unknown grid field %r" % (lineno, k))
        if k in fields:
            raise ValueError("line %d: grid field %r set twice" % (lineno, k))
        try:
            fields[k] = int(v)
        except ValueError:
            raise ValueError("line %d: grid field %s needs an integer, got "
                             "%r" % (lineno, k, v)) from None
    for req in ("n", "p", "s"):
        if req not in fields:
            raise ValueError("line %d: grid entry missing %r" % (lineno, req))
    return GridPoint(**fields)


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
    sparsity_bound: float


def _setup_point(cfg, pt):
    cov = model.CovarianceModel.from_spec(cfg.covariance, pt.p)
    groups = None
    if cfg.penalty == "group_lasso":
        groups = model.GroupStructure(pt.M, pt.d)
        beta_star = model.flat_signal(pt.p, pt.s * pt.d, cfg.amplitude)
        cone = diagnostics.GroupCone((2.0 + 3.0 / cfg.xi) * np.sqrt(pt.s),
                                     groups)
        r_n = diagnostics.group_rate(pt.n, pt.M, pt.d, pt.s)
    else:
        beta_star = model.flat_signal(pt.p, pt.s, cfg.amplitude)
        if cfg.penalty == "l1_constrained":
            # Error vectors of the constrained fit satisfy the support
            # inequality, which lands them in the sqrt(4s) cone.
            radius = np.sqrt(4.0 * pt.s)
        else:
            radius = np.sqrt(pt.s * (6.0 + 2.0 / cfg.xi) ** 2)
        cone = diagnostics.GroupCone(radius, model.GroupStructure(pt.p, 1))
        r_n = diagnostics.lasso_rate(pt.n, pt.p, pt.s)
    curv = curvature_matrix(get_loss(cfg.loss), cov, beta_star)
    sbound = diagnostics.sparsity_bound(pt.s, cfg.xi, cov, curv, groups)
    return _PointSetup(pt, cov, groups, beta_star, curv, cone, r_n, sbound)


def _make_penalty(cfg, setup, loss, ds):
    pt = setup.point
    if cfg.penalty == "l1_penalized":
        level = lasso_penalty_level(
            loss.penalty_scale(ds), pt.p, pt.s, pt.n, cfg.xi)
        return GroupPenalty(level, model.GroupStructure(pt.p, 1)), level
    if cfg.penalty == "group_lasso":
        level = group_penalty_level(
            loss.penalty_scale(ds), pt.M, pt.d, pt.s, pt.n, cfg.xi)
        return GroupPenalty(level, setup.groups), level
    radius = float(np.abs(setup.beta_star).sum())
    return L1BallConstraint(radius), radius


def _run_task(cfg, setup, point_idx, rep_idx):
    pt = setup.point
    loss = get_loss(cfg.loss)
    solver_cfg = solver.SolverConfig(cfg.max_iters, cfg.kkt_tol)
    seed = task_seed(cfg.master_seed, point_idx, rep_idx)
    ds = model.simulate(setup.cov, setup.beta_star, pt.n, loss, cfg.design,
                        cfg.noise_sd, seed)
    penalty, level = _make_penalty(cfg, setup, loss, ds)

    # one row holds the cells of both CSV files
    row = dict.fromkeys(RECORD_SCHEMA | TIMING_SCHEMA)
    row.update(point=point_idx, n=pt.n, p=pt.p, s=pt.s, M=pt.M, d=pt.d,
               rep=rep_idx, seed=seed, r_n=setup.r_n, penalty_level=level)

    t0 = time.perf_counter()
    est = solver.fit_penalized(ds, loss, penalty, solver_cfg)
    row.update(est_time=time.perf_counter() - t0, est_passes=est.passes,
               est_iterations=est.iterations, est_kkt=est.kkt_residual,
               est_converged=est.converged)

    t0 = time.perf_counter()
    exp = solver.fit_expansion(ds, loss, setup.curv, setup.beta_star, penalty,
                               solver_cfg)
    row.update(exp_time=time.perf_counter() - t0, exp_passes=exp.passes,
               exp_iterations=exp.iterations, exp_kkt=exp.kkt_residual,
               exp_converged=exp.converged)
    err_est = setup.curv.norm(est.solution - setup.beta_star)
    err_exp = setup.curv.norm(exp.solution - setup.beta_star)
    gap = setup.curv.norm(exp.solution - est.solution)
    denom = err_est + err_exp
    row.update(err_est=err_est, err_exp=err_exp, gap=gap,
               ratio=gap / denom if denom > 0 else None)
    in_est = setup.cone.member(est.solution - setup.beta_star)
    in_exp = setup.cone.member(exp.solution - setup.beta_star)
    row.update(cone_est=in_est, cone_exp=in_exp, cone_both=in_est and in_exp)
    row.update(diagnostics.sparsity_count(exp.solution, setup.sparsity_bound,
                                          setup.groups))

    # the one diagnostic with hypotheses of its own that the config names
    if cfg.experiment == "risk_identity":
        row.update(diagnostics.risk_identity_check(
            ds, est.solution, exp.solution, penalty, cfg.mc_inner, seed))
    elif cfg.experiment == "coverage":
        # a = e_1: the first coordinate
        row.update(diagnostics.debiased_estimate(
            ds, est.solution, np.eye(1, pt.p)[0], cfg.noise_sd))
    return row


# Thread-count functions, %s = get or set: numpy's OpenBLAS (64-bit
# integers), scipy's, and a plain OpenBLAS of either integer width.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
    "openblas_%s_num_threads64_", "openblas_%s_num_threads")


def _openblas_libs():
    """(get, set) thread-count functions of each OpenBLAS copy mapped into
    this process; none when there is no OpenBLAS or no /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh
                            if "openblas" in line})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, name % "get", None)
            put = getattr(lib, name % "set", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                libs.append((get, put))
                break
    return libs


@contextlib.contextmanager
def _blas_threads(count):
    """Run the block with every mapped OpenBLAS copy on count threads, and
    give each copy its previous count back afterwards."""
    libs = _openblas_libs()
    before = [get() for get, _ in libs]
    for _, put in libs:
        put(count)
    try:
        yield
    finally:
        for (_, put), n in zip(libs, before):
            put(n)


def run_experiment(cfg, out, threads=0):
    """Run all (grid point, replication) tasks and write the output files
    into the directory out.

    The point set-ups, largest p first, then the tasks, run in a pool of
    `threads` workers (one per usable core for 0), each computing with one
    OpenBLAS thread; the previous OpenBLAS thread counts come back when the
    run ends or raises. A set-up or task that raises cancels the queued
    tasks, and its error propagates before any output is written; an
    unusable out raises OSError before any task runs.
    Returns the summary dict (also written to summary.json). Records from
    non-converged solves stay in records.csv flagged as such but are
    excluded from all summary statistics.
    """
    if threads < 0:
        raise ValueError("threads must be >= 0 (0 means one worker per "
                         "usable core)")
    os.makedirs(out, exist_ok=True)
    tasks = [(pi, ri) for pi in range(len(cfg.grid))
             for ri in range(cfg.replications)]
    # threads = 0: one worker per core this process may run on
    affinity = getattr(os, "sched_getaffinity", None)
    workers = threads or (len(affinity(0)) if affinity
                          else os.cpu_count() or 1)

    def work(task):
        pi, ri = task
        return _run_task(cfg, pending[pi].result(), pi, ri)

    with _blas_threads(1), ThreadPoolExecutor(max_workers=workers) as pool:
        # largest p first, so that the costliest set-up never starts last
        by_size = sorted(range(len(cfg.grid)), key=lambda i: -cfg.grid[i].p)
        pending = {i: pool.submit(_setup_point, cfg, cfg.grid[i])
                   for i in by_size}
        try:
            rows = list(pool.map(work, tasks))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    # pool.map keeps the task order, which is (point, rep)
    summary = summarize(cfg, rows)
    # every text is built before any file is written: strict JSON raises
    # on a NaN or infinity here
    texts = {"records.csv": _csv_text(RECORD_SCHEMA, rows),
             "timings.csv": _csv_text(TIMING_SCHEMA, rows),
             "summary.json": json.dumps(summary, indent=2, sort_keys=True,
                                        allow_nan=False) + "\n"}
    path = {name: os.path.join(out, name) for name in texts}
    try:
        for name, text in texts.items():
            with open(path[name] + ".tmp", "w", newline="") as fh:
                fh.write(text)
        for name in texts:
            os.replace(path[name] + ".tmp", path[name])
    finally:
        for name in texts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path[name] + ".tmp")
    return summary


# A cell's text by its column's type; None is the empty cell.
_CELL_TEXT = {bool: lambda v: "true" if v else "false",
              int: lambda v: format(v, "d"),
              float: lambda v: format(v, ".17g")}


def _csv_text(schema, rows):
    """RFC 4180 text of rows under schema's columns, each cell written by
    its column's declared type."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(schema)
    writer.writerows(["" if row[k] is None else _CELL_TEXT[kind](row[k])
                      for k, kind in schema.items()] for row in rows)
    return buf.getvalue()


def _quantiles(vals):
    q25, q50, q75 = np.quantile(vals, [0.25, 0.5, 0.75])
    return float(q25), float(q50), float(q75)


def _freq(flags):
    """The share of true flags in a nonempty list, and its binomial s.e."""
    freq = sum(bool(f) for f in flags) / len(flags)
    return freq, math.sqrt(freq * (1.0 - freq) / len(flags))


def summarize(cfg, records):
    """Medians, quartiles and frequencies per grid point, and the rate fits
    through those medians."""
    points = []
    for pi, pt in enumerate(cfg.grid):
        recs = [r for r in records if r["point"] == pi]
        good = [r for r in recs if r["est_converged"] and r["exp_converged"]]
        entry = {
            "point": pi, "n": pt.n, "p": pt.p, "s": pt.s, "M": pt.M,
            "d": pt.d, "replications": len(recs),
            "converged": len(good), "failed": len(recs) - len(good),
            "r_n": recs[0]["r_n"],
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
            if flags:
                entry[name], entry[name + "_se"] = _freq(flags)
        ratios = [r["risk_ratio"] for r in good
                  if r["risk_ratio"] is not None]
        if ratios:
            close = [abs(x - 1.0) <= 0.15 for x in ratios]
            freq, se = _freq(close)
            entry["risk_ratio_close_freq"] = freq
            entry["risk_ratio_close_se"] = se
        points.append(entry)

    total = sum(e["replications"] for e in points)
    failed = sum(e["failed"] for e in points)
    return {
        "experiment": cfg.experiment,
        "loss": cfg.loss,
        "penalty": cfg.penalty,
        "master_seed": cfg.master_seed,
        "replications": cfg.replications,
        "records": total,
        "failed": failed,
        "failed_fraction": failed / total,
        "points": points,
        "rate_fit": rate_fit(points, "gap"),
        "rate_fits": {m: rate_fit(points, m) for m in ("err_est", "err_exp")},
    }


def rate_fit(points, metric):
    """Least-squares line through (log r_n, log median metric) of summary
    point entries, as {metric, slope, intercept, stderr}.

    A point without a median of metric (no certified value) or with one
    that is not positive (no logarithm) is skipped. None when fewer than
    3 points are left, or when they share one r_n (no slope).
    """
    key = "median_" + metric
    pairs = [(pt["r_n"], pt[key]) for pt in points if pt.get(key, 0) > 0]
    if len(pairs) < 3:
        return None
    x = np.log([a for a, _ in pairs])
    if x.min() == x.max():
        return None
    y = np.log([b for _, b in pairs])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    sig2 = float(resid @ resid) / (len(pairs) - 2)
    sxx = float(((x - x.mean()) ** 2).sum())
    return {"metric": metric, "slope": float(coef[0]),
            "intercept": float(coef[1]), "stderr": math.sqrt(sig2 / sxx)}
