"""Command-line entry points.

Subcommands: experiment, rate-fit. Every Monte Carlo experiment, coverage
runs among them, is a config file run by `experiment`, whose --threads and
--out override the config's threads and out; `rate-fit` fits the log-log
rate over the records.csv an experiment wrote. Exit codes: 0 on success,
2 on invalid configuration or arguments, 3 when more than MAX_FAIL_FRAC of
an experiment's tasks are uncertified.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
MAX_FAIL_FRAC = 0.02  # of an experiment's tasks, uncertified, for exit 0


def _emit(obj, path=None):
    """Print obj as strict JSON, refusing NaN and infinities, and, given a
    path, write it there too."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")


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
