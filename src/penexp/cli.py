"""Command-line entry points.

Subcommands: experiment. Every Monte Carlo experiment, coverage runs among
them, is a config file run by `experiment`, whose --threads (default 0, one
worker per usable core) and --out (default `out`) say how many workers run
it and where its files go; its summary.json holds the rate fits. Exit
codes: 0 on success, 2 on invalid configuration or arguments or an unusable
output directory, 3 when more than MAX_FAIL_FRAC of an experiment's tasks
are uncertified.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
MAX_FAIL_FRAC = 0.02  # of an experiment's tasks, uncertified, for exit 0


def _cmd_experiment(args):
    with open(args.config) as fh:
        cfg = harness.parse_config(fh.read())
    summary = harness.run_experiment(cfg, args.out, args.threads)
    # strict JSON: NaN and infinities are refused
    print(json.dumps({"out": args.out, "records": summary["records"],
                      "failed": summary["failed"],
                      "failed_fraction": summary["failed_fraction"],
                      "rate_fit": summary["rate_fit"]},
                     indent=2, sort_keys=True, allow_nan=False))
    if summary["failed_fraction"] > MAX_FAIL_FRAC:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="penexp",
        description="Penalized regression, first-order expansions, and "
                    "simulation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("experiment", help="run a config-file experiment")
    sp.add_argument("config")
    sp.add_argument("--threads", type=int, default=0,
                    help="worker count; 0 = one per usable core")
    sp.add_argument("--out", default="out", help="output directory")
    sp.set_defaults(func=_cmd_experiment)

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
