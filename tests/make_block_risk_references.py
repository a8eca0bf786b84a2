"""Write the 40-digit block risk references that
test_group_prox_risk_matches_mpmath_sure_integral reads.

Each entry is oracles.block_risk_mpmath(m, t, d), in units of tau^2 (read
with mpmath 1.3.0), stored as float.hex so that it reads back bit for bit.
The test recomputes one point per d live, so a stale or edited file fails
it. Run from the repository root after changing the points or the oracle:

    PYTHONPATH=src python tests/make_block_risk_references.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracles import block_risk_mpmath  # noqa: E402

DIMS = (2, 4, 5)
LEVELS = (0.5, 2.0, 8.0)
NORMS = (0.0, 0.5, 3.0, 20.0, 100.0)
PATH = os.path.join(HERE, "block_risk_mpmath.json")


def main():
    refs = [dict(d=d, t=t, m=m, risk=block_risk_mpmath(m, t, d).hex())
            for d in DIMS for t in LEVELS for m in NORMS]
    with open(PATH, "w") as fh:
        fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in refs))


if __name__ == "__main__":
    main()
