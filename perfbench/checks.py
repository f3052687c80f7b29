"""Output checks of the benchmark operations.

Every operation's rows are checked three ways:

* structure and invariants, for any seed: one row per (cell, metric), the
  requested horizon and seed indices, finite metrics, Bregman divergences
  and local norms >= 0, and F(x_bar) - F* >= 0 up to rounding (F* is the
  exact optimum recorded by the registry);
* determinism, for any seed: a cell computed again in a later round of the
  same run must give bit-identical values;
* reference, for the seeds recorded under reference/: every per-cell value
  within REL_TOL (plus ABS_TOL) of the value recorded with the library as it
  stood when the benchmark was added.

Tolerance.  A correct change may reorder floating-point sums or replace one
exact solver by another (for P1's outer step, the slope search agrees with
the bisection path to about 3e-15 relative per step, so at most ~1e-12 over
the 257 steps of the longest horizon here).  Such rounding-level changes are
amplified along some stochastic trajectories: moving x0 by one ulp changed
the recorded values of P1 and P3-P5 by at most 1e-11 relative, of P6 by at
most 4e-8 relative (1e-9 absolute), and of P2, whose envelope metrics follow
a sensitive noisy-gradient trajectory, by up to 1.8e-6 relative (2.1e-7
absolute) in a few of the 8 x 4 x 2 cells of each horizon, over the workload
seeds 0-3 and 4242.  A value passes when |got - ref| <= REL_TOL |ref| + ABS_TOL,
which keeps a margin of 10x (relative) and 5x (absolute) above that jitter.
The step-size fields eta0 and lambda carry no such jitter, so a defect as
small as scaling the step sizes by 1 + 1e-4 is still rejected through them;
defects in the solvers or the metrics move the values by far more.
"""

import json
import math
from pathlib import Path

REL_TOL = 2e-5
ABS_TOL = 1e-6
ROUNDING_SLACK = 1e-12   # allowed negative rounding of quantities >= 0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CELL_FIELDS = ("eta0", "lambda")


def cell_values(rows):
    """Flatten sweep rows to {"P1/T64/s0/<field>": value}."""
    out = {}
    for r in rows:
        prefix = "%s/T%d/s%d/" % (r["problem_id"], r["T"], r["seed"])
        out[prefix + r["metric_name"]] = float(r["metric_value"])
        for f in CELL_FIELDS:
            out[prefix + f] = float(r[f])
    return out


def check_rows(op, rows, metric_names):
    """Structure and invariant errors of one operation's rows."""
    errors = []
    expected = {(s, m) for s in range(op.n_seeds) for m in metric_names}
    got = set()
    for r in rows:
        where = "%s s%d %s" % (op.key, r["seed"], r["metric_name"])
        got.add((r["seed"], r["metric_name"]))
        if r["problem_id"] != op.problem_id or r["T"] != op.T:
            errors.append("%s: row for %s/T%d" % (where, r["problem_id"], r["T"]))
        v = r["metric_value"]
        if not math.isfinite(v):
            errors.append("%s: metric %r is not finite" % (where, v))
        elif v < -ROUNDING_SLACK * (1.0 + abs(v)):
            errors.append("%s: metric %r is negative" % (where, v))
        if not (r["eta0"] > 0 and r["lambda"] > 0):
            errors.append("%s: step sizes %r, %r" % (where, r["eta0"], r["lambda"]))
    if got != expected or len(rows) != len(expected):
        errors.append("%s: rows cover %d (seed, metric) pairs, expected %d"
                      % (op.key, len(got), len(expected)))
    return errors


def relative_drift(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def compare(values, reference):
    """(errors, largest relative drift) of values against reference values."""
    errors = []
    worst = 0.0
    for key, want in reference.items():
        got = values.get(key)
        if got is None:
            errors.append("%s: missing" % key)
            continue
        if got != want:
            worst = max(worst, relative_drift(got, want))
        if abs(got - want) > REL_TOL * abs(want) + ABS_TOL:
            errors.append("%s: %r differs from %r" % (key, got, want))
    return errors, worst


def reference_path(seed):
    return REFERENCE_DIR / ("seed-%d.json" % seed)


def load_reference(seed, workload):
    """{op key: {"error": str or None, "values": {...}}}, or None if unrecorded."""
    path = reference_path(seed)
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)["workloads"][workload]
