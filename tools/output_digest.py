#!/usr/bin/env python3
"""One sha256 per output group of the problem registry, to check that a change
keeps every output bit for bit.

    python3 tools/output_digest.py [--against REV] [--json]

Run from the repository root; it needs the standard library and numpy only,
and imports bregopt from the src/ beside this file's tools/.  The groups are

  - sweep/<id>/<mode>: the registry sweeps over T in {16, 64, 256} with 8
    seeds, in both metric modes (tstar_draw, tstar_full) of a regime-A/B
    problem and the one metric of a regime-C problem, and P4 on its
    strongly convex schedule (sweep/P4/strongly_convex).  A digest covers
    each cell's T, eta0, lambda and metric values, never its wall time;
  - trace/<id>/<seed>: run_for_regime at T = 50 for the seeds 0 and 4242,
    every field of the RunTrace;
  - stationarity/<id>: stationarity_rows of a regime-A/B problem at 20 points
    drawn by its oracle's test-point sampler (seed 7), at its default lambda;
  - bisection/P1: prox_points_1d, the certified 1-d bisection, on P1's
    objective from the same 20 points, at its default lambda and with
    rho = tau + rho of its oracle;
  - cli_run/<id>: the standard output of `bregopt run <id> --T 20 --seed 0`
    (the trace CSV and the envelope JSON);
  - cli_validate/<id>: the standard output of
    `bregopt validate <id> --n-pairs 5 --seed 0` (its PASS/FAIL lines).

--against REV also computes the digests in a `git archive` tree of the
commit REV (extracted to a temporary directory, as tools/bench_pairs.py
does, and run by a copy of this script placed in it), prints the groups
whose digests differ, and exits 1 if any do.
--json prints the digests as one JSON object instead of one line per group.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

HORIZONS = (16, 64, 256)
N_SEEDS = 8
TRACE_T = 50
TRACE_SEEDS = (0, 4242)
N_POINTS = 20
POINT_SEED = 7
CLI_T = 20
VALIDATE_PAIRS = 5
TRACE_FIELDS = ("iterates", "etas", "sampled_xi_ids", "t_star", "lam", "model_values",
                "r_values", "step_divergences", "step_residuals", "weighted_average",
                "plain_average")


def _digest(*parts):
    """sha256 of the parts: each array's dtype, shape and bytes, None as such."""
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            h.update(b"None")
            continue
        a = np.ascontiguousarray(part)
        h.update(("%s%s" % (a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digests(horizons=HORIZONS, n_seeds=N_SEEDS, trace_T=TRACE_T, trace_seeds=TRACE_SEEDS,
            n_points=N_POINTS, cli_T=CLI_T, validate_pairs=VALIDATE_PAIRS):
    """{group: sha256} of the registry's outputs on the given grid."""
    from bregopt import driver, envelope, problems, subproblem
    from bregopt.cli import cli_main

    out = {}
    for problem in problems.registry():
        pid = problem.id
        modes = ("tstar_draw", "tstar_full") if problem.regime in ("A", "B") else ("tstar_draw",)
        for mode in modes:
            res = driver.sweep(problem, list(horizons), n_seeds, metric_mode=mode)
            out["sweep/%s/%s" % (pid, mode)] = _digest(res.cells[:, :-1])
        if pid == "P4":
            res = driver.sweep(problem, list(horizons), n_seeds, schedule_kind="strongly_convex")
            out["sweep/P4/strongly_convex"] = _digest(res.cells[:, :-1])
        for seed in trace_seeds:
            tr = driver.run_for_regime(problem, driver.SolverConfig(trace_T, seed=seed))
            out["trace/%s/%d" % (pid, seed)] = _digest(
                *[getattr(tr, name) for name in TRACE_FIELDS])
        if problem.regime in ("A", "B"):
            rng = np.random.default_rng(POINT_SEED)
            X = np.array([problem.oracle.draw_test_point(rng) for _ in range(n_points)])
            lam = driver.default_lambda(problem)
            report = envelope.stationarity_rows(problem, problem.phi, X, lam)
            out["stationarity/%s" % pid] = _digest(*report)
            if pid == "P1":
                c = problem.oracle.constants
                out["bisection/P1"] = _digest(subproblem.prox_points_1d(
                    problem.objective, problem.regularizer, problem.phi, X[:, 0], lam,
                    rho=c.tau + c.rho))
        for group, argv in (("cli_run", ["run", pid, "--T", str(cli_T), "--seed", "0"]),
                            ("cli_validate", ["validate", pid, "--n-pairs", str(validate_pairs),
                                              "--seed", "0"])):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                cli_main(argv)
            out["%s/%s" % (group, pid)] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    return out


def _extract(rev, dest):
    """Extract the tree of commit rev into the new directory dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                          stdout=subprocess.PIPE).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def digests_at(rev):
    """The digests of commit rev's src/, computed by a copy of this script
    placed in its tree, so that both sides hash the same way."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        _extract(rev, tree)
        script = os.path.join(tree, "tools", "output_digest.py")
        os.makedirs(os.path.dirname(script), exist_ok=True)
        shutil.copyfile(os.path.abspath(__file__), script)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run([sys.executable, script, "--json"], env=env, check=True,
                             stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with the digests of commit REV; exit 1 on a difference")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    mine = digests()
    if args.json:
        print(json.dumps(mine, sort_keys=True))
    else:
        for group, value in mine.items():
            print("%s  %s" % (value, group))
    if args.against is None:
        return 0
    theirs = digests_at(args.against)
    differ = sorted(g for g in set(mine) | set(theirs) if mine.get(g) != theirs.get(g))
    for group in differ:
        print("differs from %s: %s" % (args.against, group))
    print("%d of %d groups differ from %s" % (len(differ), len(set(mine) | set(theirs)),
                                              args.against))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
