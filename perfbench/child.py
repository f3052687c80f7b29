"""One benchmark workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
                               [--setup-only]

run.py starts this script once per measurement with the BLAS thread pools
pinned to one thread.  The script imports bregopt from src/, builds the
workload's problems from the generated configs (problems.instance_from_config)
and prints the CLOCK_MONOTONIC time at which set-up finished, so that the
parent can time set-up from the moment it started the process, with the
number and total time of the calibration kernel runs made during set-up.
Then:

  --trace 0  runs whole rounds of the workload's operations until --seconds
             have passed and reports the end-to-end metrics;
  --trace 1  runs one round untraced and one round traced and reports the
             per-layer metrics of the traced round; the spans of the latest
             traced run of each workload are written to .perfbench_out/.

The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

import calibration

# set-up is timed from the start of the process, so the calibration kernel
# samples the machine's speed through the imports below as well
SETUP_SAMPLER = calibration.Sampler(calibration.SETUP_PERIOD_S)
if __name__ == "__main__":
    SETUP_SAMPLER.start()

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import bregopt  # noqa: E402  (the checkout's own src/)
from bregopt import driver, problems  # noqa: E402

SETUP_CLOCK = time.CLOCK_MONOTONIC  # shared with the parent process
RANK_WARNING = np.exceptions.RankWarning
LEGENDRE_KINDS = ("euclidean", "shannon_entropy", "poly_growth",
                  "norm_power_sum", "weighted_sum")
OUTER_METHODS = ("bisection_1d", "closed_form_affine", "closed_form_abs_affine",
                 "newton")
ENVELOPE_METHODS = ("bisection_1d", "closed_form_affine", "closed_form_norm",
                    "newton")
INNER_METHODS = ("bisection_1d", "newton")

# calibration: (number, total seconds) of the kernel runs made during the call
Call = namedtuple("Call", "op seconds calibration passed result")


def build_problems(ops, seed):
    """{(problem id, instance): ProblemInstance} for the operations."""
    wanted = {(op.problem_id, op.instance) for op in ops}
    data_seeds = inputs.instance_seeds(seed)
    out = {}
    for j in sorted({j for _, j in wanted}):
        for cfg in inputs.generate_configs(data_seeds[j]):
            if (cfg["id"], j) in wanted:
                out[cfg["id"], j] = problems.instance_from_config(cfg)
    return out


def metric_names(problem):
    if problem.regime in ("A", "B"):
        return ("breg_div_to_prox", "env_grad_local_norm")
    return ("fgap_avg",)


def run_op(op, problem):
    """One sweep call: (result or None, seconds, error text or None)."""
    with warnings.catch_warnings():
        # a single-horizon sweep fits a line through one point
        warnings.simplefilter("ignore", RANK_WARNING)
        t0 = time.perf_counter()
        try:
            res = driver.sweep(problem, [op.T], op.n_seeds, threads=1,
                               **op.options)
        except Exception:  # noqa: BLE001  -- a raising op is a failed op
            return None, time.perf_counter() - t0, traceback.format_exc(limit=3)
        return res, time.perf_counter() - t0, None


class Checker:
    """Checks every operation's output; remembers the first value of each cell."""

    def __init__(self, workload, seed):
        self.reference = checks.load_reference(seed, workload)
        self.seen = {}
        self.errors = []
        self.max_drift = 0.0

    def check(self, op, problem, res, error):
        """True when the operation's output passes every check."""
        errs = []
        ref = None if self.reference is None else self.reference.get(op.key)
        if error is not None:
            errs.append("%s raised: %s" % (op.key, error.strip().splitlines()[-1]))
        else:
            errs += checks.check_rows(op, res.rows, metric_names(problem))
            values = checks.cell_values(res.rows)
            first = self.seen.setdefault(op.key, values)
            if values != first:
                errs.append("%s: not bit-identical to its earlier run" % op.key)
                self.max_drift = max([self.max_drift] + [
                    checks.relative_drift(values[k], v)
                    for k, v in first.items() if k in values])
            if ref is not None:
                if ref["error"] is not None:
                    errs.append("%s: succeeded, but raised when recorded" % op.key)
                else:
                    more, drift = checks.compare(values, ref["values"])
                    errs += more
                    self.max_drift = max(self.max_drift, drift)
        self.errors += errs
        return not errs

    @property
    def reference_state(self):
        return "none recorded" if self.reference is None else "checked"


def run_round(ops, probs, checker, tracer=None, sampler=None):
    """Every operation once: [Call].  A call's seconds exclude the time of
    the sampler's kernel runs that interrupted it."""
    out = []
    for op in ops:
        problem = probs[op.problem_id, op.instance]
        before = (sampler.count, sampler.total) if sampler else (0, 0.0)
        if tracer is None:
            res, dt, err = run_op(op, problem)
        else:
            with tracer.span("driver.sweep"):
                res, dt, err = run_op(op, problem)
        after = (sampler.count, sampler.total) if sampler else (0, 0.0)
        cal = (after[0] - before[0], after[1] - before[1])
        out.append(Call(op, dt - cal[1], cal, checker.check(op, problem, res, err),
                        res))
    return out


def reference_seconds(calls):
    """Total call time in reference seconds (calibration.py)."""
    return calibration.reference_seconds(
        sum(c.seconds for c in calls), sum(c.calibration[0] for c in calls),
        sum(c.calibration[1] for c in calls))


def slopes(done):
    """Log-log rate slope per problem over the instance-averaged horizon means."""
    by_problem = {}
    for c in done:
        if c.passed:
            key = (c.op.instance, c.op.T)
            by_problem.setdefault(c.op.problem_id, {})[key] = c.result.means[0]
    out = {}
    for pid, means in by_problem.items():
        hs = sorted({T for _, T in means})
        if len(hs) >= 2:
            avg = [np.mean([m for (_, T), m in means.items() if T == h]) for h in hs]
            out[pid] = driver.fit_loglog(hs, avg)["slope"]
    return out


def environment():
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bregopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def value(v, unit):
    return {"value": v, "unit": unit}


def end_to_end(done, elapsed):
    """steps_per_s, us_per_step_p50 and peak_rss_mb of the untraced rounds.

    steps_per_s: outer steps of the calls that passed every check over the
    calls' total time in reference seconds.  us_per_step_p50: median over the
    workload's operations of the operation's reference time per step, summed
    over its calls in the run; every operation weighs the same, so short
    horizons, where fixed per-cell costs show, count as much as long ones.
    An operation's time is scaled by the kernel runs made during its own calls
    (by those of the whole run if none were): over eight seeds of
    closed_form_steps this cut the spread of us_per_step_p50 from 10% to 4%.
    """
    wall = sum(c.seconds for c in done)
    scale = reference_seconds(done) / wall
    steps = sum(c.op.steps for c in done if c.passed)
    by_op = {}
    for c in done:
        by_op.setdefault(c.op.key, []).append(c)
    per_step = sorted(
        (reference_seconds(cs) if sum(c.calibration[0] for c in cs)
         else scale * sum(c.seconds for c in cs))
        / sum(c.op.steps for c in cs) * 1e6 for cs in by_op.values())
    raw_per_step = [sum(c.seconds for c in cs) / sum(c.op.steps for c in cs) * 1e6
                    for cs in by_op.values()]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "steps_per_s": value(steps / reference_seconds(done), "1/s"),
        "us_per_step_p50": value(statistics.median(per_step), "us"),
        "peak_rss_mb": value(rss_kb / 1024.0, "MB"),
    }
    n = len(per_step)
    # highest percentile with at least ten operations beyond it
    tail = None
    if n > 10:
        tail = {"q": round((n - 10) / n, 4), "us": per_step[n - 11]}
    info = {"calls": len(done), "operations": n, "us_per_step_tail": tail,
            "calibration_runs": sum(c.calibration[0] for c in done),
            "calibration_s_mean": (sum(c.calibration[1] for c in done)
                                   / sum(c.calibration[0] for c in done)),
            "raw": {"steps_per_s": steps / wall,
                    "us_per_step_p50": statistics.median(raw_per_step)},
            "sweep_wall_s": wall, "elapsed_s": elapsed}
    return metrics, info


def per_layer(tracer, untraced, traced, checker):
    calls = lambda name: tracer.stat(name)[0]
    secs = lambda name: tracer.stat(name)[1]
    self_s = lambda name: tracer.stat(name)[2]
    m = {}

    def put(name, v, unit):
        m[name] = value(v, unit)

    put("problems.get_problem.s", secs("problems.get_problem"), "s")
    put("problems.exact_F.calls", calls("problems.exact_F"), "count")

    put("driver.run.s", secs("driver.run"), "s")
    put("driver.run.self_s", self_s("driver.run"), "s")
    put("driver.metric.s", secs("envelope.stationarity") + secs("driver.tstar_law")
        + secs("driver.convex_gap"), "s")
    put("driver.steps", calls("subproblem.outer.prox_step"), "count")

    for op in ("sample", "model_at"):
        put("models.%s.calls" % op, calls("models." + op), "count")
        put("models.%s.s" % op, secs("models." + op), "s")

    n_prox = 0
    closed = 0
    for caller, methods in (("outer", OUTER_METHODS), ("envelope", ENVELOPE_METHODS)):
        name = "subproblem.%s.prox_step" % caller
        put("subproblem.%s.calls" % caller, calls(name), "count")
        put("subproblem.%s.s" % caller, secs(name), "s")
        put("subproblem.%s.self_s" % caller, self_s(name), "s")
        n_prox += calls(name)
        seen = {k.split(".method.")[1]: v for k, v in tracer.counts.items()
                if k.startswith(caller + ".method.")}
        closed += sum(v for k, v in seen.items() if k.startswith("closed_form"))
        for method in methods:
            put("subproblem.%s.method.%s.calls" % (caller, method),
                seen.pop(method, 0), "count")
        put("subproblem.%s.method.other.calls" % caller, sum(seen.values()), "count")
    put("subproblem.prox_step.calls", n_prox, "count")
    put("subproblem.prox_step.s", secs("subproblem.outer.prox_step")
        + secs("subproblem.envelope.prox_step"), "s")
    put("subproblem.prox_step.self_s", self_s("subproblem.outer.prox_step")
        + self_s("subproblem.envelope.prox_step"), "s")
    put("subproblem.closed_form.ratio", closed / n_prox if n_prox else 0.0, "ratio")

    put("subproblem.inner_solve.calls", calls("subproblem.inner_solve"), "count")
    put("subproblem.inner_solve.s", secs("subproblem.inner_solve"), "s")
    for method in INNER_METHODS:
        n = tracer.counts["inner.%s.calls" % method]
        its = tracer.counts["inner.%s.iterations" % method]
        put("subproblem.inner_iterations.mean.%s" % method,
            its / n if n else 0.0, "iterations")
    put("subproblem.certificate.calls", calls("subproblem.certificate"), "count")
    put("subproblem.certificate.s", secs("subproblem.certificate"), "s")
    traced_wall = sum(c.seconds for c in traced)
    put("subproblem.certificate.share", secs("subproblem.certificate") / traced_wall,
        "ratio")
    put("subproblem.solve_monotone_power.calls",
        calls("subproblem.solve_monotone_power"), "count")
    put("subproblem.solve_monotone_power.s",
        secs("subproblem.solve_monotone_power"), "s")

    for kind in LEGENDRE_KINDS:
        for op in tracing.LEGENDRE_OPS:
            put("legendre.%s.%s.calls" % (kind, op),
                calls("legendre.%s.%s" % (kind, op)), "count")
        put("legendre.%s.s" % kind, tracer.stats_matching(
            lambda n, k=kind: n.startswith("legendre.%s." % k))[2], "s")
    put("legendre.s", tracer.stats_matching(lambda n: n.startswith("legendre."))[2], "s")

    n_cells = tracer.cell_id + 1
    put("envelope.prox_point.calls", calls("envelope.prox_point"), "count")
    put("envelope.prox_point.s", secs("envelope.prox_point"), "s")
    put("envelope.stationarity.calls", calls("envelope.stationarity"), "count")
    put("envelope.stationarity.s", secs("envelope.stationarity"), "s")
    put("envelope.prox_solves_per_metric",
        calls("envelope.prox_point") / n_cells if n_cells else 0.0, "ratio")

    for bucket, share in tracer.shares().items():
        put("share.%s" % bucket, share, "ratio")
    put("trace.overhead_ratio", traced_wall / sum(c.seconds for c in untraced) - 1.0,
        "ratio")
    put("check.output_rel_drift_max", checker.max_drift, "ratio")

    info = {"cells": n_cells, "spans": len(tracer.span_start)}
    unlisted = sorted(k for k in tracer.counts if ".method." in k)
    info["methods"] = {k: tracer.counts[k] for k in unlisted}
    return m, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    ops = inputs.WORKLOADS[args.workload]
    load_start = os.getloadavg()

    tracer = tracing.Tracer() if args.trace else None
    with (tracing.installed(tracer, bregopt) if tracer
          else contextlib.nullcontext()):
        probs = build_problems(ops, args.seed)
        setup_done = time.clock_gettime(SETUP_CLOCK)
        SETUP_SAMPLER.stop()
        setup_kernel = [SETUP_SAMPLER.count, SETUP_SAMPLER.total]
        if args.setup_only:
            print(json.dumps({"setup_done": setup_done, "setup_kernel": setup_kernel}))
            return 0

        checker = Checker(args.workload, args.seed)
        t0 = time.perf_counter()
        if tracer is None:
            done = []
            with calibration.Sampler(calibration.PERIOD_S) as sampler:
                while True:
                    done += run_round(ops, probs, checker, sampler=sampler)
                    if time.perf_counter() - t0 >= args.seconds:
                        break
        else:
            # the same round untraced and traced; tracing must not move outputs
            tracer.restore()
            first = run_round(ops, probs, checker)
            tracing.install(tracer, bregopt)
            done = run_round(ops, probs, checker, tracer)
        elapsed = time.perf_counter() - t0

    failed = sum(1 for c in done if not c.passed)
    info = {"workload": args.workload, "seed": args.seed,
            "reference": checker.reference_state,
            "failed_ops_ratio": failed / len(done),
            "slopes": slopes(done),
            "errors": checker.errors[:20],
            "env": dict(environment(), loadavg_start=load_start,
                        loadavg_end=os.getloadavg())}
    if tracer is None:
        metrics, more = end_to_end(done, elapsed)
    else:
        metrics, more = per_layer(tracer, first, done, checker)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / ("spans-%s.npz" % args.workload)
        tracer.save(spans)
        more["spans_file"] = str(spans.relative_to(ROOT))
    info.update(more)
    print(json.dumps({"setup_done": setup_done, "setup_kernel": setup_kernel,
                      "correct": not checker.errors,
                      "attempted": len(done), "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
