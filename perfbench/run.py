"""Sweep-throughput benchmark of bregopt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh process
(child.py) with BLAS thread pools pinned to one thread and sweep(threads=1).

--trace 0 prints the end-to-end metrics: steps_per_s, us_per_step_p50,
peak_rss_mb and setup_s.  setup_s is the median over SETUP_RUNS fresh
processes (the measuring one and SETUP_RUNS - 1 that only set up) of the time
from starting the process until its problems are built, import of bregopt
included.  Times are in reference seconds: scaled by a calibration kernel that
runs every 50 ms during the timed calls and every 20 ms during set-up, because
a shared machine's speed drifts (calibration.py).

--trace 1 prints the per-layer metrics of one traced round (see
layer_map.json for what each one measures and which end-to-end metric it
should move).

Before the last line, one line of JSON gives the run's information: the
environment, the reference check, the fitted rate slopes and any errors.  The
last line is {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 when a result was printed, whether or not it is correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_RUNS = 9
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for key in PINNED:
        env[key] = "1"
    return env


def run_child(args, deadline, setup_only=False):
    """Run child.py: (its last JSON line, seconds from start to set-up done)."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("workload process passed the %.0f s deadline" % DEADLINE_S) from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed("workload process exited with %d:\n%s"
                          % (proc.returncode, proc.stderr[-4000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["setup_done"] - started


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "bregopt" / "__init__.py").is_file():
        print("perfbench: no src/bregopt under %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        runs = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                runs.append(run_child(args, deadline, setup_only=True))
        result, setup = run_child(args, deadline)
    except ChildFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    runs.append((result, setup))

    metrics = result["metrics"]
    info = result["info"]
    if not args.trace:
        # in reference seconds, like the other end-to-end times
        setups = [calibration.reference_seconds(s - out["setup_kernel"][1],
                                                *out["setup_kernel"])
                  for out, s in runs]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_s_samples"] = setups
        info["raw"]["setup_s"] = statistics.median(s for _, s in runs)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
