#!/usr/bin/env python3
"""Alternating paired benchmark runs of two commits, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --pr N --title TEXT \\
        [--claim TEXT] [--workdir DIR] [--out FILE]

Run from the repository root; it uses the standard library only and edits
nothing in the checkout but the output file.  Each side is a `git archive`
tree of its commit, extracted into the sibling directories parent/ and
change/ of the work directory: names of equal length, so that the two
trees' paths have equal lengths too.  For every workload of BENCHMARK.json
it runs PAIRS: 10 pairs at seed 11 and 2 at the held-out seed 4242, the
parent first in odd pairs and the change first in even ones; a run is

    PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W \\
        --seed S --seconds N --trace 0

in its side's tree, N being BENCHMARK.json's run_seconds.  The trees are
removed at the end unless --workdir names their directory.  The output has
the keys of the earlier BENCH_*.json files: the runs with their information
and result lines, and a summary per workload and seed (and over all seeds)
of each end-to-end metric's quartiles on each side, the ratio of the
medians, change over parent, the pairs that the change won and tied by the
metric's "better" in BENCHMARK.json, and whether the ratio stays within the
metric's "bound" there.  When a run exits nonzero, no further run
starts: the output holds the runs before it, and "failed_run" names its
workload, seed, side and exit code, and the tool exits with 1.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

METRICS = ("steps_per_s", "us_per_step_p50", "peak_rss_mb", "setup_s")
SIDES = ("parent", "change")
PAIRS = ((11, 10), (4242, 2))  # (seed, number of pairs)
COMMAND = ("PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload WORKLOAD "
           "--seed SEED --seconds %g --trace 0")


def extract(rev, dest):
    """Extract the tree of commit rev into the new directory dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                          stdout=subprocess.PIPE).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def pair_orders(count):
    """The order of the sides in each of count pairs: the parent first in
    odd pairs (the 1st, 3rd, ...), the change first in even ones."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(count)]


def parse_output(text):
    """The information line and the result line of one perfbench run."""
    info = result = None
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "info" in obj:
            info = obj
        elif "metrics" in obj:
            result = obj
    if info is None or result is None:
        raise ValueError("no information and result lines in the output:\n" + text)
    return info, result


class RunFailed(RuntimeError):
    """A perfbench run that exited nonzero; returncode is its exit code."""

    def __init__(self, message, returncode):
        super().__init__(message)
        self.returncode = returncode


def run_once(tree, workload, seed, seconds):
    """(information line, result line) of one perfbench run in tree; raises
    RunFailed when the run exits nonzero."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "%g" % seconds, "--trace", "0"],
                         cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise RunFailed("perfbench exited %d in %s (%s, seed %d)"
                        % (out.returncode, tree, workload, seed), out.returncode)
    return parse_output(out.stdout)


def quartiles(values):
    """q1, median and q3 of values (inclusive method; one value is all three,
    and no value gives None)."""
    if not values:
        return None
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs, specs):
    """The summary of runs per "workload/seed" and per "workload/all".

    specs maps each metric to its entry of BENCHMARK.json's end_to_end (its
    "better" and "bound").  A group's i-th parent and i-th change runs are
    its i-th pair, as _run_pairs appends them.
    """
    groups = {}
    for run in runs:
        for key in ("%s/%s" % (run["workload"], run["seed"]), "%s/all" % run["workload"]):
            groups.setdefault(key, []).append(run)
    summary = {}
    for key, group in groups.items():
        entry = {"pairs": sum(r["side"] == "parent" for r in group),
                 "all_correct": all(r["result"]["correct"] for r in group),
                 "failed": sum(r["result"]["failed"] for r in group)}
        for metric in METRICS:
            values = {side: [r["result"]["metrics"][metric]["value"]
                             for r in group if r["side"] == side] for side in SIDES}
            stats = {side: quartiles(values[side]) for side in SIDES}
            ratio = stats["change_over_parent"] = (
                stats["change"]["median"] / stats["parent"]["median"]
                if stats["change"] and stats["parent"] else None)
            # +1 where a higher value is better, -1 where a lower one is
            sign = 1.0 if specs[metric]["better"] == "higher" else -1.0
            pairs = list(zip(values["parent"], values["change"]))
            stats["pairs_won"] = sum(sign * (c - p) > 0.0 for p, c in pairs)
            stats["pairs_tied"] = sum(c == p for p, c in pairs)
            stats["within_bound"] = (None if ratio is None
                                     else sign * (ratio - 1.0) >= -specs[metric]["bound"])
            entry[metric] = stats
        summary[key] = entry
    return summary


def bench_file(pr, title, claim, revs, pairs, seconds, runs, specs, failed_run=None):
    """The BENCH_<pr>.json contents of runs of the commits revs (by side),
    summarized by the metrics' specs (summarize); failed_run, when a run
    failed, names it (its workload, seed, side and exit code) under the key
    "failed_run", and runs are those before it."""
    first = {side: next((r["info"]["info"]["env"] for r in runs if r["side"] == side), {})
             for side in SIDES}
    env = first["change"] or first["parent"]
    out = {
        "pr": pr,
        "title": title,
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "src_sha256": {side: first[side].get("src_sha256") for side in SIDES},
        "command": COMMAND % seconds,
        "procedure": ("each side from `git archive` of its commit, in the sibling directories "
                      "parent/ and change/; alternating pairs (the parent first in odd pairs); "
                      "every workload %s; Python %s, numpy %s, nproc %s"
                      % (" and ".join("%d pairs at seed %d" % (c, s) for s, c in pairs),
                         env.get("python"), env.get("numpy"), env.get("nproc"))),
        "claim": claim,
        "summary": summarize(runs, specs),
        "runs": runs,
    }
    if failed_run is not None:
        out["failed_run"] = failed_run
    return out


def _run_pairs(trees, workloads, pairs, seconds):
    """The runs of every pair in order, and the first run that failed
    ({workload, seed, side, returncode}) or None; no run follows it."""
    runs = []
    for workload in workloads:
        for seed, count in pairs:
            for order in pair_orders(count):
                for side in order:
                    try:
                        info, result = run_once(trees[side], workload, seed, seconds)
                    except RunFailed as err:
                        print(err, file=sys.stderr, flush=True)
                        return runs, {"workload": workload, "seed": seed, "side": side,
                                      "returncode": err.returncode}
                    runs.append({"workload": workload, "seed": seed, "seconds": seconds,
                                 "pair_order": "%s first" % order[0], "side": side,
                                 "info": info, "result": result})
                    print("%s seed %d %s: %s" % (workload, seed, side, json.dumps(
                        {m: v["value"] for m, v in result["metrics"].items()})), flush=True)
    return runs, None


def _rev(rev):
    return subprocess.run(["git", "rev-parse", rev], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--title", required=True)
    ap.add_argument("--claim", default="none")
    ap.add_argument("--workdir", help="a new directory for the trees (default: a "
                    "temporary one, removed at the end)")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    revs = {"parent": _rev(args.parent), "change": _rev(args.change)}
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_pairs_")
    trees = {side: os.path.join(workdir, side) for side in SIDES}
    for side in SIDES:
        extract(revs[side], trees[side])
    try:
        runs, failed_run = _run_pairs(trees, workloads, PAIRS, seconds)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir)
    out = bench_file(args.pr, args.title, args.claim, revs, PAIRS, seconds, runs, specs,
                     failed_run)
    with open(args.out or "BENCH_%d.json" % args.pr, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0 if failed_run is None else 1


if __name__ == "__main__":
    sys.exit(main())
