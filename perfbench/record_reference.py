"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [SEED ...]

For each seed (default: inputs.DEFAULT_SEED and inputs.HELD_OUT_SEED) this
runs every operation of every workload once and writes reference/seed-N.json
with the per-cell values of each operation, or the error it raised.  Record
only with a library whose outputs are known to be right; the references in
the repository were recorded with the library as it stood when the benchmark
was added (see "recorded_with" in each file).
"""

import os
import sys

for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import json  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402


def record(seed):
    workloads = {}
    for name, ops in inputs.WORKLOADS.items():
        probs = child.build_problems(ops, seed)
        entries = {}
        for op in ops:
            res, _, error = child.run_op(op, probs[op.problem_id, op.instance])
            entries[op.key] = {
                "error": None if error is None else error.strip().splitlines()[-1],
                "values": {} if res is None else checks.cell_values(res.rows),
            }
        workloads[name] = entries
    env = child.environment()
    return {"seed": seed,
            "recorded_with": {"git_commit": env["git_commit"],
                              "src_sha256": env["src_sha256"],
                              "numpy": env["numpy"], "python": env["python"]},
            "tolerance": {"rel": checks.REL_TOL, "abs": checks.ABS_TOL},
            "workloads": workloads}


def main(argv):
    seeds = [int(a) for a in argv] or [inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED]
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        data = record(seed)
        with open(checks.reference_path(seed), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        failed = [k for w in data["workloads"].values() for k, e in w.items()
                  if e["error"] is not None]
        print("seed %d: %d failed operations %s" % (seed, len(failed), failed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
