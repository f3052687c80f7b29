"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bregopt  # noqa: E402
import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from bregopt import problems  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_round(ops, seed=0):
    """Set up and run ops once under a tracer, as child.py --trace 1 does."""
    tracer = tracing.Tracer()
    checker = child.Checker("p1_weakly_convex", seed)
    t0 = time.perf_counter()
    with tracing.installed(tracer, bregopt):
        probs = child.build_problems(ops, seed)
        patches = list(tracer.patches)
        done = child.run_round(ops, probs, checker, tracer)
    wall = time.perf_counter() - t0
    return tracer, done, patches, wall


TINY_P1 = [inputs.Operation("P1", 3, 2, alpha=1.0, metric_mode="tstar_full")]


def test_default_seed_reproduces_the_registry():
    generated = inputs.generate_configs(inputs.DEFAULT_SEED)
    registry = problems.default_configs()
    assert [c["id"] for c in generated] == [c["id"] for c in registry]
    for got, want in zip(generated, registry):
        assert problems.dump_config(got) == problems.dump_config(want)


def test_other_seeds_change_only_the_data():
    base = inputs.generate_configs(inputs.DEFAULT_SEED)
    for seed in (1, inputs.HELD_OUT_SEED):
        other = inputs.generate_configs(seed)
        assert inputs.generate_configs(seed) == other
        for a, b in zip(base, other):
            assert a.keys() == b.keys()
            assert a["phi"] == b["phi"] and a["x0"] == b["x0"]
            assert np.shape(a["weights"]) == np.shape(b["weights"])
        assert base[0]["a"] != other[0]["a"]


def test_traced_counts_are_exact_on_a_tiny_grid():
    tracer, done, _, _ = traced_round(TINY_P1)
    assert all(c.passed for c in done)
    n_seeds, T = 2, 3
    steps = n_seeds * (T + 1)
    assert tracer.counts["outer.method.bisection_1d"] == steps
    assert tracer.stat("subproblem.outer.prox_step")[0] == steps
    # T+1 prox points for the t* law and one for each cell's report
    assert tracer.stat("envelope.prox_point")[0] == steps + n_seeds
    assert tracer.counts["envelope.method.bisection_1d"] == steps + n_seeds
    assert tracer.stat("driver.run")[0] == n_seeds
    assert tracer.cell_id + 1 == n_seeds
    again, _, _, _ = traced_round(TINY_P1)
    assert again.counts == tracer.counts
    assert [again.stat(n)[0] for n in again.names] == \
        [tracer.stat(n)[0] for n in again.names]


def test_every_wrapper_is_removed():
    _, _, patches, _ = traced_round(TINY_P1)
    assert len(patches) > 20
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert bregopt.driver.prox_step is bregopt.subproblem.prox_step
    assert bregopt.envelope.prox_step is bregopt.subproblem.prox_step


def test_wrappers_are_removed_when_the_run_raises():
    tracer = tracing.Tracer()
    original = bregopt.subproblem.inner_solve
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracer, bregopt):
            assert bregopt.subproblem.inner_solve is not original
            1 / 0
    assert bregopt.subproblem.inner_solve is original
    assert tracer.patches == []


def test_self_times_are_nonnegative_and_fit_in_the_wall_time():
    tracer, _, _, wall = traced_round(TINY_P1)
    self_times = [tracer.stat(n)[2] for n in tracer.names]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= wall
    start = np.frombuffer(tracer.span_start)
    end = np.frombuffer(tracer.span_end)
    parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
    child_time = np.zeros(start.size)
    np.add.at(child_time, parent[parent >= 0], (end - start)[parent >= 0])
    assert np.all(end - start - child_time >= 0.0)
    shares = tracer.shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-12


def test_per_layer_metrics_match_the_benchmark_file():
    tracer, done, _, _ = traced_round(TINY_P1)
    metrics, _ = child.per_layer(tracer, done, done,
                                 child.Checker("p1_weakly_convex", 0))
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    documented = json.loads((HERE / "layer_map.json").read_text())["per_layer"]
    for name in declared:
        parts = name.split(".")
        if parts[0] == "legendre" and len(parts) > 2:
            name = "legendre.<kind>." + ("<op>.calls" if parts[-1] == "calls" else "s")
        elif parts[0] == "share":
            name = "share.<bucket>"
        assert name in documented, name


def test_workload_names_agree():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(inputs.WORKLOADS)


def test_reference_check_passes_at_the_default_seed():
    for workload, ops in inputs.WORKLOADS.items():
        op = ops[0]
        checker = child.Checker(workload, inputs.DEFAULT_SEED)
        assert checker.reference is not None
        probs = child.build_problems([op], inputs.DEFAULT_SEED)
        problem = probs[op.problem_id, op.instance]
        res, _, err = child.run_op(op, problem)
        assert checker.check(op, problem, res, err), checker.errors


def test_reference_check_rejects_drift_beyond_the_tolerance():
    ref = {"P6/T32/s0/breg_div_to_prox": 1e-2}
    ok = {"P6/T32/s0/breg_div_to_prox": 1e-2 * (1 + 5e-5)}
    bad = {"P6/T32/s0/breg_div_to_prox": 1e-2 * (1 + 2e-4)}
    assert checks.compare(ok, ref)[0] == []
    assert len(checks.compare(bad, ref)[0]) == 1
    assert len(checks.compare({}, ref)[0]) == 1


def test_invariant_check_rejects_a_negative_divergence():
    op = TINY_P1[0]
    rows = [{"problem_id": "P1", "T": 3, "seed": s, "metric_name": m,
             "metric_value": 0.1, "eta0": 0.1, "lambda": 0.2}
            for s in range(2) for m in ("breg_div_to_prox", "env_grad_local_norm")]
    names = ("breg_div_to_prox", "env_grad_local_norm")
    assert checks.check_rows(op, rows, names) == []
    rows[0]["metric_value"] = -1e-6
    assert len(checks.check_rows(op, rows, names)) == 1
    assert len(checks.check_rows(op, rows[1:], names)) == 1


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "newton_inner",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
