"""tools/bench_pairs.py: its parsing and summary on canned perfbench lines;
no benchmark runs here."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
SPECS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _lines(steps, p50, rss, setup, correct=True, failed=0):
    # the two JSON lines perfbench/run.py prints, after a line of its own
    info = {"info": {"workload": "closed_form_steps", "failed_ops_ratio": 0.0,
                     "env": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
                             "src_sha256": "abc"}}}
    metrics = {"steps_per_s": {"value": steps, "unit": "1/s"},
               "us_per_step_p50": {"value": p50, "unit": "us"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "setup_s": {"value": setup, "unit": "s"}}
    result = {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
    return "perfbench: a note\n%s\n%s\n" % (json.dumps(info), json.dumps(result))


def _run(side, seed, order, *values, **kw):
    info, result = bench_pairs.parse_output(_lines(*values, **kw))
    return {"workload": "closed_form_steps", "seed": seed, "seconds": 20.0,
            "pair_order": order, "side": side, "info": info, "result": result}


def test_parse_output_takes_the_info_and_result_lines():
    info, result = bench_pairs.parse_output(_lines(1.0, 2.0, 3.0, 4.0))
    assert info["info"]["env"]["src_sha256"] == "abc"
    assert result["metrics"]["peak_rss_mb"]["value"] == 3.0
    with pytest.raises(ValueError):
        bench_pairs.parse_output("perfbench: no result\n")


def test_pairs_alternate_which_side_runs_first():
    assert bench_pairs.pair_orders(3) == [("parent", "change"), ("change", "parent"),
                                          ("parent", "change")]


def test_summary_gives_quartiles_and_the_ratio_of_medians():
    parent = [(100.0, 5.0, 42.0, 0.20), (110.0, 4.8, 42.1, 0.19), (90.0, 5.2, 41.9, 0.21),
              (105.0, 5.1, 42.2, 0.20), (95.0, 4.9, 42.0, 0.22)]
    change = [(150.0, 4.0, 42.3, 0.20), (160.0, 3.9, 42.4, 0.18), (140.0, 4.1, 42.2, 0.2),
              (155.0, 4.2, 42.5, 0.19), (145.0, 3.8, 42.3, 0.21)]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        order = "parent first" if i % 2 == 0 else "change first"
        runs += [_run("parent", 11, order, *p), _run("change", 11, order, *c)]
    runs += [_run("parent", 4242, "parent first", 120.0, 5.0, 42.0, 0.2),
             _run("change", 4242, "parent first", 170.0, 4.0, 42.2, 0.2, failed=1)]
    summary = bench_pairs.summarize(runs, SPECS)
    assert set(summary) == {"closed_form_steps/11", "closed_form_steps/4242",
                            "closed_form_steps/all"}
    s11 = summary["closed_form_steps/11"]
    assert (s11["pairs"], s11["all_correct"], s11["failed"]) == (5, True, 0)
    assert set(s11) == {"pairs", "all_correct", "failed"} | set(bench_pairs.METRICS)
    steps = s11["steps_per_s"]
    # the inclusive quartiles of the five values, as statistics gives them
    assert steps["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert steps["change"] == {"q1": 145.0, "median": 150.0, "q3": 155.0}
    assert steps["change_over_parent"] == 1.5
    assert s11["us_per_step_p50"]["change_over_parent"] == 4.0 / 5.0
    # one pair: its values are all three quartiles
    s4242 = summary["closed_form_steps/4242"]
    assert s4242["pairs"] == 1 and s4242["failed"] == 1
    assert s4242["peak_rss_mb"]["change"] == {"q1": 42.2, "median": 42.2, "q3": 42.2}
    every = summary["closed_form_steps/all"]
    assert every["pairs"] == 6
    assert every["setup_s"]["parent"]["median"] == statistics.median(
        [v[3] for v in parent] + [0.2])


def test_summary_counts_the_pairs_won_and_tied_and_checks_the_bound():
    # per pair, by BENCHMARK.json's "better": steps_per_s (higher) wins 2
    # pairs, ties 1 and loses 1; us_per_step_p50 (lower) wins the pair
    # whose value fell; the ratio of medians is within the bound when it is
    # worse by at most the bound (peak_rss_mb: 1%), and a better ratio is
    # always within
    parent = [(100.0, 5.0, 40.0, 0.20), (110.0, 5.0, 40.0, 0.20), (90.0, 5.0, 40.0, 0.20),
              (105.0, 5.0, 40.0, 0.20)]
    change = [(120.0, 4.0, 40.3, 0.30), (110.0, 6.0, 40.6, 0.30), (80.0, 6.0, 40.6, 0.30),
              (130.0, 6.0, 40.6, 0.10)]
    runs = []
    for p, c in zip(parent, change):
        runs += [_run("parent", 11, "parent first", *p), _run("change", 11, "parent first", *c)]
    s = bench_pairs.summarize(runs, SPECS)["closed_form_steps/11"]
    steps, p50 = s["steps_per_s"], s["us_per_step_p50"]
    assert (steps["pairs_won"], steps["pairs_tied"], steps["within_bound"]) == (2, 1, True)
    assert steps["change_over_parent"] == 115.0 / 102.5
    # 6/5 = 1.2 is worse than its bound 0.15 allows
    assert (p50["pairs_won"], p50["pairs_tied"], p50["within_bound"]) == (1, 0, False)
    # 40.6/40 = 1.015 against a bound of 1%
    rss = s["peak_rss_mb"]
    assert (rss["pairs_won"], rss["pairs_tied"], rss["within_bound"]) == (0, 0, False)
    # 0.3/0.2 = 1.5 against 0.25
    assert s["setup_s"]["pairs_won"] == 1 and s["setup_s"]["within_bound"] is False
    runs = [dict(r, result=dict(r["result"], metrics=dict(
        r["result"]["metrics"], peak_rss_mb={"value": 40.3 if r["side"] == "change" else 40.0,
                                             "unit": "MB"})))
            for r in runs]
    rss = bench_pairs.summarize(runs, SPECS)["closed_form_steps/all"]["peak_rss_mb"]
    assert rss["change_over_parent"] == 40.3 / 40.0 and rss["within_bound"] is True


def test_a_bench_file_has_the_keys_of_the_earlier_ones():
    # BENCH_23.json was written before the tool
    earlier = json.loads((ROOT / "BENCH_23.json").read_text())
    runs = [_run(side, 11, "parent first", 1.0, 2.0, 3.0, 4.0) for side in ("parent", "change")]
    out = bench_pairs.bench_file(24, "title", "none", {"parent": "a", "change": "b"},
                                 [(11, 1)], 20.0, runs, SPECS)
    assert set(out) == set(earlier)
    assert set(out["summary"]["closed_form_steps/all"]) == set(
        earlier["summary"]["closed_form_steps/all"])
    assert set(out["runs"][0]) == set(earlier["runs"][0])
    assert out["command"] == earlier["command"]


def test_a_failed_run_keeps_the_runs_before_it(tmp_path, monkeypatch):
    # main on canned perfbench output: the fourth run (the second pair's
    # parent) exits 3, so the file holds the three runs before it and names
    # the failed one, and main returns 1 with no further run started
    from types import SimpleNamespace
    cmds = []

    def run(cmd, **kw):
        cmds.append((cmd, kw["cwd"]))
        if len(cmds) == 4:
            return SimpleNamespace(returncode=3, stdout="perfbench: failed\n")
        return SimpleNamespace(returncode=0, stdout=_lines(100.0 + len(cmds), 5.0, 42.0, 0.2))

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "_rev", lambda rev: rev + "0" * 8)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 20, "workloads": [{"name": "closed_form_steps"},
                                          {"name": "newton_inner"}],
         "end_to_end": list(SPECS.values())}))
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", "a", "--change", "b", "--pr", "7", "--title", "t",
                             "--workdir", str(tmp_path / "w"), "--out", str(out)])
    assert code == 1 and len(cmds) == 4
    assert [c[1].endswith(side) for c, side in zip(cmds, ("parent", "change", "change",
                                                          "parent"))] == [True] * 4
    written = json.loads(out.read_text())
    assert written["failed_run"] == {"workload": "closed_form_steps", "seed": 11,
                                     "side": "parent", "returncode": 3}
    assert [(r["side"], r["result"]["metrics"]["steps_per_s"]["value"])
            for r in written["runs"]] == [("parent", 101.0), ("change", 102.0),
                                          ("change", 103.0)]
    steps = written["summary"]["closed_form_steps/11"]["steps_per_s"]
    assert steps["parent"]["median"] == 101.0 and steps["change"]["median"] == 102.5
    assert steps["change_over_parent"] == 102.5 / 101.0
    assert written["src_sha256"] == {"parent": "abc", "change": "abc"}


def test_a_first_run_that_fails_leaves_an_empty_summary(monkeypatch):
    def run_once(*args):
        raise bench_pairs.RunFailed("perfbench exited 2", 2)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    runs, failed = bench_pairs._run_pairs({"parent": "p", "change": "c"}, ["newton_inner"],
                                          [(11, 1)], 20.0)
    assert runs == [] and failed == {"workload": "newton_inner", "seed": 11,
                                     "side": "parent", "returncode": 2}
    out = bench_pairs.bench_file(25, "t", "none", {"parent": "a", "change": "b"},
                                 [(11, 1)], 20.0, runs, SPECS, failed)
    assert out["runs"] == [] and out["summary"] == {} and out["failed_run"] == failed
    assert out["src_sha256"] == {"parent": None, "change": None}
