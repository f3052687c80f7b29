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
    summary = bench_pairs.summarize(runs)
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


def test_a_bench_file_has_the_keys_of_the_earlier_ones():
    # BENCH_23.json was written before the tool
    earlier = json.loads((ROOT / "BENCH_23.json").read_text())
    runs = [_run(side, 11, "parent first", 1.0, 2.0, 3.0, 4.0) for side in ("parent", "change")]
    out = bench_pairs.bench_file(24, "title", "none", {"parent": "a", "change": "b"},
                                 [(11, 1)], 20.0, runs)
    assert set(out) == set(earlier)
    assert set(out["summary"]["closed_form_steps/all"]) == set(
        earlier["summary"]["closed_form_steps/all"])
    assert set(out["runs"][0]) == set(earlier["runs"][0])
    assert out["command"] == earlier["command"]
