"""tools/output_digest.py: its digests on a tiny grid, computed in process
against the bregopt on the path (no git archive here)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digest",
                                               ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

TINY = dict(horizons=(2, 4), n_seeds=2, trace_T=3, trace_seeds=(0, 4242), n_points=3, cli_T=3,
            validate_pairs=1)


def test_two_runs_give_the_same_digests_of_every_problem():
    # the wall times of two runs differ; the digests leave them out
    first, second = output_digest.digests(**TINY), output_digest.digests(**TINY)
    assert first == second
    pids = ("P1", "P2", "P3", "P4", "P5", "P6")
    assert {group.split("/")[1] for group in first} == set(pids)
    for pid in pids:
        assert "trace/%s/0" % pid in first and "trace/%s/4242" % pid in first
        assert "cli_run/%s" % pid in first and "cli_validate/%s" % pid in first
    for pid in ("P1", "P2", "P5", "P6"):
        for group in ("sweep/%s/tstar_draw", "sweep/%s/tstar_full", "stationarity/%s"):
            assert group % pid in first
    assert {"sweep/P3/tstar_draw", "sweep/P4/tstar_draw", "sweep/P4/strongly_convex",
            "bisection/P1"} <= set(first)
    assert len(first) == 40
    # P3 and P4 share their oracle, kernel and test points, and validate
    # prints nothing of their regularizers; every other group differs
    assert first["cli_validate/P3"] == first["cli_validate/P4"]
    assert len({group["sha256"] for group in first.values()}) == len(first) - 1
    # each group also holds the values it hashes, the numbers of a CLI text
    assert all(group["values"] for group in first.values())


def test_a_digest_reads_dtype_shape_and_bits():
    def sha(*parts):
        return output_digest._digest(*parts)["sha256"]

    a = np.array([[1.0, 0.0], [2.0, 3.0]])
    assert sha(a) == sha(a.copy())
    assert sha(a) != sha(a.ravel())
    assert sha(a) != sha(a.astype(np.float32))
    b = a.copy()
    b[0, 1] = -0.0
    assert sha(a) != sha(b)
    assert sha(None) != sha(a)
    assert output_digest._digest(a, None, 7)["values"] == [1.0, 0.0, 2.0, 3.0, 7.0]


def test_drift_is_the_largest_relative_difference_of_the_values():
    def group(*values):
        return {"sha256": "", "values": list(values)}

    drift = output_digest.drift
    assert drift(group(1.0, -0.0, np.nan, np.inf), group(1.0, 0.0, np.nan, np.inf)) == 0.0
    assert drift(group(1.0, 2.0, -4.0), group(1.0, 2.0 + 2e-6, -4.0 - 1e-6)) == pytest.approx(
        2e-6 / (2.0 + 2e-6), rel=1e-9)
    assert drift(group(0.0), group(1e-300)) == 1.0
    assert drift(group(1.0), group(np.inf)) == np.inf
    assert drift(group(1.0), group(1.0, 2.0)) == np.inf
    text = output_digest._text_digest("t,x0\n3,-1.5e-07\n{\"lam\": 0.25}\n")
    assert text["values"] == [0.0, 3.0, -1.5e-07, 0.25]


def test_against_prints_each_differing_group_with_its_drift(monkeypatch, capsys):
    mine = {"a": {"sha256": "1", "values": [1.0, 2.0]}, "b": {"sha256": "2", "values": [1.0]},
            "c": {"sha256": "3", "values": [5.0]}}
    theirs = {"a": {"sha256": "1", "values": [1.0, 2.0]},
              "b": {"sha256": "9", "values": [1.0 + 1e-6]}}
    monkeypatch.setattr(output_digest, "digests", lambda: mine)
    monkeypatch.setattr(output_digest, "digests_at", lambda rev: theirs)
    assert output_digest.main(["--against", "REV"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:] == ["differs from REV: b (drift %.3g)" % (1e-6 / (1.0 + 1e-6)),
                         "differs from REV: c (drift inf)",
                         "2 of 3 groups differ from REV"]
