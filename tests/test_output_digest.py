"""tools/output_digest.py: its digests on a tiny grid, computed in process
against the bregopt on the path (no git archive here)."""

import importlib.util
from pathlib import Path

import numpy as np

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
    assert len(set(first.values())) == len(first) - 1


def test_a_digest_reads_dtype_shape_and_bits():
    a = np.array([[1.0, 0.0], [2.0, 3.0]])
    assert output_digest._digest(a) == output_digest._digest(a.copy())
    assert output_digest._digest(a) != output_digest._digest(a.ravel())
    assert output_digest._digest(a) != output_digest._digest(a.astype(np.float32))
    b = a.copy()
    b[0, 1] = -0.0
    assert output_digest._digest(a) != output_digest._digest(b)
    assert output_digest._digest(None) != output_digest._digest(a)
