"""The benchmark's tracer wraps bregopt names from outside the library.

perfbench/tracing.py patches functions and methods by name; a name it wraps
that the library no longer has makes install() fail here, instead of
breaking the benchmark's traced runs unnoticed.
"""

import types
from pathlib import Path

import bregopt

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from its source, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_hooks_install_and_restore():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, bregopt):
        patches = list(tracer.patches)
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, (owner, attr)
        for pid in ("P3", "P6"):
            bregopt.sweep(bregopt.get_problem(pid), [1, 3], 1, threads=1)
    assert len(patches) > 20
    assert tracer.patches == []
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert bregopt.driver.prox_step is bregopt.subproblem.prox_step
    # the tracer's envelope bucket wraps this binding, which the envelope
    # keeps though it steps through prox_step_rows
    assert bregopt.envelope.prox_step is bregopt.subproblem.prox_step
    # a sweep runs each horizon's seeds in one lockstep loop, not through
    # run_for_regime; P3's steps are scanned and P6's take one batched
    # secular step each, so no outer prox_step is made
    assert tracer.stat("driver.run")[0] == 0
    assert tracer.stat("subproblem.outer.prox_step")[0] == 0
