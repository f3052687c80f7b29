"""Span tracing of bregopt's layers from outside the library.

A Tracer replaces public functions and methods of the bregopt modules with
wrappers that record one span per call: name, start, end, parent span and
cell id.  Spans stay in memory (compact arrays) until the run ends and are
then written out with save().  The tracer also keeps, per span name, the call
count, the inclusive time and the self time (duration minus the time its
child spans cover), and splits the traced sweep time into the exclusive
buckets of SHARE_BUCKETS.  Every wrapper is removed by restore(), which the
installed() context manager always calls.

Because driver and envelope import prox_step into their own namespaces, the
two bindings are wrapped separately and give the outer and the envelope
callers of the prox step.
"""

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

# Exclusive split of the sweep time.  A span's self time goes to the first
# bucket, in this order, that the span or one of its ancestors opens; so the
# prox solves the envelope triggers count as envelope time, and legendre calls
# count where they are made.
SHARE_BUCKETS = ("envelope", "metric_other", "inner_solve", "certificate",
                 "prox_step", "models", "driver_loop", "sweep_other")
_OPENS_BUCKET = {
    "envelope.stationarity": "envelope",
    "envelope.prox_point": "envelope",
    "driver.tstar_law": "metric_other",
    "driver.convex_gap": "metric_other",
    "subproblem.inner_solve": "inner_solve",
    "subproblem.certificate": "certificate",
    "subproblem.outer.prox_step": "prox_step",
    "subproblem.envelope.prox_step": "prox_step",
    "subproblem.solve_monotone_power": "prox_step",
    "models.sample": "models",
    "models.model_at": "models",
    "driver.run": "driver_loop",
    "driver.sweep": "sweep_other",
}
_NO_BUCKET = len(SHARE_BUCKETS)  # spans outside a sweep (set-up)

LEGENDRE_OPS = ("value", "gradient", "bregman", "hessian_apply")


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._bucket_of_name = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_cell = array("i")
        self._stack = []          # frames [span index, child time, bucket]
        self.cell_id = -1
        self.calls = []           # per name id
        self.total = []
        self.self_time = []
        self.bucket_time = [0.0] * (len(SHARE_BUCKETS) + 1)
        self.counts = Counter()   # outcome counters filled by the hooks
        self.patches = []         # (owner, attribute, original) installed

    # -- spans ----------------------------------------------------------------
    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self._bucket_of_name.append(
                SHARE_BUCKETS.index(_OPENS_BUCKET[name])
                if name in _OPENS_BUCKET else _NO_BUCKET)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def enter(self, nid):
        stack = self._stack
        if stack:
            parent_frame = stack[-1]
            parent = parent_frame[0]
            bucket = min(parent_frame[2], self._bucket_of_name[nid])
        else:
            parent = -1
            bucket = self._bucket_of_name[nid]
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_cell.append(self.cell_id)
        self.span_end.append(0.0)
        frame = [idx, 0.0, bucket]
        stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def exit(self, frame):
        t = time.perf_counter()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        idx, child, bucket = frame
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        self.bucket_time[bucket] += dur - child
        if stack:
            stack[-1][1] += dur

    @contextlib.contextmanager
    def span(self, name):
        frame = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(frame)

    # -- wrapping -------------------------------------------------------------
    def _wrapper(self, fn, name, after=None, new_cell=False):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            if new_cell:
                self.cell_id += 1
            frame = enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _method_wrapper(self, fn, op):
        # the span name depends on the instance: legendre.<kind>.<op>
        enter, exit_ = self.enter, self.exit
        ids = {}

        def wrapper(obj, *args, **kwargs):
            kind = obj.kind
            nid = ids.get(kind)
            if nid is None:
                nid = ids[kind] = self.name_id("legendre.%s.%s" % (kind, op))
            frame = enter(nid)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    def patch(self, owner, attr, wrapper_of):
        """Replace owner.attr (its own attribute) by wrapper_of(original)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper_of(original))
        self.patches.append((owner, attr, original))

    def restore(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------
    def stat(self, name):
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def stats_matching(self, predicate):
        calls = total = self_t = 0.0
        for nid, name in enumerate(self.names):
            if predicate(name):
                calls += self.calls[nid]
                total += self.total[nid]
                self_t += self.self_time[nid]
        return int(calls), total, self_t

    def shares(self):
        """Exclusive split of the traced sweep time, as fractions."""
        swept = sum(self.bucket_time[:len(SHARE_BUCKETS)])
        if swept <= 0.0:
            return {b: 0.0 for b in SHARE_BUCKETS}
        return {b: self.bucket_time[i] / swept
                for i, b in enumerate(SHARE_BUCKETS)}

    def save(self, path):
        """Write every span to an .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            cell=np.frombuffer(self.span_cell, dtype=np.int32))


def _count_method(tracer, caller):
    def after(res):
        tracer.counts["%s.method.%s" % (caller, res.method)] += 1
    return after


def _count_iterations(tracer):
    def after(res):
        tracer.counts["inner.%s.calls" % res.method] += 1
        tracer.counts["inner.%s.iterations" % res.method] += res.inner_iterations
    return after


def install(tracer, bregopt):
    """Wrap the layer boundaries of an imported bregopt package."""
    driver, envelope, subproblem = bregopt.driver, bregopt.envelope, bregopt.subproblem
    models, legendre, problems = bregopt.models, bregopt.legendre, bregopt.problems
    w = tracer._wrapper

    tracer.patch(problems, "instance_from_config",
                 lambda f: w(f, "problems.get_problem"))
    tracer.patch(problems.ProblemInstance, "exact_F",
                 lambda f: w(f, "problems.exact_F"))

    tracer.patch(driver, "run_for_regime",
                 lambda f: w(f, "driver.run", new_cell=True))
    tracer.patch(driver, "stationarity_over_tstar_law",
                 lambda f: w(f, "driver.tstar_law"))
    tracer.patch(driver, "convex_gap", lambda f: w(f, "driver.convex_gap"))
    tracer.patch(driver, "prox_step",
                 lambda f: w(f, "subproblem.outer.prox_step",
                             after=_count_method(tracer, "outer")))

    tracer.patch(envelope, "prox_step",
                 lambda f: w(f, "subproblem.envelope.prox_step",
                             after=_count_method(tracer, "envelope")))
    tracer.patch(envelope, "bregman_prox_point",
                 lambda f: w(f, "envelope.prox_point"))
    tracer.patch(envelope, "stationarity",
                 lambda f: w(f, "envelope.stationarity"))

    tracer.patch(subproblem, "inner_solve",
                 lambda f: w(f, "subproblem.inner_solve",
                             after=_count_iterations(tracer)))
    tracer.patch(subproblem, "check_three_point",
                 lambda f: w(f, "subproblem.certificate"))
    tracer.patch(subproblem, "solve_monotone_power",
                 lambda f: w(f, "subproblem.solve_monotone_power"))

    for cls in _subclasses(models.ModelOracle):
        for attr in ("sample", "model_at"):
            if attr in cls.__dict__:
                tracer.patch(cls, attr,
                             lambda f, a=attr: w(f, "models.%s" % a))

    for cls in [legendre.LegendreFunction] + _subclasses(legendre.LegendreFunction):
        for op in LEGENDRE_OPS:
            if op in cls.__dict__:
                tracer.patch(cls, op,
                             lambda f, o=op: tracer._method_wrapper(f, o))


def _subclasses(base):
    out = []
    for cls in base.__subclasses__():
        for c in [cls] + _subclasses(cls):
            if c not in out:
                out.append(c)
    return out


@contextlib.contextmanager
def installed(tracer, bregopt):
    """Install the wrappers for the duration of the block, then remove them."""
    try:
        install(tracer, bregopt)
        yield tracer
    finally:
        tracer.restore()
