"""Reference seconds: times scaled by a calibration kernel run next to them.

On a shared 2-core machine the speed drifts by tens of percent within
seconds and between minutes (other tenants share the cores), for the library
and for any other interpreter-bound work alike; it flips between a fast and a
slow state many times a second.  So a fixed kernel that does not touch
bregopt interrupts the timed work every period of wall time (Sampler), and
the benchmark's times are reported in reference seconds: measured seconds,
less the kernel's own time, scaled by REFERENCE_S over the kernel's mean
time.  The kernel took 0.7-1.4 ms on the 2-core machine the benchmark was
written on, so reference seconds stay close to that machine's seconds.

This module imports numpy only, so child.py can start a Sampler before it
imports bregopt and set-up is calibrated over the imports too.
"""

import signal
import time

import numpy as np

ITERATIONS = 200
REFERENCE_S = 0.001
PERIOD_S = 0.05         # during the timed sweep calls
SETUP_PERIOD_S = 0.02   # during set-up, which lasts well under a second


def kernel_s():
    """Seconds of a fixed kernel of small numpy calls and interpreter work."""
    x = np.array([0.3, -0.2])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(ITERATIONS):
        y = x * 0.5 + 0.1
        acc += float(np.dot(y, x)) + abs(i * 0.5 - 3.0)
        x = np.sqrt(np.abs(y) + 1.0)
    return time.perf_counter() - t0


def reference_seconds(seconds, runs, kernel_total_s):
    """Seconds (kernel time already taken out) in reference seconds, given
    the number and total time of the kernel runs made during them."""
    return seconds * REFERENCE_S * runs / kernel_total_s


class Sampler:
    """Runs kernel_s() every period_s of wall time, on SIGALRM.

    The runs interrupt the timed work at even intervals, so their mean
    follows the machine's speed over the same stretch of time as the work.
    One kernel run before each call sampled too little of it: with calls of
    0.05-5 s, the spread of steps_per_s over seeds was that of the raw times.
    """

    def __init__(self, period_s):
        self.period_s = period_s
        self.count = 0
        self.total = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        self.total += kernel_s()
        self.count += 1

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
