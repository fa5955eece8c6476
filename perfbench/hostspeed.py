"""The host's speed, sampled by a fixed probe computation.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over seconds to minutes; on a 2-vCPU host the raw medians of ten seeded
runs spread by 30-58% (IQR over median), more than any usable bound.  So
the host's speed is sampled around every timed interval: ``probe`` is a
fixed computation of about 2.5 ms (numpy on small arrays plus a dict loop,
no sc_control code), and a time is reported as ``raw * PROBE_REF_S / probe``
with ``probe`` the mean probe time: the time the interval would take with
the host running the probe in PROBE_REF_S.  A change to sc_control moves
the timed interval and not the probe, so it moves the scaled time by the
same factor as the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 0.0025
SAMPLE_EVERY_S = 0.2


def probe() -> float:
    """Seconds the host takes for a fixed computation that uses no sc_control code."""
    t0 = time.perf_counter()
    x = np.linspace(0.1, 0.9, 500)
    acc = 0.0
    for i in range(300):
        x = np.sqrt(x * 1.0001 + 0.5) - 0.2
        acc += float(x[i % 500])
    counts = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def scaled(seconds: float, probes: list) -> float:
    return seconds * PROBE_REF_S / statistics.mean(probes)


class HostMeter:
    """Times one execution and samples the host's speed around and during it.

    Three probes run just before and three just after; with ``sample_inside``
    a SIGALRM handler also runs one every SAMPLE_EVERY_S seconds during the
    execution, and its time is taken out of the execution's time.
    """

    def __init__(self, sample_inside: bool = True):
        self.sample_inside = sample_inside

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.inside += time.perf_counter() - t0

    def __enter__(self):
        self.samples = [probe() for _ in range(3)]
        self.inside = 0.0
        if self.sample_inside:
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._handler)
        self.seconds = t1 - self.t0 - self.inside
        self.samples += [probe() for _ in range(3)]
        self.scaled = scaled(self.seconds, self.samples)
        return False
