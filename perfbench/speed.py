"""Machine-speed sampling, to take a shared host's speed swings out of timings.

On a shared two-core host the same work runs at one of two speeds, about
1.65x apart, that switch every few tens of seconds as other tenants come and
go.  A median inside one run cannot average that away: over ten runs the
wall-time metrics spread by up to 28%.  So while units run, a SIGALRM every
INTERVAL_S runs a fixed Python/numpy probe of 1-2 ms and records how long it
took.  Reference seconds (``ref_s``) convert a wall-time interval into the
time it would have taken at the reference speed, at which the probe takes
REF_PROBE_S:

    ref_s = wall seconds * REF_PROBE_S * mean(1 / probe time)

over the probes taken during the interval or within WINDOW_S of it.  Besides
the slow switches, the speed also varies from one tenth of a second to the
next, so the probes are dense and the window narrow: over ten runs, the
median solve time of the nonlinear table spread by 17% with probes every
0.2 s and a 1 s window, and by 9% with probes every 0.05 s and a 0.05 s
window.  The probe runs in the main thread between bytecodes and adds about
2.5% to the measured work.  Wall times are reported next to the reference
times.
"""

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
WINDOW_S = 0.05
PROBE_STEPS = 400
# probe time at the reference speed: the faster of the two speeds of the
# two-core host on which the baseline was recorded
REF_PROBE_S = 1.25e-3

_A = np.arange(50.0)


def probe():
    """Seconds taken by a fixed loop of small numpy calls, like the solver's."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(PROBE_STEPS):
        acc += float(np.sum(_A * i))
    return perf_counter() - t0


def to_ref(seconds, probe_times):
    """Reference seconds of `seconds` of wall time run at the probed speeds."""
    return seconds * REF_PROBE_S * float(np.mean(1.0 / np.asarray(probe_times)))


class SpeedSampler:
    """Probes the machine's speed in the background while active."""

    def __init__(self):
        self.times = []
        self.probes = []
        self._old = None

    def _on_alarm(self, signum, frame):
        t = perf_counter()
        self.probes.append(probe())
        self.times.append(t)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.probes:  # shorter than one interval
            self.times.append(perf_counter())
            self.probes.append(probe())
        self._t = np.asarray(self.times)
        self._p = np.asarray(self.probes)
        return False

    def ref_seconds(self, start, seconds):
        """Reference-speed seconds of the wall interval [start, start + seconds]."""
        near = (self._t >= start - WINDOW_S) & (self._t <= start + seconds + WINDOW_S)
        return to_ref(seconds, self._p[near] if near.any() else self._p)

    def summary_ms(self):
        p = 1e3 * np.asarray(self.probes)
        return {"n": int(p.size), "median": round(float(np.median(p)), 4),
                "min": round(float(p.min()), 4), "max": round(float(p.max()), 4)}
