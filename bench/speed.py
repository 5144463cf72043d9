"""How fast this core runs pure Python right now.

The benchmark's host is shared: a fixed piece of Python work measured on one
idle core varies by half between one second and the next (the same solve
took from 0.14 s to 0.22 s in one process), and by a third between runs a few
minutes apart.  So every timed solve and set-up probe also times a fixed
reference workload, before, after and (through SIGPROF) every 50 ms of CPU
time during it, and its wall time is restated at the reference's nominal
speed:

    stated time = measured time * NOMINAL_S / mean reference time

A change to ordfair cannot move the reference, which shares no code with it.
The raw wall times are printed beside the stated ones.
"""

from __future__ import annotations

import signal
import time

# The reference's time (fastest of three calls) on an idle core of the
# machine the seed commit was measured on: Python 3.11, 2-core x86-64 VM.
NOMINAL_S = 0.0002
SAMPLE_EVERY_S = 0.05


_KEYS = frozenset(range(0, 5000, 3))


def reference_work() -> int:
    """Fixed pure-Python work: integer arithmetic, branches and set lookups.
    It makes no container objects, so sampling it during a solve does not
    move the cyclic collector's schedule (and the solve's memory peak)."""
    hits = 0
    for i in range(1500):
        if (i * 7 + (i >> 2)) % 5000 in _KEYS:
            hits += 1
    return hits


class Speedometer:
    def __init__(self) -> None:
        self.samples: list[float] = []
        # Seconds spent sampling, to take out of the wall time around it.
        self.busy = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t)
        self.samples.append(best)
        self.busy += time.perf_counter() - start

    def _on_signal(self, signum, frame) -> None:
        self.sample()

    def stated(self, seconds: float) -> float:
        """`seconds` restated at nominal speed, from the samples so far."""
        return seconds * NOMINAL_S * len(self.samples) / sum(self.samples)

    def measure(self, fn, *args):
        """Run fn(*args) with samples around and during it; return its
        result, its wall time without the sampling, and its stated time."""
        self.samples.clear()
        self.sample()
        busy = self.busy
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            wall = time.perf_counter() - start - (self.busy - busy)
            signal.signal(signal.SIGPROF, previous)
        self.sample()
        return out, wall, self.stated(wall)
