"""How fast this process's core runs, sampled while timed work runs on it.

The benchmark's host is a shared VM whose per-core speed drifts by up to
1.7x within a minute, with no CPU steal: the same batch takes 30 s or 46 s.
Over ten seeds, raw batch wall times spread 0.21-0.26 of their median
(quartile distance), too close to the largest bound allowed, 0.25.

A ``HostSpeed`` context arms an interval timer; every ``INTERVAL_S`` the
signal handler runs ``spin`` on the same thread and records how long it
took. The mean sample over a timed interval, divided by
``REFERENCE_SPIN_S``, is how much slower than the reference the core ran
then (``slowdown``). Timings are reported as wall time minus the handler's
own time, divided by that slowdown: seconds at the reference speed. The
same ten seeds then spread 0.03-0.05. Of the loops tried (interpreter
arithmetic, small-array calls, random access to a large list, slices of a
large array), small-array calls, which dominate the program, tracked its
slowdown best: a 1-product batch repeated 20 times varied 1.77x in wall
time and 1.12x after correction.

Run as ``python3 hostspeed.py`` to print the spin's current sample times.
"""
from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

INTERVAL_S = 0.1
SPIN_CALLS = 150
# spin's time on the 2-vCPU Xeon (Sapphire Rapids) VM the bounds were set
# on, which ranged 0.15-0.30 ms; only the scale of reported seconds depends on it
REFERENCE_SPIN_S = 2.0e-4


_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


def spin() -> float:
    """A fixed run of small-array calls, the kind that dominates the program."""
    vector = _MATRIX[0]
    for _ in range(SPIN_CALLS):
        vector = _MATRIX @ vector
    return float(vector[0])


@dataclass
class HostSpeed:
    """Samples ``spin`` every INTERVAL_S while the context is open."""

    samples: list = field(default_factory=list)  # (end time, spin seconds)
    spent: list = field(default_factory=list)    # (end time, handler seconds)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        spin()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent.append((t1, time.perf_counter() - t0))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean spin time within [start, end] over the reference spin time."""
        return statistics.fmean(dt for t, dt in self.samples if start <= t <= end) / REFERENCE_SPIN_S

    def handler_seconds(self, start: float, end: float) -> float:
        return sum(dt for t, dt in self.spent if start <= t <= end)

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end], less the handler's, at the reference speed."""
        return (end - start - self.handler_seconds(start, end)) / self.slowdown(start, end)


if __name__ == "__main__":
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        spin()
        times.append(time.perf_counter() - t0)
    q = statistics.quantiles(times, n=4)
    print(f"spin: min {min(times) * 1e3:.3f} ms, quartiles {', '.join(f'{x * 1e3:.3f}' for x in q)} ms")
