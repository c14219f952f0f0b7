"""The host's speed, sampled while the benchmark runs, to scale its times.

The benchmark box is a shared VM. Other tenants slow this process by up to
1.7x, in phases that last from under a second to over twenty seconds, and
neither ``process_time`` nor the steal counter shows it. A fixed reference
loop slows down with the program, so the ratio of the two holds much
stiller than either: over four to six runs of one seed, raw ``run_s``
varied by 8-18% (standard deviation) and scaled ``run_s`` by 1.4-2.2%.

``Pace.start`` arms an interval timer. Every ``INTERVAL`` seconds the signal
handler runs the reference loop once and records its time. ``Pace.now`` is a
clock that leaves out the time spent in the handler, so timed blocks do not
include sampling. ``Pace.scaled`` turns a block measured on that clock into
seconds at reference speed: its duration times ``REF_S`` over the mean
reference time around it. ``REF_S`` is about the loop's fastest time on the
2-vCPU Xeon VM the benchmark was tuned on, so the scaled figures read as
seconds on that host when no one else is using it.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL = 0.04  # seconds between samples
WINDOW = 0.15  # a block is scaled by the samples within this far of it
MIN_SAMPLES = 5  # ... or by the nearest ones, if fewer fall inside
REF_S = 0.0006  # the reference loop's time on an idle core of the tuning host

_WIDE = [random.Random(0).getrandbits(4000) for _ in range(64)]  # as wide as the dual's rows


def reference() -> float:
    """Run the reference loop once and return its time in seconds.

    AND and popcount on 4,000-bit integers, then a 9,000-bit integer built
    six bits at a time and read back with shifts: the integer work that the
    homomorphism search and the graph6 decoder are made of. Of the loops
    tried, this one's slowdown under contention followed the workloads'
    most closely: one that added dict, set and sorting work left 1.4-1.7
    times the run-to-run spread, and random reads over 4 MB up to 2.8
    times. It allocates nothing that the garbage collector tracks.
    """
    t = perf_counter()
    wide = _WIDE
    acc = 0
    for i in range(500):
        acc += (wide[i & 63] & wide[(i * 7 + 3) & 63]).bit_count()
    h = 0
    for i in range(1500):
        h = h << 6 | (i & 63)
    for k in range(0, 9000, 30):
        acc += h >> k & 1
    return perf_counter() - t


def reference_median(n: int) -> float:
    return statistics.median(reference() for _ in range(n))


class Pace:
    def __init__(self):
        self.paused = 0.0  # seconds spent in the handler so far
        self.times: list[float] = []  # work-clock time of each sample
        self.refs: list[float] = []  # the reference loop's time at that sample

    def now(self) -> float:
        """perf_counter minus the time spent sampling."""
        while True:
            paused = self.paused
            t = perf_counter()
            if paused == self.paused:  # no sample ran between the two reads
                return t - paused

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        ref = reference()
        self.times.append(t - self.paused)
        self.refs.append(ref)
        self.paused += perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean reference time around the block [start, end], leaving out
        the slowest tenth of the samples (mostly the sampler itself being
        descheduled, which does not slow the block down)."""
        lo = bisect_left(self.times, start - WINDOW)
        hi = bisect_right(self.times, end + WINDOW)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        if lo == hi:
            raise RuntimeError("perfbench: no speed samples were taken")
        refs = sorted(self.refs[lo:hi])[:max(1, (hi - lo) * 9 // 10)]
        return sum(refs) / len(refs)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the block would take at reference speed."""
        return (end - start) * REF_S / self.speed(start, end)
