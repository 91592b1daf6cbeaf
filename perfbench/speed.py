"""Host-speed sampling, so timings on a shared host can be compared.

The shared VM this benchmark was written on changes speed by up to 1.8x,
on time scales from a fraction of a second to tens of seconds, for every
process alike. A ``Speedometer`` runs a fixed reference computation from
a SIGALRM handler every REF_PERIOD_S, also in the middle of an op. An
interval's cost is its wall time, less the handler's time inside it,
divided by the mean reference time sampled during it: a figure in
reference units that the host's speed cancels out of. Multiplied by
REF_NOMINAL_S it reads as seconds on a host where the reference takes
that long (a quiet core of a 2-vCPU x86-64 VM).

The reference is pure Python in this file. It runs with the collector
off, and twice per sample with only the second run timed, so neither the
program's heap nor what it left in the caches changes the timed run: no
change to fockworks can make the reference faster or slower.
"""

import bisect
import gc
import signal
import statistics
import time

REF_ITERATIONS = 1000
REF_NOMINAL_S = 0.0015
REF_PERIOD_S = 0.1
REF_MIN_SAMPLES = 6  # an interval with fewer samples inside borrows its neighbours'


def reference():
    """Fixed work of the kind fockworks does: tuple-keyed dicts of complex numbers."""
    acc = {}
    for i in range(REF_ITERATIONS):
        key = (i % 7, i % 11, i % 13, i % 5)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    return sorted(acc.items())


class Speedometer:
    """Samples the reference's wall time every REF_PERIOD_S while entered."""

    def __init__(self):
        self.starts = []  # perf_counter() at the start of each sample
        self.spans = []  # each sample's wall time, both runs
        self.seconds = []  # each sample's timed run
        self.sampling = False

    def sample(self, *_):
        if self.sampling:  # a tick that fires during a slow sample is dropped
            return
        self.sampling = True
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        timed = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.seconds.append(end - timed)
        self.spans.append(end - start)
        self.starts.append(start)
        if enabled:
            gc.enable()
        self.sampling = False

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        while len(self.seconds) < REF_MIN_SAMPLES:  # a run shorter than its samples
            self.sample()

    def seconds_between(self, start, end):
        """Wall time of the main code in [start, end]: less the samples inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.spans[lo:hi])

    def cost(self, start, end):
        """Reference units of the main code's interval [start, end]: its
        ``seconds_between`` over the mean sample inside it, or of the
        REF_MIN_SAMPLES nearest it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        while hi - lo < REF_MIN_SAMPLES:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return self.seconds_between(start, end) / statistics.mean(self.seconds[lo:hi])
