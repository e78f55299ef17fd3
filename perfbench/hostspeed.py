"""Host-speed reference: a fixed loop timed around and during each operation.

The benchmark runs on a shared host whose speed drifts by a third or more
over minutes, and at times flips between a fast and a slow state every few
seconds, because other tenants contend for the same cores, caches and
memory. A fixed loop that does the pipeline's most common kind of work,
parsing text rows into Python float lists and numpy arrays, slows down with
it, and so do the pipeline's parsing and training. The loop is timed right
before and right after each operation, and once a second during it, and
every end-to-end time is reported as

    measured seconds * REFERENCE_S / mean of those loop times

that is, in seconds at the host speed at which the loop takes REFERENCE_S.
The loop is part of the benchmark, not of fmlp_rul, so a change to the
program does not change it. Raw times are kept next to the scaled ones in
each run's record.
"""

import random
import signal
import statistics
import time

import numpy as np

# Median time of one run of the loop on the reference machine (2-core shared
# x86-64 VM, Python 3.11, numpy 2.4.6, one BLAS thread).
REFERENCE_S = 0.1

# Seconds between samples taken during an operation.
PERIOD_S = 1.0


class Reference:
    """The loop and its fixed input, built on first use."""

    def __init__(self):
        self.lines = None

    def run(self):
        """Parse the lines into one float array per unit."""
        groups = {}
        for line in self.lines:
            parts = line.split()
            groups.setdefault(parts[0], []).append([float(x) for x in parts[1:]])
        return sum(float(np.array(rows).sum()) for rows in groups.values())

    def sample(self, reps=3):
        """Median seconds of ``reps`` runs; one run alone sometimes reads
        2.5 times its usual time."""
        if self.lines is None:
            # 12,000 lines in the C-MAPSS layout: 50 units, 26 fields each.
            rng = random.Random(0)
            self.lines = [
                f"{i // 240 + 1} {i % 240 + 1} "
                + " ".join(f"{rng.uniform(-100.0, 1000.0):.4f}" for _ in range(24))
                for i in range(12000)
            ]
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class Sampler:
    """While entered, runs the loop once every PERIOD_S from a SIGALRM
    handler. ``samples`` holds the loop times and ``paused`` the seconds the
    handler took, which the caller takes out of the operation's time. A
    disabled sampler (traced children, whose spans would count the handler)
    takes no samples."""

    def __init__(self, reference, enabled=True):
        self.reference = reference
        self.enabled = enabled
        self.samples = []
        self.paused = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.reference.sample(reps=1))
        self.paused += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.paused = [], 0.0
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def scale(seconds, refs):
    """``seconds`` at reference speed, from the loop times around and during it."""
    return seconds * REFERENCE_S / statistics.fmean(refs)
