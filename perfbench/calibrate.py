"""Host-speed calibration for the end-to-end metrics.

The machines this benchmark runs on are shared, and their speed drifts. On
the 2-vCPU sandbox it was defined on, the same single-threaded code ran
twice as fast at one moment as a minute later. CPU time tracked wall time,
so this was not time lost to other processes, and it persisted for tens of
seconds to minutes, so neither longer runs nor medians removed it.

The correction, for workloads that run in one process: a fixed kernel of
numpy gathers is timed before every pass, about once a second between
entries, and after the last pass, outside every timed region. The run's
median kernel time over REFERENCE_S is its slowness factor. End-to-end
times are divided by it and rates multiplied by it, so that they read as at
the reference speed. The kernel calls no latsum code, so no change to
latsum can move it. The stamp line carries the factor and the figures as
measured.

In a 200-second trial here, three-second medians of a sieve round, of five
abelian-group analyses and of one 390-element Group.validate spread by 38%,
38% and 24% (interquartile range over median) as measured. Divided by this
kernel's time they spread by 3%, 7% and 7%. A pure-Python kernel did about
as well on that trial but reacted too strongly on another. Neither tracks a
pass that keeps both cores busy, since the kernel runs on one.
"""

from __future__ import annotations

import statistics
import time

# kernel seconds at the reference speed: about its median on the sandbox above
REFERENCE_S = 0.0125
SAMPLE_EVERY_S = 1.0


def kernel_seconds() -> float:
    """Best of three timed runs of the kernel."""
    # imported here, not at module level, so that numpy's import stays part
    # of latsum's import in the set-up time
    import numpy as np

    # a fixed scatter of 0..255: the high byte of i * 40503 mod 2**16. It
    # costs the same as a random one and needs no numpy.random, which would
    # add to the peak RSS the benchmark reports.
    gather = (np.arange(256 * 256, dtype=np.int64) * 40503 % 65536 >> 8).reshape(256, 256)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for a in range(0, 256, 4):
            (gather[gather[a]] == gather[a][gather]).all()
        best = min(best, time.perf_counter() - start)
    return best


def warm_kernel_seconds() -> float:
    """kernel_seconds() after one untimed call: a process's first calls run slow."""
    kernel_seconds()
    return kernel_seconds()


class Speedometer:
    """Kernel timings taken through one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0
        kernel_seconds()  # warm-up, discarded

    def sample(self) -> float:
        """Time the kernel now; returns the seconds this took."""
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.last = time.perf_counter()
        return self.last - start

    def between_entries(self) -> float:
        """Sample when the last sample is older than SAMPLE_EVERY_S; returns the seconds spent."""
        if time.perf_counter() - self.last < SAMPLE_EVERY_S:
            return 0.0
        return self.sample()

    def factor(self) -> float:
        """The run's median kernel time over REFERENCE_S: above 1 on a slow host."""
        return statistics.median(self.samples) / REFERENCE_S


class Uncalibrated:
    """Stands in for a Speedometer where the kernel does not track the
    workload: takes no samples and reports a factor of 1."""

    samples: tuple[float, ...] = ()

    def sample(self) -> float:
        return 0.0

    def between_entries(self) -> float:
        return 0.0

    def factor(self) -> float:
        return 1.0
