"""The host's speed, read with a fixed reference kernel.

The benchmark's vCPUs are shared with other tenants, and the speed of
pure-Python work on them drifts by a quarter or more within minutes: a
fixed loop ran from 460 to 840 rounds a second on one vCPU within two
minutes, and the two vCPUs differed by up to 1.7x at the same moment.
No run length averages that away: the loop's speed, averaged over 20,
30 or 60 s windows, spread 0.2-0.25 between windows. So a workload
reads the speed of one fixed kernel at points where the program is
idle, on the CPU the program runs on, and ``run.py`` scales each time
by ``mean rate / REFERENCE_RATE``: a time reads as what the program
would take on a host where the kernel runs at :data:`REFERENCE_RATE`.
A program that gets slower reads slower by the same share; the host
getting slower moves both and cancels. The raw times are printed too.
An operation's latency is scaled by the readings within
:data:`LOCAL_WINDOW_S` of it, so a run that straddles a slow spell of
the host does not widen its latency distribution; a rate, by all of the
run's readings.

Readings are taken only while the program is idle. Taken while it
computes, they would slow with its load, and a program that got slower
would read faster. A workload whose times do not follow the kernel
(``scan``, see ``perfbench/workloads.py``) takes no readings.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right

#: kernel rounds per second on the reference host, about this
#: benchmark's 2-vCPU host at its median speed; only the scale of the
#: reported times depends on it.
REFERENCE_RATE = 15_000.0

#: one reading: long enough that one preemption of the vCPU
#: does not decide it, short enough to fit the program's idle gaps.
SLICE_S = 0.01

#: an operation is scaled by the readings this close to it in time: a
#: handful of readings, and shorter than the host's slow spells.
LOCAL_WINDOW_S = 1.0


def kernel_rate(seconds: float = SLICE_S) -> float:
    """Rounds per second of the reference kernel on the calling thread:
    string keys, dict updates and a sort, the kind of work the
    interpreter does for the program."""
    rounds = 0
    started = time.perf_counter()
    end = started + seconds
    while True:
        table: dict[str, int] = {}
        for i in range(200):
            key = str(i)
            table[key] = table.get(key, 0) + i * i
        sorted(table.values())
        rounds += 1
        now = time.perf_counter()
        if now >= end:
            return rounds / (now - started)


class HostMeter:
    """Readings of the kernel on the calling thread. The workloads that
    read the host run pinned to one CPU, so a reading is of the CPU the
    program runs on."""

    def __init__(self) -> None:
        self.rates: list[float] = []
        #: ``time.perf_counter()`` at the end of each reading
        self.stamps: list[float] = []
        self.busy_s = 0.0

    def read(self, times: int = 1) -> None:
        """Take ``times`` readings."""
        started = time.perf_counter()
        for _ in range(times):
            self.rates.append(kernel_rate())
            self.stamps.append(time.perf_counter())
        self.busy_s += time.perf_counter() - started

    def factor(self) -> float:
        """Mean rate over the reference rate: multiply a time by it (and
        divide a rate) to scale it to the reference host."""
        if not self.rates:
            raise ValueError("no host readings")
        return sum(self.rates) / len(self.rates) / REFERENCE_RATE

    def local_factors(self, times, window: float = LOCAL_WINDOW_S) -> array:
        """The factor of each of ``times`` (``perf_counter`` seconds):
        the mean of the readings within ``window`` of it, or the
        nearest reading when none is that close."""
        if not self.rates:
            raise ValueError("no host readings")
        stamps = self.stamps
        prefix = [0.0]
        for rate in self.rates:
            prefix.append(prefix[-1] + rate)
        factors = array("d")
        for at in times:
            low = bisect_left(stamps, at - window)
            high = bisect_right(stamps, at + window)
            if low == high:  # between two readings, or past either end
                low = min(low, len(stamps) - 1)
                if low and at - stamps[low - 1] < stamps[low] - at:
                    low -= 1
                high = low + 1
            factors.append((prefix[high] - prefix[low]) / (high - low) / REFERENCE_RATE)
        return factors
