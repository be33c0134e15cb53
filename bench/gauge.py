"""A machine-speed gauge that rescales measured times to nominal speed.

On a shared machine the interpreter's speed drifts by tens of percent, at
times by a factor of two, over seconds to minutes; CPU time drifts with
wall time, so the cause is contention for the core, not descheduling.
Between measurements the benchmark times a fixed pure-Python kernel and
expresses every time at the speed at which that kernel takes
``REF_KERNEL_S``.  The kernel does the same kind of work as the program
(dicts, sets, tuples, integers), so a slowdown of the machine moves both
alike and cancels, while a change to the program moves only the program.

This module imports nothing from ``repro``, so it can time the imports.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Dict, List, Tuple

#: The kernel's duration at nominal speed: its median on an idle 2-vCPU
#: x86-64 virtual machine running CPython 3.11.
REF_KERNEL_S = 0.0043


#: Rounds of the kernel that take REF_KERNEL_S at nominal speed.
REF_ROUNDS = 20000


def kernel(rounds: int = REF_ROUNDS) -> int:
    """A fixed slice of dict, set, tuple and integer work, about 4 ms."""
    table: Dict[int, int] = {}
    odd = set()
    acc = 0
    for i in range(rounds):
        k = (i * 7919) % 4099
        table[k] = table.get(k, 0) + 1
        if k & 1:
            odd.add(k)
        acc += len((k, i, acc & 255))
    return acc + len(odd)


class Gauge:
    """Kernel timings and the rescaling they imply, for one thread's work.

    ``add`` buffers timed values until ``window_s`` of them has accumulated;
    ``flush`` then times the kernel and multiplies every buffered value by
    ``REF_KERNEL_S`` over the mean of the kernel times before and after.
    """

    window_s = 0.05

    def __init__(self):
        #: every kernel time seen, over REF_KERNEL_S (> 1: a slow machine)
        self.slowdowns: List[float] = []
        self.last = self.probe()
        self.pending: List[Tuple[List[float], float]] = []
        self.pending_s = 0.0

    def probe(self, repeats: int = 1) -> float:
        """The kernel's median time over ``repeats`` runs."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        sample = statistics.median(times)
        self.slowdowns.append(sample / REF_KERNEL_S)
        return sample

    @staticmethod
    def factor(before: float, after: float) -> float:
        """The rescaling for work timed between two kernel probes."""
        return 2 * REF_KERNEL_S / (before + after)

    def add(self, sink: List[float], raw: float) -> None:
        self.pending.append((sink, raw))
        self.pending_s += raw
        if self.pending_s >= self.window_s:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = self.probe()
        factor = self.factor(self.last, now)
        self.last = now
        for sink, raw in self.pending:
            sink.append(raw * factor)
        self.pending, self.pending_s = [], 0.0

    def slowdown(self) -> float:
        """The median slowdown seen so far."""
        return statistics.median(self.slowdowns)


class Timeline:
    """Slowdown samples over time, for work that runs on several threads.

    ``sample`` times a quarter-size kernel in the calling thread's CPU
    time: contention for the core slows that clock too, while waiting for
    the GIL does not count, so it can run on an event-loop thread while
    executor threads work.  The machine's speed flips on a sub-second
    scale, so callers sample every 100 ms or so.
    """

    rounds = REF_ROUNDS // 4

    def __init__(self):
        self.times: List[float] = []
        self.slowdowns: List[float] = []

    def sample(self, now: float) -> float:
        start = time.thread_time()
        kernel(self.rounds)
        slowdown = (time.thread_time() - start) / (REF_KERNEL_S * self.rounds / REF_ROUNDS)
        self.times.append(now)
        self.slowdowns.append(slowdown)
        return slowdown

    def mean(self, start: float, end: float) -> float:
        """Mean slowdown of the samples in [start, end], else the latest
        sample before ``end``, else the first one."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return statistics.fmean(self.slowdowns[lo:hi])
        return self.slowdowns[max(hi - 1, 0)]

    def nominal(self, start: float, end: float) -> float:
        """The span [start, end] in nominal seconds: each stretch between
        samples divided by the slowdown measured at its start."""
        total, t = 0.0, start
        for i in range(bisect.bisect_right(self.times, start), bisect.bisect_left(self.times, end)):
            total += (self.times[i] - t) / self.mean(t, t)
            t = self.times[i]
        return total + (end - t) / self.mean(t, t)
