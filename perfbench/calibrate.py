"""A fixed reference workload that measures how fast the machine is now.

The benchmark runs on shared machines whose speed drifts by tens of
percent and switches between slow and fast spells that last minutes: a
constant stdlib loop timed in 2-second buckets varied from 15.8 to
24.6 ms, and ten sequential runs of one workload split into a group near
0.7 s and a group near 0.9 s per round.  More rounds per run cannot
remove a drift that spans runs, so each run also measures the machine.

After every operation the run owes the reference a share of the
operation's time; whenever the debt reaches one kernel call, it runs the
kernel.  Samples are thus spread over the run in proportion to where its
time goes, and the run's factor is ``NOMINAL_S`` over the kernel's mean
time per call.  Reported times are measured times multiplied by it.  A
slow spell stretches the program and the kernel alike, so the product
holds still; a change to omnalg moves only the program, so it shows in
full.  The kernel's own time is taken out of the round it ran in.

The kernel uses only the standard library, no omnalg code, and runs with
the garbage collector off, so the program's heap cannot change its cost.
It mixes what omnalg spends its time on: Fraction arithmetic, tuple-keyed
dict updates, small-object churn and float math.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from time import perf_counter, process_time

# kernel seconds per call, wall and CPU, at the nominal speed: the median
# measured on the 2-vCPU machine the benchmark was defined on (Python
# 3.11.7); only the scale of the reported figures depends on it
NOMINAL_S = 0.00112


def kernel() -> int:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(1, i % 3 + 1)
        key = (i % 17, (i * 7) % 13)
        table[key] = table.get(key, 0) + i
    x = 0.0
    for i in range(1, 1500):
        x += math.sqrt(i) * ((i % 3) - 1)
    return len(table) + acc.denominator + int(x)


class Reference:
    """Kernel samples taken in proportion to the time the run spends."""

    def __init__(self, share: float = 0.1) -> None:
        self.share = share
        self.calls = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._debt = 0.0

    def owe(self, spent_s: float) -> None:
        """Add ``share`` of ``spent_s`` to the debt; pay it in whole calls."""
        self._debt += self.share * spent_s
        if self._debt < NOMINAL_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            start, cpu = perf_counter(), process_time()
            while self._debt >= NOMINAL_S:
                kernel()
                self.calls += 1
                self._debt -= NOMINAL_S
            self.wall_s += perf_counter() - start
            self.cpu_s += process_time() - cpu
        finally:
            if enabled:
                gc.enable()

    def wall_factor(self) -> float:
        """Multiply a measured wall time by this to get nominal seconds."""
        return NOMINAL_S * self.calls / self.wall_s

    def cpu_factor(self) -> float:
        return NOMINAL_S * self.calls / self.cpu_s
