"""Host-speed calibration: report times as a steady host would read them.

The box this benchmark was defined on is a 2-vCPU VM on a shared host.
The speed of each vCPU steps between levels 30 % and more apart (a fixed
loop reads 5.5 ms, then 7.1 ms, then 10 ms), holding one level for
anything from 0.2 s to a minute, the two vCPUs out of step, and CPU time
equals wall time throughout.  Raw host seconds of two runs of the same
code therefore differ by more than any bound the benchmark could fix,
however many repeats a run holds.  What holds still is the ratio between
the program's time and the time of a fixed kernel run right beside it on
the same vCPU.

So the workload process pins itself (and, by inheritance, every worker
and server it starts) to one vCPU, every timed unit of work is bracketed
by the kernel below, and the unit's seconds are divided by
``mean(slowness before, slowness after)``: all end-to-end times are
*reference-host seconds*.  A unit is kept to about a second so that the
two samples describe it (replaying a recorded 7-minute speed trace, run
medians of scaled 1 s units spread 3 %, of raw ones 12 %, of scaled 4 s
units 11 %).  The kernel uses nothing of the program, only the
interpreter and NumPy, so no change to the program can move it.  Raw
seconds and the measured slowness stay beside every scaled value in the
ledger files, and the traced pass reports them as ``host.*``.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: one kernel repetition on the defining box at its fastest level
REFERENCE_S = 0.00545
#: a sample this fresh serves as the next unit's "before"
FRESH_S = 0.002

_TABLE = {i: i * 3 for i in range(64)}
_FLAT = np.arange(32 * 64 * 5 * 4, dtype=np.int64) % 7


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one vCPU (the last allowed:
    interrupts and the rest of the machine favour the first)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _kernel() -> float:
    """Half interpreter work (ints, lists, dicts), half small-array NumPy."""
    t0 = perf_counter()
    acc, ring = 0, [0] * 64
    for i in range(42_000):
        j = i & 63
        ring[j] = acc = (acc + _TABLE[j] * i) & 0xFFFF
    counts = np.zeros(64, dtype=np.int64)
    for _ in range(240):
        picked = _FLAT[np.nonzero(_FLAT[:4096] > 2)[0]] + 1
        np.add.at(counts, picked & 63, 1)
        acc += int(picked.sum())
    return perf_counter() - t0


def slowness() -> float:
    """Kernel time now over the reference (1.0 = the reference host).

    The least of three repetitions: a pre-emption can only add time.
    """
    return min(_kernel(), _kernel(), _kernel()) / REFERENCE_S


class Stopwatch:
    """Times units of work and scales each by the host speed around it."""

    def __init__(self) -> None:
        self._last: Optional[Tuple[float, float]] = None  # (when, slowness)
        #: every slowness sample taken, in order
        self.samples: List[float] = []

    def _sample(self) -> float:
        slow = slowness()
        self.samples.append(slow)
        self._last = (perf_counter(), slow)
        return slow

    def start(self) -> float:
        """Slowness just before a unit; hand it back to :meth:`stop`."""
        if self._last is not None and perf_counter() - self._last[0] < FRESH_S:
            return self._last[1]
        return self._sample()

    def stop(self, before: float, raw_s: float) -> float:
        """Reference-host seconds of a unit that took ``raw_s``."""
        return raw_s / ((before + self._sample()) / 2)

    def time(self, work: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``work``; (its result, raw seconds, reference-host seconds)."""
        before = self.start()
        t0 = perf_counter()
        out = work()
        raw = perf_counter() - t0
        return out, raw, self.stop(before, raw)
