"""The machine's current speed, from a fixed calibration loop.

The reference machine's CPU speed drifts: the same pure-Python loop takes
from 1× to 2× its usual time for seconds or minutes at a stretch, and its
CPU time equals its wall time, so the drift is in the CPU and not in the
scheduler.  A plain wall-clock time therefore says as much about the
machine's neighbours as about the program.

So the processes that time the program also time ``slice_ms``, a fixed
loop of interpreter work (tuple keys, dict probes, string formatting)
that does not touch the program, between the operations they measure.
Each timed interval is scaled by ``REFERENCE_MS`` over the median of the
slices run nearest to it: it reads as the time the same work would take
on the reference machine while its loop runs at ``REFERENCE_MS``.  A
change to the program moves a scaled time exactly as it moves the raw
one; a change in the machine's speed moves both the raw time and the
slices beside it, and cancels.  The scale is local because the machine
is often slow for only part of a run.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence

#: median time of one ``slice_ms`` loop on the reference machine
REFERENCE_MS = 1.0
#: iterations of one slice, about REFERENCE_MS there
SLICE_LOOPS = 3000
#: slices on each side of an interval whose median gives its scale
NEIGHBOURS = 2
#: seconds between slices during a run
EVERY_S = 0.05
#: slices run right after a set-up, for its scale
SETUP_SLICES = 30


def slice_ms() -> float:
    """Run one calibration slice and return its wall time in ms."""
    table: dict = {}
    began = time.perf_counter()
    for i in range(SLICE_LOOPS):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + len(str(i))
    return (time.perf_counter() - began) * 1e3


def factor(slices: Sequence[float]) -> float:
    """The scale for times measured beside ``slices``: reference speed
    over the speed they show."""
    return REFERENCE_MS / statistics.median(slices)


def setup_scale() -> float:
    """The scale for a set-up that just ended in this process: a set-up
    is too short for slices run elsewhere to tell its speed."""
    return factor([slice_ms() for _ in range(SETUP_SLICES)])


class Pacer:
    """Runs a calibration slice between operations, at most once every
    ``EVERY_S`` seconds, so slices sample the whole run at a small cost."""

    def __init__(self) -> None:
        #: perf_counter at each slice's start, and its ms, in time order
        self.times: List[float] = []
        self.slices: List[float] = []
        self._next = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.times.append(now)
            self.slices.append(slice_ms())
            self._next = now + EVERY_S

    def at(self, when: float) -> float:
        """The scale at time ``when``: from the ``NEIGHBOURS`` slices
        before it and as many after it."""
        index = bisect.bisect(self.times, when)
        low, high = max(0, index - NEIGHBOURS), index + NEIGHBOURS
        return factor(self.slices[low:high])
