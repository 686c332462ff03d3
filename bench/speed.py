"""Host speed, read while the program runs, to rescale the times it takes.

The reference host is a shared 2-vCPU microVM whose speed switches between
regimes up to about 1.9x apart that last from seconds to minutes.  The
contention comes from outside the VM: process CPU time slows as much as wall
time does, and the load average does not show it.  A raw time is therefore
not comparable between two runs, however long each run is.

``Meter.timing`` times a fixed loop of exact rational arithmetic, the kind of
work dysonct does, once before a block and then every ``INTERVAL_S`` seconds
from a SIGALRM handler while the block runs.  The block's wall time, less the
loop's own time, is ``wall_s``; rescaled to the speed at which one pass of the
loop takes ``REFERENCE_S`` it is ``ref_s``:

    ref_s = wall_s * REFERENCE_S * mean(1 / loop time), over the block's loops

The mean of the loop's speed, not of its time, weighs a slow spell and a fast
one by how long each lasted, and a pass that was preempted counts for little.

A change that makes the program do more work raises ``ref_s`` as it raises
``wall_s``; a slow spell of the host raises ``wall_s`` and the loop time
together and leaves ``ref_s`` about where it was.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence

# seconds one pass of the loop takes at the reference speed, about the middle
# of the reference host's range (0.6 ms in its fast regime, 1.5 ms in its slow)
REFERENCE_S = 0.001
INTERVAL_S = 0.1


def loop_seconds() -> float:
    """Seconds of one pass of the fixed loop, with the garbage collector off,
    so that a collection of the program's objects is not counted."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(1, 150):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def rescale(seconds: float, loops: Sequence[float]) -> float:
    """``seconds`` at the reference speed, given loop times taken meanwhile."""
    return seconds * REFERENCE_S * statistics.fmean(1 / loop for loop in loops)


@dataclass
class Reading:
    wall_s: float = 0.0
    ref_s: float = 0.0


class Meter:
    """Times blocks of the program against the fixed loop; ``loops`` keeps
    every loop time taken, for the run record."""

    def __init__(self):
        self.loops: List[float] = []

    @contextlib.contextmanager
    def timing(self) -> Iterator[Reading]:
        """Time the block; the Reading is filled in when it ends.  Uses SIGALRM,
        so it runs in the main thread only."""
        reading = Reading()
        loops = [loop_seconds()]
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: loops.append(loop_seconds()))
        started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - started
            signal.signal(signal.SIGALRM, previous)
            self.loops.extend(loops)
            reading.wall_s = elapsed - sum(loops[1:])
            reading.ref_s = rescale(reading.wall_s, loops)
