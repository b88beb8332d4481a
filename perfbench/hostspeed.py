"""A clock in reference seconds: host time corrected for the host's speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to a factor of two over seconds and minutes as neighbours load it. A
plain host clock then measures the neighbours as much as the program. So
every duration the benchmark reports is read from :data:`METER`, which
interleaves a fixed reference workload (pure-Python random accesses over
a working set of about 20 MB, with a little numpy; it runs none of the
program's code) with the program:

* every ``INTERVAL_S`` of host time, a ``SIGALRM`` handler runs one
  reference chunk on the main thread and times it;
* the host time between two chunks is scaled by
  ``(NOMINAL_CHUNK_S / median(last few chunk times)) ** ELASTICITY``, so
  on a host that runs the chunk in ``NOMINAL_CHUNK_S`` a reference second
  is a host second, and on one running the chunk at half that speed it
  is about two;
* the chunks' own time is left out, so a span that a chunk interrupts
  (a single record's hand-off, say) is not lengthened by it.

A slower program still reads slower: the chunk does not run any of the
program's code. The correction is only as good as the chunk's likeness
to the program's mix of interpreter and numpy work; the speed drift it
cannot remove shows as the runs' spread.

Forked children (the sweep's pool workers) inherit the handler but not
the timer; :meth:`HostSpeedMeter.now` re-arms the timer the first time a
new process reads the clock, so each process corrects for its own core.
While they work, the parent pauses its own ticking and scales its host
time by the children's chunk times (:func:`scale_for`).
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import signal
import statistics
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Iterator, List, Optional, Tuple

import numpy as np

#: Host seconds between two reference chunks.
INTERVAL_S = 0.05
#: Chunk time of the nominal host, which makes a reference second a host
#: second: about the median of chunks interleaved with the workloads on
#: a 2-core Xeon guest at 2.0 GHz. (A chunk run back to back with others
#: is about twice as fast: interleaved, it finds its working set evicted
#: by the program, as the program finds its own after a chunk.)
NOMINAL_CHUNK_S = 0.0026
#: How much the workloads' host time grows per unit growth of the chunk
#: time, on a log scale: fitted on repetitions of each unit timed between
#: chunks over minutes of drift (1.05 for f7_1k_dophy, 1.14 for
#: f7_5k_sparse, 1.26 for stream_replay; one value for all). The program
#: slows a little more than the memory-bound chunk when the host is loaded.
ELASTICITY = 1.15
#: How many of the latest chunk times the speed estimate takes the median of.
WINDOW = 5
#: Random accesses in one chunk.
CHUNK_OPS = 600
#: Objects (and dict entries) in the chunk's working set: like the
#: program's, far larger than the core's private caches, so memory
#: contention slows the chunk as it slows the program.
WORLD_SIZE = 1 << 17


class _Slot:
    __slots__ = ("value", "count")

    def __init__(self, i: int) -> None:
        self.value = float(i)
        self.count = 0


class _World:
    """The chunk's working set (about 20 MB), built once per process."""

    def __init__(self) -> None:
        self.slots = [_Slot(i) for i in range(WORLD_SIZE)]
        self.table = {i * 7919: i for i in range(WORLD_SIZE)}
        self.array = np.arange(2 * WORLD_SIZE, dtype=float)


def reference_chunk(world: _World) -> float:
    """A fixed amount of simulator-like work over a large working set:
    random object and dict accesses, float updates, a bounded heap and a
    small numpy gather."""
    rng = random.Random(1)
    slots, table = world.slots, world.table
    heap: List[Tuple[float, int]] = []
    acc = 0.0
    for k in range(CHUNK_OPS):
        slot = slots[rng.randrange(WORLD_SIZE)]
        slot.value = 0.9 * slot.value + 0.1 * rng.random()
        slot.count += 1
        acc += table.get(rng.randrange(WORLD_SIZE) * 7919, 0)
        heapq.heappush(heap, (slot.value, k))
        if len(heap) > 16:
            heapq.heappop(heap)
    index = np.fromiter(
        (rng.randrange(2 * WORLD_SIZE) for _ in range(64)), dtype=np.int64, count=64
    )
    return acc + float(world.array[index].sum())


def scale_for(chunk_s: float) -> float:
    """Reference seconds per host second on a host that runs the chunk in
    ``chunk_s``."""
    return (NOMINAL_CHUNK_S / chunk_s) ** ELASTICITY


class HostSpeedMeter:
    """Reference-second clock; see the module docstring."""

    def __init__(self) -> None:
        self._pid: Optional[int] = None
        # (reference seconds at mark, host time of mark, scale), swapped as
        # one tuple so now() never mixes two ticks' values.
        self._state: Tuple[float, float, float] = (0.0, time.perf_counter(), 1.0)
        self._recent: Deque[float] = deque(maxlen=WINDOW)
        self._world: Optional[_World] = None
        #: Every chunk time this process measured, for the run's notes.
        self.chunks: List[float] = []

    def now(self) -> float:
        if self._pid is not None and self._pid != os.getpid():
            self._arm()
        ref, mark, scale = self._state
        return ref + (time.perf_counter() - mark) * scale

    def _chunk(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_chunk(self._world)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def _tick(self, signum: int = 0, frame: Any = None) -> None:
        ref, mark, scale = self._state
        ref += (time.perf_counter() - mark) * scale
        took = self._chunk()
        self._recent.append(took)
        self.chunks.append(took)
        self._state = (ref, time.perf_counter(), scale_for(statistics.median(self._recent)))

    def _arm(self) -> None:
        """Start (or, in a forked child, restart) ticking in this process."""
        self._pid = os.getpid()
        if self._world is None:
            self._world = _World()
        self._recent.clear()
        self.chunks = []
        ref = self._state[0]
        self._state = (ref, time.perf_counter(), self._state[2])
        for _ in range(WINDOW):
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    @contextmanager
    def running(self) -> Iterator["HostSpeedMeter"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._arm()
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._pid = None
            # Outside running(), now() is a plain host clock.
            self._state = (self.now(), time.perf_counter(), 1.0)

    @contextmanager
    def paused(self) -> Iterator["HostSpeedMeter"]:
        """Stop ticking in this process (``now()`` keeps the last speed)
        while forked children, which tick on their own, do the work: the
        parent's chunks would only measure its contention with them."""
        ticking = self._pid == os.getpid()
        if ticking:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield self
        finally:
            if ticking:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def describe(self) -> str:
        if not self.chunks:
            return "host speed: not measured"
        ms = [c * 1e3 for c in self.chunks]
        q = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return (
            f"host speed: {len(ms)} reference chunks, median {statistics.median(ms):.3f} ms "
            f"(quartiles {q[0]:.3f}-{q[2]:.3f} ms, nominal {NOMINAL_CHUNK_S * 1e3:.3f} ms)"
        )


#: One per process: the interval timer and the SIGALRM handler are
#: process-wide, and pool workers reach it through the patched hand-off.
METER = HostSpeedMeter()
